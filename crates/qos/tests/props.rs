//! Property-based tests for the QoS building blocks: conservation,
//! ordering, fairness and metering invariants that must hold for *any*
//! traffic pattern.

use std::collections::VecDeque;

use netsim_net::addr::ip;
use netsim_net::{Dscp, Packet, Pkt};
use netsim_qos::sched::CbqClassConfig;
use netsim_qos::{
    CbqScheduler, ClassOf, DrrScheduler, EnqueueOutcome, FifoQueue, PriorityScheduler,
    QueueDiscipline, RedParams, RedQueue, SrTcm, TokenBucket, WfqScheduler, WredQueue, SEC,
};
use proptest::prelude::*;

/// An arbitrary traffic script: (class, payload, enqueue-or-dequeue).
#[derive(Clone, Debug)]
enum Op {
    Enq { class: u8, payload: u16 },
    Deq,
}

fn arb_ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u8..4, 0u16..1400).prop_map(|(class, payload)| Op::Enq { class, payload }),
            Just(Op::Deq),
        ],
        1..max,
    )
}

fn mk_pkt(class: u8, payload: u16, seq: u64) -> Pkt {
    let mut p = Packet::udp(ip("10.0.0.1"), ip("10.0.0.2"), 1, 2, Dscp::BE, payload as usize);
    p.meta.flow = u64::from(class);
    p.meta.seq = seq;
    p.into()
}

fn by_flow() -> ClassOf {
    Box::new(|p: &Packet| p.meta.flow as usize)
}

/// Runs a script against a discipline and checks the conservation law:
/// every enqueued packet is either still buffered, was dequeued, or was
/// explicitly dropped — and byte accounting matches exactly.
fn check_conservation(mut q: Box<dyn QueueDiscipline>, ops: &[Op]) {
    let mut enq = 0u64;
    let mut deq = 0u64;
    let mut dropped = 0u64;
    let mut bytes_in = 0usize;
    let mut bytes_out = 0usize;
    let mut now = 0u64;
    let mut seq = 0u64;
    for op in ops {
        now += 1_000;
        match op {
            Op::Enq { class, payload } => {
                let p = mk_pkt(*class, *payload, seq);
                seq += 1;
                let sz = p.wire_len();
                enq += 1;
                match q.enqueue(p, now) {
                    EnqueueOutcome::Queued => bytes_in += sz,
                    EnqueueOutcome::Dropped(..) => dropped += 1,
                }
            }
            Op::Deq => {
                if let Some(p) = q.dequeue(now) {
                    deq += 1;
                    bytes_out += p.wire_len();
                }
            }
        }
    }
    // Drain (far future so shaped classes are eligible).
    let mut guard = 0;
    loop {
        now += SEC;
        match q.dequeue(now) {
            Some(p) => {
                deq += 1;
                bytes_out += p.wire_len();
            }
            None => {
                if q.is_empty() {
                    break;
                }
            }
        }
        guard += 1;
        assert!(guard < 100_000, "drain did not terminate");
    }
    assert_eq!(enq, deq + dropped, "packet conservation");
    assert_eq!(bytes_in, bytes_out, "byte conservation");
    assert_eq!(q.len_packets(), 0);
    assert_eq!(q.len_bytes(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fifo_conserves(ops in arb_ops(200)) {
        check_conservation(Box::new(FifoQueue::new(64 * 1024)), &ops);
    }

    #[test]
    fn red_conserves(ops in arb_ops(200), seed in any::<u64>()) {
        check_conservation(
            Box::new(RedQueue::new(64 * 1024, RedParams::new(8 * 1024, 32 * 1024), seed, 10_000)),
            &ops,
        );
    }

    #[test]
    fn wred_conserves(ops in arb_ops(200), seed in any::<u64>()) {
        check_conservation(
            Box::new(WredQueue::new(64 * 1024, WredQueue::af_profiles(64 * 1024), by_flow(), seed, 10_000)),
            &ops,
        );
    }

    #[test]
    fn priority_conserves(ops in arb_ops(200)) {
        let bands: Vec<Box<dyn QueueDiscipline>> =
            (0..4).map(|_| Box::new(FifoQueue::new(16 * 1024)) as Box<dyn QueueDiscipline>).collect();
        check_conservation(Box::new(PriorityScheduler::new(bands, by_flow())), &ops);
    }

    #[test]
    fn wfq_conserves(ops in arb_ops(200)) {
        check_conservation(Box::new(WfqScheduler::new(&[1, 2, 4, 8], 16 * 1024, by_flow())), &ops);
    }

    #[test]
    fn drr_conserves(ops in arb_ops(200)) {
        check_conservation(
            Box::new(DrrScheduler::new(&[1500, 1500, 3000, 6000], 16 * 1024, by_flow())),
            &ops,
        );
    }

    #[test]
    fn cbq_conserves(ops in arb_ops(200), bounded in any::<bool>()) {
        let cfgs = (0..4)
            .map(|i| CbqClassConfig {
                rate_bps: 1_000_000 * (i + 1),
                bounded: bounded && i == 0,
                cap_bytes: 16 * 1024,
            })
            .collect();
        check_conservation(Box::new(CbqScheduler::new(cfgs, by_flow())), &ops);
    }

    /// Within one class, every work-conserving scheduler must preserve
    /// arrival order (FIFO-per-class).
    #[test]
    fn schedulers_preserve_per_class_order(ops in arb_ops(300), which in 0usize..4) {
        let mut q: Box<dyn QueueDiscipline> = match which {
            0 => Box::new(FifoQueue::new(1 << 20)),
            1 => {
                let bands: Vec<Box<dyn QueueDiscipline>> =
                    (0..4).map(|_| Box::new(FifoQueue::new(1 << 18)) as Box<dyn QueueDiscipline>).collect();
                Box::new(PriorityScheduler::new(bands, by_flow()))
            }
            2 => Box::new(WfqScheduler::new(&[1, 2, 4, 8], 1 << 18, by_flow())),
            _ => Box::new(DrrScheduler::new(&[1500, 1500, 3000, 6000], 1 << 18, by_flow())),
        };
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut last_seen = [0u64; 4]; // last dequeued seq+1 per class
        for op in &ops {
            now += 1_000;
            match op {
                Op::Enq { class, payload } => {
                    seq += 1;
                    let _ = q.enqueue(mk_pkt(*class, *payload, seq), now);
                }
                Op::Deq => {
                    if let Some(p) = q.dequeue(now) {
                        let c = p.meta.flow as usize;
                        prop_assert!(
                            p.meta.seq > last_seen[c],
                            "class {c} reordered: {} after {}",
                            p.meta.seq,
                            last_seen[c]
                        );
                        last_seen[c] = p.meta.seq;
                    }
                }
            }
        }
    }

    /// Strict priority over FIFO bands matches a naive reference model —
    /// one `VecDeque` per band with the same byte caps — on random
    /// enqueue/dequeue traces: every enqueue has the same outcome, every
    /// dequeue yields the same packet, per-band drops agree, and so do
    /// `len_packets` and `is_empty` after every operation. Three bands for
    /// four classes also exercises the clamp onto the top band. Traces may
    /// purge the scheduler midway. With `shaped_kbps` set, the middle band
    /// is a token-bucket shaper (modelled by a bucket of the same contract):
    /// while it holds packets but lacks tokens, dequeue must fall through
    /// to the band below.
    #[test]
    fn priority_matches_reference_model(
        ops in arb_ops(300),
        caps in proptest::collection::vec(1_500usize..6_000, 3),
        purge_after in proptest::collection::vec(0usize..300, 0..3),
        shaped_kbps in proptest::option::of(64u64..10_000),
    ) {
        const SHAPED: usize = 1;
        const BURST: u64 = 3_000;
        let bands: Vec<Box<dyn QueueDiscipline>> = caps
            .iter()
            .enumerate()
            .map(|(b, &c)| -> Box<dyn QueueDiscipline> {
                let fifo = Box::new(FifoQueue::new(c));
                match shaped_kbps {
                    Some(kbps) if b == SHAPED => {
                        Box::new(netsim_qos::ShapedQueue::new(fifo, kbps * 1000, BURST))
                    }
                    _ => fifo,
                }
            })
            .collect();
        let mut q = PriorityScheduler::new(bands, by_flow());
        // Reference: per band, (seq, wire bytes) in arrival order.
        let mut reference: Vec<VecDeque<(u64, usize)>> = vec![VecDeque::new(); caps.len()];
        let mut bucket = shaped_kbps.map(|kbps| TokenBucket::new(kbps * 1000, BURST));
        let mut ref_drops = vec![0u64; caps.len()];
        let ref_bytes = |r: &Vec<VecDeque<(u64, usize)>>, b: usize| -> usize {
            r[b].iter().map(|&(_, sz)| sz).sum()
        };
        // The highest band whose head may leave now; the shaped band's head
        // needs a full packet's worth of tokens.
        let ref_dequeue = |r: &mut Vec<VecDeque<(u64, usize)>>,
                           bucket: &mut Option<TokenBucket>,
                           now: u64| {
            (0..r.len()).rev().find_map(|b| {
                let &(_, sz) = r[b].front()?;
                if let Some(tb) = bucket.as_mut().filter(|_| b == SHAPED) {
                    if (tb.level_bytes(now) as usize) < sz {
                        return None;
                    }
                    assert!(tb.conforms(sz, now));
                }
                r[b].pop_front()
            })
        };
        let mut now = 0u64;
        for (seq, op) in ops.iter().enumerate() {
            now += 1_000;
            match op {
                Op::Enq { class, payload } => {
                    let p = mk_pkt(*class, *payload, seq as u64);
                    let sz = p.wire_len();
                    let band = usize::from(*class).min(caps.len() - 1);
                    let fits = ref_bytes(&reference, band) + sz <= caps[band];
                    if fits {
                        reference[band].push_back((seq as u64, sz));
                    } else {
                        ref_drops[band] += 1;
                    }
                    let queued = q.enqueue(p, now).is_queued();
                    prop_assert_eq!(queued, fits, "enqueue outcome of seq {}", seq);
                }
                Op::Deq => {
                    let want = ref_dequeue(&mut reference, &mut bucket, now);
                    let got = q.dequeue(now).map(|p| (p.meta.seq, p.wire_len()));
                    prop_assert_eq!(got, want, "dequeue at seq {}", seq);
                }
            }
            if purge_after.contains(&seq) {
                let mut got: Vec<u64> = q.purge().iter().map(|p| p.meta.seq).collect();
                let mut want: Vec<u64> =
                    reference.iter_mut().flat_map(|r| r.drain(..).map(|(s, _)| s)).collect();
                got.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(got, want, "purge after seq {}", seq);
            }
            let held = reference.iter().map(VecDeque::len).sum::<usize>();
            prop_assert_eq!(q.drops(), ref_drops.as_slice());
            prop_assert_eq!(q.len_packets(), held);
            prop_assert_eq!(q.is_empty(), held == 0);
        }
        // Drain, waiting out the shaper: the remaining order must match too.
        while !q.is_empty() {
            let want = ref_dequeue(&mut reference, &mut bucket, now);
            let got = q.dequeue(now).map(|p| (p.meta.seq, p.wire_len()));
            prop_assert_eq!(got, want);
            if got.is_none() {
                now += SEC;
            }
        }
        prop_assert!(reference.iter().all(VecDeque::is_empty));
        prop_assert!(q.dequeue(now).is_none());
    }

    /// Hierarchical CBQ conserves packets/bytes over arbitrary scripts.
    #[test]
    fn hier_cbq_conserves(ops in arb_ops(150), bounded_root in any::<bool>()) {
        use netsim_qos::{CbqNodeConfig, HierCbq};
        let m = 1_000_000u64;
        let tree = HierCbq::new(
            vec![
                CbqNodeConfig { parent: None, rate_bps: 10 * m, bounded: bounded_root, cap_bytes: 0 },
                CbqNodeConfig { parent: Some(0), rate_bps: 6 * m, bounded: true, cap_bytes: 0 },
                CbqNodeConfig { parent: Some(1), rate_bps: 2 * m, bounded: false, cap_bytes: 16 * 1024 },
                CbqNodeConfig { parent: Some(1), rate_bps: 4 * m, bounded: false, cap_bytes: 16 * 1024 },
                CbqNodeConfig { parent: Some(0), rate_bps: 4 * m, bounded: false, cap_bytes: 16 * 1024 },
                CbqNodeConfig { parent: Some(0), rate_bps: m, bounded: true, cap_bytes: 16 * 1024 },
            ],
            by_flow(),
        );
        check_conservation(Box::new(tree), &ops);
    }

    /// The shaper conserves packets/bytes like every other discipline
    /// (its drain needs future timestamps, which `check_conservation`
    /// already provides).
    #[test]
    fn shaper_conserves(ops in arb_ops(150), rate_kbps in 64u64..100_000) {
        check_conservation(
            Box::new(netsim_qos::ShapedQueue::new(
                Box::new(FifoQueue::new(1 << 20)),
                rate_kbps * 1000,
                4_000,
            )),
            &ops,
        );
    }

    /// Shaper long-run output rate never exceeds the contract (plus burst).
    #[test]
    fn shaper_rate_bound(payloads in proptest::collection::vec(0u16..1400, 1..100)) {
        let rate = 8_000_000u64; // 1 MB/s
        let burst = 3_000u64;
        let mut q = netsim_qos::ShapedQueue::new(Box::new(FifoQueue::new(1 << 22)), rate, burst);
        for (i, p) in payloads.iter().enumerate() {
            let _ = q.enqueue(mk_pkt(0, *p, i as u64), 0);
        }
        // Drain with the link-retry loop, recording release times.
        let mut now = 0u64;
        let mut released_bytes = 0u64;
        let mut last = 0u64;
        while !q.is_empty() {
            match q.dequeue(now) {
                Some(p) => {
                    released_bytes += p.wire_len() as u64;
                    last = now;
                }
                None => now = q.next_ready(now).expect("backlogged"),
            }
        }
        let budget = burst + rate * last / 8 / 1_000_000_000 + 1500;
        prop_assert!(released_bytes <= budget, "released {released_bytes} > {budget}");
    }

    /// Token bucket long-run rate: over any script, accepted bytes never
    /// exceed burst + rate × elapsed.
    #[test]
    fn token_bucket_rate_bound(
        sizes in proptest::collection::vec(1usize..2000, 1..200),
        gap_ns in 1u64..1_000_000,
    ) {
        let rate = 8_000_000u64; // 1 MB/s
        let burst = 10_000u64;
        let mut tb = TokenBucket::new(rate, burst);
        let mut accepted = 0u64;
        let mut now = 0u64;
        for s in &sizes {
            now += gap_ns;
            if tb.conforms(*s, now) {
                accepted += *s as u64;
            }
        }
        let budget = burst + rate * now / 8 / 1_000_000_000 + 2000;
        prop_assert!(accepted <= budget, "accepted {accepted} > budget {budget}");
    }

    /// srTCM colors are monotone: a packet marked Green would also have
    /// been accepted by a pure CIR bucket of the same parameters.
    #[test]
    fn srtcm_green_never_exceeds_cir(
        sizes in proptest::collection::vec(1usize..1500, 1..200),
        gap_ns in 1u64..500_000,
    ) {
        let mut m = SrTcm::new(8_000_000, 5_000, 5_000);
        let mut green_bytes = 0u64;
        let mut now = 0u64;
        for s in &sizes {
            now += gap_ns;
            if m.meter(*s, now) == netsim_qos::Color::Green {
                green_bytes += *s as u64;
            }
        }
        let budget = 5_000 + 8_000_000 * now / 8 / 1_000_000_000 + 1500;
        prop_assert!(green_bytes <= budget);
    }

    /// The EXP map always produces 3-bit values and the inverse lands in
    /// the same scheduling class.
    #[test]
    fn exp_map_closed_under_roundtrip(v in 0u8..64) {
        let m = netsim_qos::ExpMap::default();
        let d = Dscp::new(v);
        let e = m.exp_of(d);
        prop_assert!(e <= 7);
        let back = m.dscp_of(e);
        prop_assert_eq!(m.exp_of(back), e);
    }
}
