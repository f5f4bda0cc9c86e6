//! Property-based tests for the QoS building blocks: conservation,
//! ordering, fairness and metering invariants that must hold for *any*
//! traffic pattern.

use std::collections::VecDeque;

use netsim_net::addr::ip;
use netsim_net::{Dscp, Packet, Pkt};
use netsim_qos::{
    Admit, CbqNodeConfig, ClassOf, DrrScheduler, EnqueueOutcome, FifoQueue, HierCbq,
    PriorityScheduler, QueueDiscipline, RedParams, RedQueue, TokenBucket, WfqScheduler, SEC,
};
use proptest::prelude::*;

/// An arbitrary traffic script: (class, payload, enqueue-or-dequeue).
#[derive(Clone, Debug)]
enum Op {
    /// Offer a packet. `idle` says the transmitter is free, so a reference
    /// test may offer it through `admit` instead of `enqueue`.
    Enq {
        class: u8,
        payload: u16,
        idle: bool,
    },
    Deq,
}

fn arb_ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    arb_ops_over(4, max)
}

/// Like [`arb_ops`], with traffic spread over `classes` classes.
fn arb_ops_over(classes: u8, max: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u8..classes, 0u16..1400, any::<bool>()).prop_map(|(class, payload, idle)| Op::Enq {
                class,
                payload,
                idle
            }),
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

/// What offering a packet through `admit` did, in a model's terms: the
/// `(seq, wire bytes)` sent at once, queued, or refused.
#[derive(Debug, PartialEq)]
enum Offer {
    Sent(u64, usize),
    Queued,
    Dropped,
}

impl Offer {
    /// A discipline's [`Admit`] verdict.
    fn of(a: Admit) -> Self {
        match a {
            Admit::Transmit(p) => Offer::Sent(p.meta.seq, p.wire_len()),
            Admit::Queued => Offer::Queued,
            Admit::Dropped(..) => Offer::Dropped,
        }
    }

    /// A model's enqueue (`fits` it reported) then `dequeue`.
    fn model(fits: bool, dequeue: impl FnOnce() -> Option<(u64, usize)>) -> Self {
        if !fits {
            return Offer::Dropped;
        }
        dequeue().map_or(Offer::Queued, |(seq, sz)| Offer::Sent(seq, sz))
    }
}

/// A random CBQ forest of 1–6 nodes: each node is a root or the child of
/// an earlier node, with a rate of 64 kb/s–20 Mb/s, a random bounded flag
/// and a leaf cap of 1.5–6 kB.
fn arb_cbq() -> impl Strategy<Value = Vec<CbqNodeConfig>> {
    proptest::collection::vec(
        (any::<u8>(), 64_000u64..20_000_000, any::<bool>(), 1_500usize..6_000),
        1..7,
    )
    .prop_map(|nodes| {
        nodes
            .into_iter()
            .enumerate()
            .map(|(i, (pick, rate_bps, bounded, cap_bytes))| {
                // One pick in i + 1 makes node i a root.
                let parent = usize::from(pick) % (i + 1);
                CbqNodeConfig {
                    parent: (parent < i).then_some(parent),
                    rate_bps,
                    bounded,
                    cap_bytes,
                }
            })
            .collect()
    })
}

/// The textbook deficit round robin that `drr_matches_reference_model`
/// checks [`DrrScheduler`] against: per class a FIFO of `(seq, wire
/// bytes)` and a deficit, plus the round of backlogged classes.
struct RefDrr {
    quanta: Vec<usize>,
    cap: usize,
    fifos: Vec<VecDeque<(u64, usize)>>,
    deficits: Vec<usize>,
    round: VecDeque<usize>,
}

impl RefDrr {
    fn new(quanta: Vec<usize>, cap: usize) -> Self {
        let n = quanta.len();
        RefDrr {
            quanta,
            cap,
            fifos: vec![VecDeque::new(); n],
            deficits: vec![0; n],
            round: VecDeque::new(),
        }
    }

    fn class_bytes(&self, c: usize) -> usize {
        self.fifos[c].iter().map(|&(_, sz)| sz).sum()
    }

    fn bytes(&self) -> usize {
        (0..self.fifos.len()).map(|c| self.class_bytes(c)).sum()
    }

    /// Whether the packet fits its class's cap (and is queued).
    fn enqueue(&mut self, class: usize, seq: u64, sz: usize) -> bool {
        let c = class.min(self.fifos.len() - 1);
        if self.class_bytes(c) + sz > self.cap {
            return false;
        }
        self.fifos[c].push_back((seq, sz));
        if !self.round.contains(&c) {
            self.deficits[c] = self.quanta[c];
            self.round.push_back(c);
        }
        true
    }

    fn dequeue(&mut self) -> Option<(u64, usize)> {
        loop {
            let c = *self.round.front()?;
            let &(_, sz) = self.fifos[c].front().expect("classes in the round are backlogged");
            if sz > self.deficits[c] {
                self.deficits[c] += self.quanta[c];
                self.round.rotate_left(1);
                continue;
            }
            self.deficits[c] -= sz;
            let head = self.fifos[c].pop_front();
            if self.fifos[c].is_empty() {
                self.deficits[c] = 0;
                self.round.pop_front();
            }
            return head;
        }
    }

    fn purge(&mut self) -> Vec<u64> {
        self.round.clear();
        self.deficits.iter_mut().for_each(|d| *d = 0);
        self.fifos.iter_mut().flat_map(|f| f.drain(..).map(|(seq, _)| seq)).collect()
    }
}

/// The textbook virtual-finish-time WFQ that `wfq_matches_reference_model`
/// checks [`WfqScheduler`] against: one flat list of queued
/// `(finish, class, seq, wire bytes)`, a system virtual time, and each
/// class's last finish tag.
struct RefWfq {
    weights: Vec<u64>,
    cap: usize,
    queued: Vec<(u128, usize, u64, usize)>,
    vtime: u128,
    last_finish: Vec<u128>,
}

impl RefWfq {
    fn new(weights: Vec<u64>, cap: usize) -> Self {
        let n = weights.len();
        RefWfq { weights, cap, queued: Vec::new(), vtime: 0, last_finish: vec![0; n] }
    }

    fn bytes(&self) -> usize {
        self.queued.iter().map(|&(_, _, _, sz)| sz).sum()
    }

    /// Whether the packet fits its class's cap (and is queued).
    fn enqueue(&mut self, class: usize, seq: u64, sz: usize) -> bool {
        let c = class.min(self.weights.len() - 1);
        let held: usize = self.queued.iter().filter(|q| q.1 == c).map(|q| q.3).sum();
        if held + sz > self.cap {
            return false;
        }
        let start = self.vtime.max(self.last_finish[c]);
        let finish = start + (sz as u128 * (1 << 16)) / u128::from(self.weights[c]);
        self.last_finish[c] = finish;
        self.queued.push((finish, c, seq, sz));
        true
    }

    /// Serves the smallest `(finish, class)`; an idle system restarts
    /// virtual time from zero.
    fn dequeue(&mut self) -> Option<(u64, usize)> {
        let i = (0..self.queued.len()).min_by_key(|&i| (self.queued[i].0, self.queued[i].1))?;
        let (finish, _, seq, sz) = self.queued.remove(i);
        self.vtime = self.vtime.max(finish);
        if self.queued.is_empty() {
            self.reset();
        }
        Some((seq, sz))
    }

    fn purge(&mut self) -> Vec<u64> {
        self.reset();
        self.queued.drain(..).map(|(_, _, seq, _)| seq).collect()
    }

    fn reset(&mut self) {
        self.vtime = 0;
        self.last_finish.iter_mut().for_each(|f| *f = 0);
    }
}

/// The naive link-sharing CBQ that `cbq_matches_reference_model` checks
/// [`HierCbq`] against: per node a parent, a bounded flag and a token
/// bucket; per leaf a FIFO of `(seq, wire bytes)` under its cap.
struct RefCbq {
    parent: Vec<Option<usize>>,
    bounded: Vec<bool>,
    buckets: Vec<TokenBucket>,
    /// Node index and cap of each leaf, in declaration order.
    leaves: Vec<(usize, usize)>,
    fifos: Vec<VecDeque<(u64, usize)>>,
    /// The leaf after the last one served.
    next: usize,
}

impl RefCbq {
    fn new(cfgs: &[CbqNodeConfig]) -> Self {
        let leaves: Vec<(usize, usize)> = (0..cfgs.len())
            .filter(|&i| cfgs.iter().all(|c| c.parent != Some(i)))
            .map(|i| (i, cfgs[i].cap_bytes))
            .collect();
        RefCbq {
            parent: cfgs.iter().map(|c| c.parent).collect(),
            bounded: cfgs.iter().map(|c| c.bounded).collect(),
            buckets: cfgs
                .iter()
                .map(|c| TokenBucket::new(c.rate_bps, (c.rate_bps / 80).max(3200)))
                .collect(),
            fifos: vec![VecDeque::new(); leaves.len()],
            leaves,
            next: 0,
        }
    }

    fn bytes(&self) -> usize {
        self.fifos.iter().flatten().map(|&(_, sz)| sz).sum()
    }

    fn len(&self) -> usize {
        self.fifos.iter().map(VecDeque::len).sum()
    }

    /// Whether the packet fits its leaf's cap (and is queued).
    fn enqueue(&mut self, class: usize, seq: u64, sz: usize) -> bool {
        let l = class.min(self.leaves.len() - 1);
        let held: usize = self.fifos[l].iter().map(|&(_, sz)| sz).sum();
        if held + sz > self.leaves[l].1 {
            return false;
        }
        self.fifos[l].push_back((seq, sz));
        true
    }

    /// Pass 1 gates on every node of the leaf's root path, pass 2 on its
    /// bounded nodes only; each pass is round-robin from `next`.
    fn dequeue(&mut self, now: u64) -> Option<(u64, usize)> {
        let n = self.leaves.len();
        for only_bounded in [false, true] {
            for off in 0..n {
                let l = (self.next + off) % n;
                let Some(&(_, sz)) = self.fifos[l].front() else { continue };
                let path: Vec<usize> =
                    std::iter::successors(Some(self.leaves[l].0), |&v| self.parent[v]).collect();
                let can_pay = path
                    .iter()
                    .filter(|&&v| !only_bounded || self.bounded[v])
                    .all(|&v| self.buckets[v].level_bytes(now) as usize >= sz);
                if can_pay {
                    for &v in &path {
                        self.buckets[v].conforms(sz, now);
                    }
                    self.next = (l + 1) % n;
                    return self.fifos[l].pop_front();
                }
            }
        }
        None
    }

    fn purge(&mut self) -> Vec<u64> {
        self.fifos.iter_mut().flat_map(|f| f.drain(..).map(|(seq, _)| seq)).collect()
    }
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
            Op::Enq { class, payload, .. } => {
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

    /// CBQ conserves packets and bytes on random forests and trees.
    #[test]
    fn cbq_conserves(ops in arb_ops(200), cfgs in arb_cbq()) {
        check_conservation(Box::new(HierCbq::new(cfgs, by_flow())), &ops);
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
                Op::Enq { class, payload, .. } => {
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

    /// A FIFO matches a naive reference model — one `VecDeque` of `(seq,
    /// wire bytes)` under the same byte cap — on random enqueue, dequeue
    /// and purge traces; caps down to 100 B make tail drops common, also
    /// of a packet offered to an empty FIFO. A packet flagged `idle` is
    /// offered through `admit`, whether or not the FIFO holds packets, and
    /// its verdict must be the model's enqueue then dequeue; that checks
    /// both the empty-FIFO override and its fallback. Other packets are
    /// enqueued, so backlogs build. After every operation `len_packets`,
    /// `len_bytes` and `is_empty` must agree.
    #[test]
    fn fifo_matches_reference_model(
        ops in arb_ops(300),
        cap in 100usize..6_000,
        purge_after in proptest::collection::vec(0usize..300, 0..3),
    ) {
        let mut q = FifoQueue::new(cap);
        let mut reference: VecDeque<(u64, usize)> = VecDeque::new();
        for (seq, op) in ops.iter().enumerate() {
            match op {
                Op::Enq { class, payload, idle } => {
                    let p = mk_pkt(*class, *payload, seq as u64);
                    let sz = p.wire_len();
                    let fits = reference.iter().map(|&(_, b)| b).sum::<usize>() + sz <= cap;
                    if fits {
                        reference.push_back((seq as u64, sz));
                    }
                    if *idle {
                        let want = Offer::model(fits, || reference.pop_front());
                        prop_assert_eq!(Offer::of(q.admit(p, 0)), want, "admit of seq {}", seq);
                    } else {
                        let queued = q.enqueue(p, 0).is_queued();
                        prop_assert_eq!(queued, fits, "enqueue outcome of seq {}", seq);
                    }
                }
                Op::Deq => {
                    let got = q.dequeue(0).map(|p| (p.meta.seq, p.wire_len()));
                    prop_assert_eq!(got, reference.pop_front(), "dequeue at seq {}", seq);
                }
            }
            if purge_after.contains(&seq) {
                let got: Vec<u64> = q.purge().iter().map(|p| p.meta.seq).collect();
                let want: Vec<u64> = reference.drain(..).map(|(s, _)| s).collect();
                prop_assert_eq!(got, want, "purge after seq {}", seq);
            }
            prop_assert_eq!(q.len_packets(), reference.len());
            prop_assert_eq!(q.len_bytes(), reference.iter().map(|&(_, b)| b).sum::<usize>());
            prop_assert_eq!(q.is_empty(), reference.is_empty());
        }
    }

    /// Strict priority over FIFO bands matches a naive reference model —
    /// one `VecDeque` per band with the same byte caps — on random
    /// enqueue/dequeue traces: every enqueue has the same outcome, every
    /// dequeue yields the same packet, and `len_packets` and `is_empty`
    /// agree after every operation. Three bands for
    /// four classes also exercises the clamp onto the top band. Traces may
    /// purge the scheduler midway. With `shaped_kbps` set, the middle band
    /// is a bounded one-leaf CBQ (modelled by a token bucket of the same
    /// contract): while it holds packets but lacks tokens, dequeue must
    /// fall through to the band below. A packet flagged `idle` that finds
    /// the model empty is offered through `admit`, whose verdict must be
    /// the model's enqueue then dequeue (a shaped band short of tokens
    /// keeps it queued); every other packet is enqueued, so backlogs
    /// build as before.
    #[test]
    fn priority_matches_reference_model(
        ops in arb_ops(300),
        caps in proptest::collection::vec(1_500usize..6_000, 3),
        purge_after in proptest::collection::vec(0usize..300, 0..3),
        shaped_kbps in proptest::option::of(64u64..256),
    ) {
        const SHAPED: usize = 1;
        // A CBQ node's burst is ~100 ms at its rate, floored at 3 200 B;
        // every rate below 256 kb/s gets the floor.
        const BURST: u64 = 3_200;
        let bands: Vec<Box<dyn QueueDiscipline>> = caps
            .iter()
            .enumerate()
            .map(|(b, &c)| -> Box<dyn QueueDiscipline> {
                match shaped_kbps {
                    Some(kbps) if b == SHAPED => {
                        let leaf = CbqNodeConfig {
                            parent: None,
                            rate_bps: kbps * 1000,
                            bounded: true,
                            cap_bytes: c,
                        };
                        Box::new(HierCbq::new(vec![leaf], Box::new(|_: &Packet| 0)))
                    }
                    _ => Box::new(FifoQueue::new(c)),
                }
            })
            .collect();
        let mut q = PriorityScheduler::new(bands, by_flow());
        // Reference: per band, (seq, wire bytes) in arrival order.
        let mut reference: Vec<VecDeque<(u64, usize)>> = vec![VecDeque::new(); caps.len()];
        let mut bucket = shaped_kbps.map(|kbps| TokenBucket::new(kbps * 1000, BURST));
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
                Op::Enq { class, payload, idle } => {
                    let p = mk_pkt(*class, *payload, seq as u64);
                    let sz = p.wire_len();
                    let band = usize::from(*class).min(caps.len() - 1);
                    let idle = *idle && reference.iter().all(VecDeque::is_empty);
                    let fits = ref_bytes(&reference, band) + sz <= caps[band];
                    if fits {
                        reference[band].push_back((seq as u64, sz));
                    }
                    if idle {
                        let want =
                            Offer::model(fits, || ref_dequeue(&mut reference, &mut bucket, now));
                        prop_assert_eq!(Offer::of(q.admit(p, now)), want, "admit of seq {}", seq);
                    } else {
                        let queued = q.enqueue(p, now).is_queued();
                        prop_assert_eq!(queued, fits, "enqueue outcome of seq {}", seq);
                    }
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
            prop_assert_eq!(q.len_packets(), held);
            prop_assert_eq!(q.is_empty(), held == 0);
        }
        // Drain, waiting out the bounded band: the remaining order must
        // match too.
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

    /// DRR matches a naive reference model — one FIFO per class with the
    /// same byte cap, plus a round-robin list — on random enqueue, dequeue
    /// and purge traces. A class that joins the round starts with one
    /// quantum; a head larger than the deficit banks one more quantum and
    /// sends the class to the back; a class that empties leaves the round
    /// with deficit 0. After every operation the enqueue outcome, the
    /// dequeued `(seq, wire_len)`, `len_packets`, `len_bytes` and
    /// `is_empty` must agree. Quanta as small as 1 byte make heads wait
    /// through many rounds; fewer classes than traffic classes exercise
    /// the clamp onto the last class. A packet flagged `idle` that finds
    /// the model empty is offered through `admit`, whose verdict must be
    /// the model's enqueue then dequeue; every other packet is enqueued,
    /// so backlogs build as before.
    #[test]
    fn drr_matches_reference_model(
        ops in arb_ops(300),
        quanta in proptest::collection::vec(1usize..3_000, 1..5),
        cap in 1_500usize..6_000,
        purge_after in proptest::collection::vec(0usize..300, 0..3),
    ) {
        let mut q = DrrScheduler::new(&quanta, cap, by_flow());
        let mut reference = RefDrr::new(quanta.clone(), cap);
        for (seq, op) in ops.iter().enumerate() {
            match op {
                Op::Enq { class, payload, idle } => {
                    let p = mk_pkt(*class, *payload, seq as u64);
                    let idle = *idle && reference.fifos.iter().all(VecDeque::is_empty);
                    let fits = reference.enqueue(usize::from(*class), seq as u64, p.wire_len());
                    if idle {
                        let want = Offer::model(fits, || reference.dequeue());
                        prop_assert_eq!(Offer::of(q.admit(p, 0)), want, "admit of seq {}", seq);
                    } else {
                        let queued = q.enqueue(p, 0).is_queued();
                        prop_assert_eq!(queued, fits, "enqueue outcome of seq {}", seq);
                    }
                }
                Op::Deq => {
                    let got = q.dequeue(0).map(|p| (p.meta.seq, p.wire_len()));
                    prop_assert_eq!(got, reference.dequeue(), "dequeue at seq {}", seq);
                }
            }
            if purge_after.contains(&seq) {
                let mut got: Vec<u64> = q.purge().iter().map(|p| p.meta.seq).collect();
                let mut want = reference.purge();
                got.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(got, want, "purge after seq {}", seq);
            }
            let held = reference.fifos.iter().map(VecDeque::len).sum::<usize>();
            prop_assert_eq!(q.len_packets(), held);
            prop_assert_eq!(q.len_bytes(), reference.bytes());
            prop_assert_eq!(q.is_empty(), held == 0);
        }
        while let Some(want) = reference.dequeue() {
            prop_assert_eq!(q.dequeue(0).map(|p| (p.meta.seq, p.wire_len())), Some(want));
        }
        prop_assert!(q.dequeue(0).is_none());
    }

    /// WFQ matches a naive reference model — one flat list of finish
    /// tags, scanned for the smallest `(finish, class)` — on random
    /// enqueue, dequeue and purge traces. A packet starts at the later of
    /// the system virtual time and its class's last finish, and finishes
    /// `len·2¹⁶ / weight` after; serving a packet advances virtual time to
    /// its finish; an idle or purged system resets every tag to zero.
    /// After every operation the enqueue outcome, the dequeued `(seq,
    /// wire_len)`, `len_packets`, `len_bytes` and `is_empty` must agree.
    /// Traffic spans 8 classes, so fewer weights exercise the clamp onto
    /// the last class. Small weights and payloads rounded to 350 B steps
    /// make equal finish tags common, so the class tie-break is exercised.
    /// A packet flagged `idle` that finds the model empty is offered
    /// through `admit`, whose verdict must be the model's enqueue then
    /// dequeue; every other packet is enqueued, so backlogs build as
    /// before.
    #[test]
    fn wfq_matches_reference_model(
        ops in arb_ops_over(8, 300),
        weights in proptest::collection::vec(1u64..5, 1..9),
        cap in 1_500usize..6_000,
        purge_after in proptest::collection::vec(0usize..300, 0..3),
    ) {
        let mut q = WfqScheduler::new(&weights, cap, by_flow());
        let mut reference = RefWfq::new(weights.clone(), cap);
        for (seq, op) in ops.iter().enumerate() {
            match op {
                Op::Enq { class, payload, idle } => {
                    let p = mk_pkt(*class, *payload / 350 * 350, seq as u64);
                    let idle = *idle && reference.queued.is_empty();
                    let fits = reference.enqueue(usize::from(*class), seq as u64, p.wire_len());
                    if idle {
                        let want = Offer::model(fits, || reference.dequeue());
                        prop_assert_eq!(Offer::of(q.admit(p, 0)), want, "admit of seq {}", seq);
                    } else {
                        let queued = q.enqueue(p, 0).is_queued();
                        prop_assert_eq!(queued, fits, "enqueue outcome of seq {}", seq);
                    }
                }
                Op::Deq => {
                    let got = q.dequeue(0).map(|p| (p.meta.seq, p.wire_len()));
                    prop_assert_eq!(got, reference.dequeue(), "dequeue at seq {}", seq);
                }
            }
            if purge_after.contains(&seq) {
                let mut got: Vec<u64> = q.purge().iter().map(|p| p.meta.seq).collect();
                let mut want = reference.purge();
                got.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(got, want, "purge after seq {}", seq);
            }
            prop_assert_eq!(q.len_packets(), reference.queued.len());
            prop_assert_eq!(q.len_bytes(), reference.bytes());
            prop_assert_eq!(q.is_empty(), reference.queued.is_empty());
        }
        while let Some(want) = reference.dequeue() {
            prop_assert_eq!(q.dequeue(0).map(|p| (p.meta.seq, p.wire_len())), Some(want));
        }
        prop_assert!(q.dequeue(0).is_none());
    }

    /// CBQ matches a naive reference model ([`RefCbq`]) on random forests
    /// and trees from [`arb_cbq`]. Every node has a token bucket with
    /// burst `max(rate/80, 3200)` and every leaf a FIFO under its cap.
    /// Pass 1 serves a leaf if every node on its root path holds the
    /// head's bytes, pass 2 if every *bounded* node does; each pass is
    /// round-robin from the leaf after the last one served, and every
    /// node on the path that can pay is charged. Traffic spans 8 classes,
    /// so the clamp onto the last leaf is exercised, with gaps of 0–2 ms
    /// and up to two purges. After every operation the enqueue outcome,
    /// the dequeued `(seq, wire_len)`, `len_packets`, `len_bytes` and
    /// `is_empty` must agree.
    #[test]
    fn cbq_matches_reference_model(
        cfgs in arb_cbq(),
        ops in arb_ops_over(8, 300),
        gaps in proptest::collection::vec(0u64..=2_000_000, 300),
        purge_after in proptest::collection::vec(0usize..300, 0..3),
    ) {
        let mut reference = RefCbq::new(&cfgs);
        let mut q = HierCbq::new(cfgs, by_flow());
        let mut now = 0u64;
        for (seq, op) in ops.iter().enumerate() {
            now += gaps[seq];
            match op {
                Op::Enq { class, payload, .. } => {
                    let p = mk_pkt(*class, *payload, seq as u64);
                    let fits = reference.enqueue(usize::from(*class), seq as u64, p.wire_len());
                    let queued = q.enqueue(p, now).is_queued();
                    prop_assert_eq!(queued, fits, "enqueue outcome of seq {}", seq);
                }
                Op::Deq => {
                    let got = q.dequeue(now).map(|p| (p.meta.seq, p.wire_len()));
                    prop_assert_eq!(got, reference.dequeue(now), "dequeue at seq {}", seq);
                }
            }
            if purge_after.contains(&seq) {
                let mut got: Vec<u64> = q.purge().iter().map(|p| p.meta.seq).collect();
                let mut want = reference.purge();
                got.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(got, want, "purge after seq {}", seq);
            }
            prop_assert_eq!(q.len_packets(), reference.len());
            prop_assert_eq!(q.len_bytes(), reference.bytes());
            prop_assert_eq!(q.is_empty(), reference.len() == 0);
        }
        // Drain, waiting out the bounded nodes: the order must match too.
        while !q.is_empty() {
            let got = q.dequeue(now).map(|p| (p.meta.seq, p.wire_len()));
            prop_assert_eq!(got, reference.dequeue(now));
            if got.is_none() {
                now += SEC;
            }
        }
        prop_assert_eq!(reference.len(), 0);
        prop_assert!(q.dequeue(now).is_none());
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
