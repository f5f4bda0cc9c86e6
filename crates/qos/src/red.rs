//! Random Early Detection.
//!
//! RED (Floyd & Jacobson) keeps an exponentially weighted moving average of
//! the queue size and drops arriving packets with a probability that rises
//! between two thresholds — signalling congestion to responsive sources
//! before the buffer overflows. This is the AQM half of the paper's
//! DiffServ-over-MPLS core behaviour.

use std::collections::VecDeque;

use netsim_net::Pkt;
use netsim_obs::DropCause;

use crate::queue::{enqueue_then_dequeue, Admit, EnqueueOutcome, QueueDiscipline};
use crate::Nanos;

/// RED drop-curve parameters (byte-based).
#[derive(Clone, Copy, Debug)]
pub struct RedParams {
    /// Below this average queue size nothing is dropped.
    pub min_th_bytes: f64,
    /// Above this average queue size everything is dropped.
    pub max_th_bytes: f64,
    /// Drop probability at `max_th` (the slope endpoint).
    pub max_p: f64,
}

impl RedParams {
    /// A conventional profile: thresholds at `min`/`max` bytes, 10% max
    /// probability.
    pub fn new(min_th_bytes: usize, max_th_bytes: usize) -> Self {
        assert!(max_th_bytes > min_th_bytes, "max_th must exceed min_th");
        RedParams {
            min_th_bytes: min_th_bytes as f64,
            max_th_bytes: max_th_bytes as f64,
            max_p: 0.1,
        }
    }

    /// Sets the drop probability at `max_th`.
    pub fn with_max_p(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.max_p = p;
        self
    }
}

/// EWMA weight for the average queue estimate (RED paper default).
const EWMA_WEIGHT: f64 = 0.002;

/// Deterministic xorshift64* generator for drop decisions; seeded per queue
/// so runs are reproducible.
#[derive(Clone, Debug)]
struct DropRng(u64);

impl DropRng {
    fn new(seed: u64) -> Self {
        DropRng(seed | 1)
    }

    fn next_f64(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        // Map the top 53 bits to [0, 1).
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Shared RED state machine: average tracking + drop decision.
#[derive(Clone, Debug)]
struct RedCore {
    avg: f64,
    /// Packets accepted since the last drop (per RED's uniformization).
    count: i64,
    rng: DropRng,
    /// Time the queue went empty (for idle decay), if currently idle.
    idle_since: Option<Nanos>,
    /// Typical packet transmission time used to decay `avg` across idle
    /// periods, in ns.
    mean_pkt_time: Nanos,
}

impl RedCore {
    fn new(seed: u64, mean_pkt_time: Nanos) -> Self {
        RedCore { avg: 0.0, count: -1, rng: DropRng::new(seed), idle_since: Some(0), mean_pkt_time }
    }

    fn update_avg(&mut self, qbytes: usize, now: Nanos) {
        if let Some(t0) = self.idle_since.take() {
            // Decay the average as if m small packets had drained while idle.
            // The factor is finite, so an average of exactly zero stays zero.
            if self.avg != 0.0 {
                let m = (now.saturating_sub(t0) / self.mean_pkt_time.max(1)).min(100_000) as i32;
                self.avg *= (1.0 - EWMA_WEIGHT).powi(m);
            }
        }
        self.avg += EWMA_WEIGHT * (qbytes as f64 - self.avg);
    }

    /// RED drop decision for the current average against `params`:
    /// `None` to accept, or the cause distinguishing a *forced* drop
    /// (average at/above `max_th`) from a probabilistic *early* drop.
    fn should_drop(&mut self, params: &RedParams) -> Option<DropCause> {
        if self.avg < params.min_th_bytes {
            self.count = -1;
            return None;
        }
        if self.avg >= params.max_th_bytes {
            self.count = 0;
            return Some(DropCause::RedForced);
        }
        self.count += 1;
        let pb = params.max_p * (self.avg - params.min_th_bytes)
            / (params.max_th_bytes - params.min_th_bytes);
        let pa = pb / (1.0 - (self.count as f64) * pb).max(1e-9);
        if self.rng.next_f64() < pa {
            self.count = 0;
            Some(DropCause::RedEarly)
        } else {
            None
        }
    }

    fn note_empty(&mut self, now: Nanos) {
        self.idle_since = Some(now);
    }
}

/// A RED-managed FIFO, optionally ECN-aware (RFC 3168: mark instead of
/// drop for ECN-capable packets).
pub struct RedQueue {
    q: VecDeque<Pkt>,
    bytes: usize,
    cap_bytes: usize,
    params: RedParams,
    core: RedCore,
    ecn: bool,
}

impl RedQueue {
    /// Creates a RED queue with hard capacity `cap_bytes`, the given drop
    /// curve, and a deterministic seed. `mean_pkt_time_ns` calibrates the
    /// idle decay (use payload size / link rate; 12 µs ≈ 1500 B at 1 Gb/s).
    pub fn new(cap_bytes: usize, params: RedParams, seed: u64, mean_pkt_time_ns: Nanos) -> Self {
        RedQueue {
            q: VecDeque::new(),
            bytes: 0,
            cap_bytes,
            params,
            core: RedCore::new(seed, mean_pkt_time_ns),
            ecn: false,
        }
    }

    /// Enables ECN: an early "drop" of an ECN-capable packet becomes a CE
    /// mark and the packet is queued (hard tail drops still drop).
    pub fn with_ecn(mut self) -> Self {
        self.ecn = true;
        self
    }

    /// The arrival half of `enqueue`: updates the average, then refuses
    /// `pkt` with its cause or accepts it, CE-marked when an early drop
    /// hits an ECN-capable packet.
    fn screen(&mut self, mut pkt: Pkt, now: Nanos) -> Result<Pkt, (Pkt, DropCause)> {
        self.core.update_avg(self.bytes, now);
        if self.bytes + pkt.wire_len() > self.cap_bytes {
            return Err((pkt, DropCause::QueueOverflow));
        }
        if let Some(cause) = self.core.should_drop(&self.params) {
            let ect = self.ecn && pkt.outer_ipv4().is_some_and(netsim_net::Ipv4Header::is_ect);
            if !ect {
                return Err((pkt, cause));
            }
            pkt.outer_ipv4_mut().expect("checked above").set_ce();
        }
        Ok(pkt)
    }
}

impl QueueDiscipline for RedQueue {
    fn enqueue(&mut self, pkt: Pkt, now: Nanos) -> EnqueueOutcome {
        match self.screen(pkt, now) {
            Ok(pkt) => {
                self.bytes += pkt.wire_len();
                self.q.push_back(pkt);
                EnqueueOutcome::Queued
            }
            Err((pkt, cause)) => EnqueueOutcome::Dropped(pkt, cause),
        }
    }

    fn dequeue(&mut self, now: Nanos) -> Option<Pkt> {
        let pkt = self.q.pop_front()?;
        self.bytes -= pkt.wire_len();
        if self.q.is_empty() {
            self.core.note_empty(now);
        }
        Some(pkt)
    }

    /// An empty RED queue screens the packet as `enqueue` does and hands
    /// an accepted one back, idle again from `now` as `dequeue` leaves it.
    fn admit(&mut self, pkt: Pkt, now: Nanos) -> Admit {
        if !self.q.is_empty() {
            return enqueue_then_dequeue(self, pkt, now);
        }
        match self.screen(pkt, now) {
            Ok(pkt) => {
                self.core.note_empty(now);
                Admit::Transmit(pkt)
            }
            Err((pkt, cause)) => Admit::Dropped(pkt, cause),
        }
    }

    fn len_packets(&self) -> usize {
        self.q.len()
    }

    fn len_bytes(&self) -> usize {
        self.bytes
    }

    fn peek_len(&self) -> Option<usize> {
        self.q.front().map(|p| p.wire_len())
    }

    fn purge(&mut self) -> Vec<Pkt> {
        self.bytes = 0;
        self.q.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_net::addr::ip;
    use netsim_net::Dscp;
    use netsim_net::Packet;

    fn pkt(n: usize) -> Pkt {
        Packet::udp(ip("1.1.1.1"), ip("2.2.2.2"), 1, 2, Dscp::BE, n).into()
    }

    /// Per-cause drop tally, indexed by [`DropCause::index`].
    type Drops = [u64; DropCause::COUNT];

    /// Offers `p` to `q`; a refused packet is tallied under its cause.
    /// Returns whether `p` was queued.
    fn offer(q: &mut impl QueueDiscipline, p: Pkt, now: Nanos, drops: &mut Drops) -> bool {
        match q.enqueue(p, now) {
            EnqueueOutcome::Queued => true,
            EnqueueOutcome::Dropped(_, cause) => {
                drops[cause.index()] += 1;
                false
            }
        }
    }

    /// RED's own drops in a tally: probabilistic early plus forced.
    fn red_drops(d: &Drops) -> u64 {
        d[DropCause::RedEarly.index()] + d[DropCause::RedForced.index()]
    }

    /// `update_avg` with the idle decay applied unconditionally.
    fn update_avg_always_decaying(core: &mut RedCore, qbytes: usize, now: Nanos) {
        if let Some(t0) = core.idle_since.take() {
            let m = (now.saturating_sub(t0) / core.mean_pkt_time.max(1)).min(100_000) as i32;
            core.avg *= (1.0 - EWMA_WEIGHT).powi(m);
        }
        core.avg += EWMA_WEIGHT * (qbytes as f64 - core.avg);
    }

    /// Skipping the idle decay of a zero average changes no bit of the
    /// average and no drop decision. Each trace alternates sparse segments
    /// (every packet leaves before the next arrives, so a zero average
    /// stays exactly zero) with bursty ones that raise it, separated by
    /// idle gaps short and long enough to decay it back to zero.
    #[test]
    fn zero_average_decay_shortcut_is_exact() {
        let params = RedParams::new(500, 4_000).with_max_p(0.5);
        let (mut zero_arrivals, mut decayed_to_zero, mut drops) = (0u32, 0u32, 0u32);
        for seed in 1..=8u64 {
            let mut rng = DropRng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut fast = RedCore::new(seed, 12_000);
            let mut reference = fast.clone();
            let mut queue: VecDeque<usize> = VecDeque::new();
            let mut now = 0u64;
            for _ in 0..200 {
                let sparse = rng.next_f64() < 0.5;
                let mut positive = fast.avg > 0.0;
                for _ in 0..100 {
                    if !queue.is_empty() && (sparse || rng.next_f64() < 0.3) {
                        now += 1_000;
                        queue.pop_front();
                        if queue.is_empty() {
                            fast.note_empty(now);
                            reference.note_empty(now);
                        }
                        continue;
                    }
                    now += (rng.next_f64() * 20_000.0) as u64;
                    let qbytes = queue.iter().sum();
                    zero_arrivals += u32::from(fast.avg == 0.0);
                    fast.update_avg(qbytes, now);
                    update_avg_always_decaying(&mut reference, qbytes, now);
                    assert_eq!(fast.avg.to_bits(), reference.avg.to_bits(), "seed {seed}");
                    if positive && fast.avg == 0.0 {
                        decayed_to_zero += 1;
                    }
                    positive = fast.avg > 0.0;
                    let verdict = fast.should_drop(&params);
                    assert_eq!(verdict, reference.should_drop(&params), "seed {seed}");
                    if verdict.is_some() {
                        drops += 1;
                    } else {
                        queue.push_back(500 + (rng.next_f64() * 1_000.0) as usize);
                    }
                }
                // Idle gap: the queue drains, then stays silent for up to
                // ~20 s (past the 100 000-packet decay cap).
                if !queue.is_empty() {
                    queue.clear();
                    fast.note_empty(now);
                    reference.note_empty(now);
                }
                now += (rng.next_f64() * rng.next_f64() * 2e10) as u64;
            }
        }
        assert!(zero_arrivals > 1_000, "only {zero_arrivals} arrivals at a zero average");
        assert!(decayed_to_zero > 0, "no trace decayed back to zero");
        assert!(drops > 100, "only {drops} drops");
    }

    /// An admit verdict as (sent / sent CE-marked / refused for overflow /
    /// refused by RED, cause index, sequence number).
    fn verdict(a: &Admit) -> (usize, usize, u64) {
        match a {
            Admit::Transmit(p) => (usize::from(p.outer_ipv4().unwrap().is_ce()), 0, p.meta.seq),
            Admit::Dropped(p, DropCause::QueueOverflow) => (2, 0, p.meta.seq),
            Admit::Dropped(p, cause) => (3, cause.index(), p.meta.seq),
            Admit::Queued => panic!("an empty RED queue sends or refuses"),
        }
    }

    /// `admit` on an empty queue is exactly `enqueue` then `dequeue`: its
    /// verdict, drop cause and CE mark, and the average, drop count, drop
    /// RNG and idle mark it leaves, agree after every operation with a
    /// twin driven by [`enqueue_then_dequeue`], with ECN on and off. Each
    /// trace alternates bursts that push the average past both thresholds
    /// (whose arrivals mostly find the transmitter busy and are enqueued)
    /// with sparse segments in which every arrival finds the queue empty,
    /// half of them separated by idle gaps of up to ~20 s that decay the
    /// average. One packet in ten is too large for the buffer even when it
    /// is empty.
    #[test]
    fn admit_matches_enqueue_then_dequeue() {
        // Admissions per verdict kind, as `verdict` numbers them.
        let mut seen = [0u32; 4];
        for seed in 1..=8u64 {
            for ecn in [false, true] {
                let params = RedParams::new(300, 1_500).with_max_p(0.5);
                let make = || {
                    let q = RedQueue::new(4_000, params, seed, 12_000);
                    if ecn {
                        q.with_ecn()
                    } else {
                        q
                    }
                };
                let (mut fast, mut twin) = (make(), make());
                let mut rng = DropRng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                let mut now = 0u64;
                for _ in 0..30 {
                    let sparse = rng.next_f64() < 0.3;
                    for _ in 0..400 {
                        now += (rng.next_f64() * 4_000.0) as u64;
                        if !fast.q.is_empty() && (sparse || rng.next_f64() < 0.4) {
                            let got = fast.dequeue(now).map(|p| p.meta.seq);
                            assert_eq!(got, twin.dequeue(now).map(|p| p.meta.seq));
                        } else {
                            let large = rng.next_f64() < 0.1;
                            let mut p = pkt(if large { 3_990 } else { 400 + (now % 900) as usize });
                            p.meta.seq = now;
                            if rng.next_f64() < 0.5 {
                                p.outer_ipv4_mut().unwrap().ecn = netsim_net::ip::ecn::ECT0;
                            }
                            // A burst finds the transmitter busy most of the time.
                            let busy = !sparse && rng.next_f64() < 0.7;
                            if busy || !fast.q.is_empty() {
                                let got = fast.enqueue(p.clone(), now).is_queued();
                                assert_eq!(got, twin.enqueue(p, now).is_queued());
                            } else {
                                let want = enqueue_then_dequeue(&mut twin, p.clone(), now);
                                let got = fast.admit(p, now);
                                assert_eq!(verdict(&got), verdict(&want), "seed {seed} ecn {ecn}");
                                seen[verdict(&got).0] += 1;
                            }
                        }
                        assert_eq!(fast.core.avg.to_bits(), twin.core.avg.to_bits());
                        assert_eq!(fast.core.count, twin.core.count);
                        assert_eq!(fast.core.rng.0, twin.core.rng.0);
                        assert_eq!(fast.core.idle_since, twin.core.idle_since, "seed {seed}");
                        assert_eq!((fast.bytes, fast.q.len()), (twin.bytes, twin.q.len()));
                    }
                    if rng.next_f64() < 0.5 {
                        now += (rng.next_f64() * rng.next_f64() * 2e10) as u64;
                    }
                }
            }
        }
        assert!(
            seen.iter().all(|&n| n > 1_000),
            "admissions sent, marked, overflowed, dropped: {seen:?}"
        );
    }

    /// Fill-and-hold: with the average persistently above max_th, every
    /// arrival is dropped; below min_th, none are.
    #[test]
    fn red_extremes() {
        let params = RedParams::new(1000, 2000);
        let mut q = RedQueue::new(1_000_000, params, 42, 1000);
        // Queue near empty: avg < min_th, no early drops.
        for _ in 0..50 {
            assert!(q.enqueue(pkt(100), 0).is_queued());
            q.dequeue(0);
        }

        // Force the average high by keeping ~10 KB buffered for many arrivals.
        let mut q = RedQueue::new(1_000_000, params, 42, 1000);
        let mut accepted = 0u32;
        let mut drops = Drops::default();
        for i in 0..20_000u64 {
            if offer(&mut q, pkt(972), i, &mut drops) {
                accepted += 1;
            }
            // Drain only enough to keep ~10 packets buffered.
            if q.len_packets() > 10 {
                q.dequeue(i);
            }
        }
        assert!(accepted > 0);
        assert!(q.core.avg > 2000.0, "avg should converge above max_th");
        assert!(red_drops(&drops) > 1000, "persistent congestion must drop");
    }

    /// Persistent congestion pushes the average past `max_th`: drops are
    /// then *forced*, and the climb there drops probabilistically first.
    #[test]
    fn forced_drops_are_distinguished_from_early() {
        let params = RedParams::new(1000, 2000);
        let mut q = RedQueue::new(1_000_000, params, 42, 1000);
        let mut drops = Drops::default();
        for i in 0..20_000u64 {
            offer(&mut q, pkt(972), i, &mut drops);
            if q.len_packets() > 10 {
                q.dequeue(i);
            }
        }
        let (early, forced) =
            (drops[DropCause::RedEarly.index()], drops[DropCause::RedForced.index()]);
        assert!(forced > 0, "avg above max_th must force drops");
        assert!(
            early > 0,
            "the climb through [min_th, max_th) must also drop probabilistically: \
             early {early} vs forced {forced}"
        );
    }

    #[test]
    fn red_is_deterministic_per_seed() {
        let params = RedParams::new(500, 1500);
        let run = |seed: u64| {
            let mut q = RedQueue::new(100_000, params, seed, 1000);
            let mut pattern = Vec::new();
            let mut drops = Drops::default();
            for i in 0..5000u64 {
                pattern.push(offer(&mut q, pkt(500), i * 10, &mut drops));
                if q.len_packets() > 3 {
                    q.dequeue(i * 10);
                }
            }
            (pattern, red_drops(&drops))
        };
        assert_eq!(run(7), run(7));
        let (_, d7) = run(7);
        let (_, d8) = run(8);
        // Different seeds may differ in exact pattern but both must drop.
        assert!(d7 > 0 && d8 > 0);
    }

    #[test]
    fn red_tail_drop_still_enforced() {
        let mut q = RedQueue::new(150, RedParams::new(10_000, 20_000), 1, 1000);
        assert!(q.enqueue(pkt(100), 0).is_queued());
        match q.enqueue(pkt(100), 0) {
            EnqueueOutcome::Dropped(_, cause) => assert_eq!(cause, DropCause::QueueOverflow),
            EnqueueOutcome::Queued => panic!("the hard cap must tail-drop"),
        }
    }

    #[test]
    fn idle_decay_resets_average() {
        let params = RedParams::new(1000, 2000);
        let mut q = RedQueue::new(1_000_000, params, 3, 1000);
        // Congest to raise avg.
        for i in 0..5000u64 {
            q.enqueue(pkt(972), i);
            if q.len_packets() > 10 {
                q.dequeue(i);
            }
        }
        let high = q.core.avg;
        assert!(high > 1000.0);
        while q.dequeue(5000).is_some() {}
        // Long idle: next enqueue must see a decayed average.
        assert!(q.enqueue(pkt(100), 50_000_000).is_queued());
        assert!(q.core.avg < high / 10.0, "avg {high} -> {}", q.core.avg);
    }

    /// With ECN enabled, ECT packets are marked instead of dropped; non-ECT
    /// packets in the same queue still take the drops.
    #[test]
    fn ecn_marks_ect_packets_instead_of_dropping() {
        let params = RedParams::new(1000, 2000);
        let mut q = RedQueue::new(1_000_000, params, 42, 1000).with_ecn();
        let mut ce_seen = 0u64;
        let mut drops = Drops::default();
        for i in 0..20_000u64 {
            let mut p = pkt(972);
            if i % 2 == 0 {
                p.outer_ipv4_mut().unwrap().ecn = netsim_net::ip::ecn::ECT0;
            }
            offer(&mut q, p, i, &mut drops);
            if q.len_packets() > 10 {
                if let Some(out) = q.dequeue(i) {
                    if out.outer_ipv4().unwrap().is_ce() {
                        ce_seen += 1;
                    }
                }
            }
        }
        assert!(ce_seen > 500, "marked packets are delivered with CE set: {ce_seen}");
        assert!(red_drops(&drops) > 500, "non-ECT packets still drop: {}", red_drops(&drops));
    }
}
