//! Random Early Detection and Weighted RED.
//!
//! RED (Floyd & Jacobson) keeps an exponentially weighted moving average of
//! the queue size and drops arriving packets with a probability that rises
//! between two thresholds — signalling congestion to responsive sources
//! before the buffer overflows. WRED runs several drop profiles over one
//! physical queue, selected per packet (here: by AF drop precedence or by
//! MPLS EXP), so that out-of-profile traffic is discarded first. This is the
//! AQM half of the paper's DiffServ-over-MPLS core behaviour.

use std::collections::VecDeque;

use netsim_net::Pkt;
use netsim_obs::DropCause;

use crate::queue::{ClassOf, EnqueueOutcome, QueueDiscipline};
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
    drops_early: u64,
    drops_forced: u64,
    drops_tail: u64,
    ce_marks: u64,
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
            drops_early: 0,
            drops_forced: 0,
            drops_tail: 0,
            ce_marks: 0,
        }
    }

    /// Enables ECN: an early "drop" of an ECN-capable packet becomes a CE
    /// mark and the packet is queued (hard tail drops still drop).
    pub fn with_ecn(mut self) -> Self {
        self.ecn = true;
        self
    }

    /// RED drops so far (probabilistic early drops *plus* forced drops at
    /// the max threshold; see [`RedQueue::drops_forced`] for the split).
    pub fn drops_early(&self) -> u64 {
        self.drops_early
    }

    /// The subset of RED drops that were *forced* — average queue at or
    /// above `max_th`, where RED degenerates to tail-drop behaviour.
    pub fn drops_forced(&self) -> u64 {
        self.drops_forced
    }

    /// CE marks applied instead of drops (ECN mode).
    pub fn ce_marks(&self) -> u64 {
        self.ce_marks
    }

    /// Hard tail drops so far.
    pub fn drops_tail(&self) -> u64 {
        self.drops_tail
    }

    /// Current average queue estimate in bytes.
    pub fn avg_bytes(&self) -> f64 {
        self.core.avg
    }
}

impl QueueDiscipline for RedQueue {
    fn enqueue(&mut self, mut pkt: Pkt, now: Nanos) -> EnqueueOutcome {
        self.core.update_avg(self.bytes, now);
        let sz = pkt.wire_len();
        if self.bytes + sz > self.cap_bytes {
            self.drops_tail += 1;
            return EnqueueOutcome::Dropped(pkt, DropCause::QueueOverflow);
        }
        if let Some(cause) = self.core.should_drop(&self.params) {
            let ect = self.ecn && pkt.outer_ipv4().is_some_and(netsim_net::Ipv4Header::is_ect);
            if ect {
                pkt.outer_ipv4_mut().expect("checked above").set_ce();
                self.ce_marks += 1;
                // fall through and queue the marked packet
            } else {
                self.drops_early += 1;
                if cause == DropCause::RedForced {
                    self.drops_forced += 1;
                }
                return EnqueueOutcome::Dropped(pkt, cause);
            }
        }
        self.bytes += sz;
        self.q.push_back(pkt);
        EnqueueOutcome::Queued
    }

    fn dequeue(&mut self, now: Nanos) -> Option<Pkt> {
        let pkt = self.q.pop_front()?;
        self.bytes -= pkt.wire_len();
        if self.q.is_empty() {
            self.core.note_empty(now);
        }
        Some(pkt)
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

/// Weighted RED: one physical FIFO, several drop profiles selected per
/// packet by a class function (e.g. AF drop precedence, or "discard
/// eligible" for the overlay baseline). Classes with lower thresholds are
/// culled earlier under congestion.
pub struct WredQueue {
    q: VecDeque<Pkt>,
    bytes: usize,
    cap_bytes: usize,
    profiles: Vec<RedParams>,
    class_of: ClassOf,
    core: RedCore,
    drops_early: Vec<u64>,
    drops_tail: u64,
}

impl WredQueue {
    /// Creates a WRED queue. `profiles[class_of(pkt)]` selects the drop
    /// curve; out-of-range classes use the last profile.
    pub fn new(
        cap_bytes: usize,
        profiles: Vec<RedParams>,
        class_of: ClassOf,
        seed: u64,
        mean_pkt_time_ns: Nanos,
    ) -> Self {
        assert!(!profiles.is_empty(), "WRED needs at least one profile");
        let n = profiles.len();
        WredQueue {
            q: VecDeque::new(),
            bytes: 0,
            cap_bytes,
            profiles,
            class_of,
            core: RedCore::new(seed, mean_pkt_time_ns),
            drops_early: vec![0; n],
            drops_tail: 0,
        }
    }

    /// A standard three-precedence AF profile set over `cap_bytes`:
    /// precedence 0 (in-profile) tolerates the deepest queue; precedence 2
    /// is dropped earliest.
    pub fn af_profiles(cap_bytes: usize) -> Vec<RedParams> {
        vec![
            RedParams::new(cap_bytes * 5 / 10, cap_bytes * 9 / 10).with_max_p(0.05),
            RedParams::new(cap_bytes * 3 / 10, cap_bytes * 7 / 10).with_max_p(0.1),
            RedParams::new(cap_bytes / 10, cap_bytes * 4 / 10).with_max_p(0.2),
        ]
    }

    /// Early drops per class.
    pub fn drops_early(&self) -> &[u64] {
        &self.drops_early
    }

    /// Hard tail drops.
    pub fn drops_tail(&self) -> u64 {
        self.drops_tail
    }
}

impl QueueDiscipline for WredQueue {
    fn enqueue(&mut self, pkt: Pkt, now: Nanos) -> EnqueueOutcome {
        self.core.update_avg(self.bytes, now);
        let sz = pkt.wire_len();
        if self.bytes + sz > self.cap_bytes {
            self.drops_tail += 1;
            return EnqueueOutcome::Dropped(pkt, DropCause::QueueOverflow);
        }
        let class = (self.class_of)(&pkt).min(self.profiles.len() - 1);
        let params = self.profiles[class];
        if let Some(cause) = self.core.should_drop(&params) {
            self.drops_early[class] += 1;
            return EnqueueOutcome::Dropped(pkt, cause);
        }
        self.bytes += sz;
        self.q.push_back(pkt);
        EnqueueOutcome::Queued
    }

    fn dequeue(&mut self, now: Nanos) -> Option<Pkt> {
        let pkt = self.q.pop_front()?;
        self.bytes -= pkt.wire_len();
        if self.q.is_empty() {
            self.core.note_empty(now);
        }
        Some(pkt)
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
        assert_eq!(q.drops_early(), 0);

        // Force the average high by keeping ~10 KB buffered for many arrivals.
        let mut q = RedQueue::new(1_000_000, params, 42, 1000);
        let mut accepted = 0u32;
        for i in 0..20_000u64 {
            if q.enqueue(pkt(972), i).is_queued() {
                accepted += 1;
            }
            // Drain only enough to keep ~10 packets buffered.
            if q.len_packets() > 10 {
                q.dequeue(i);
            }
        }
        assert!(accepted > 0);
        assert!(q.avg_bytes() > 2000.0, "avg should converge above max_th");
        assert!(q.drops_early() > 1000, "persistent congestion must drop");
    }

    /// Persistent congestion pushes the average past `max_th`: most drops
    /// are then *forced*, and the forced tally is a subset of the total.
    #[test]
    fn forced_drops_are_distinguished_from_early() {
        let params = RedParams::new(1000, 2000);
        let mut q = RedQueue::new(1_000_000, params, 42, 1000);
        for i in 0..20_000u64 {
            q.enqueue(pkt(972), i);
            if q.len_packets() > 10 {
                q.dequeue(i);
            }
        }
        assert!(q.drops_forced() > 0, "avg above max_th must force drops");
        assert!(
            q.drops_early() > q.drops_forced(),
            "the climb through [min_th, max_th) must also drop probabilistically: \
             total {} vs forced {}",
            q.drops_early(),
            q.drops_forced()
        );
    }

    #[test]
    fn red_is_deterministic_per_seed() {
        let params = RedParams::new(500, 1500);
        let run = |seed: u64| {
            let mut q = RedQueue::new(100_000, params, seed, 1000);
            let mut pattern = Vec::new();
            for i in 0..5000u64 {
                pattern.push(q.enqueue(pkt(500), i * 10).is_queued());
                if q.len_packets() > 3 {
                    q.dequeue(i * 10);
                }
            }
            (pattern, q.drops_early())
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
        assert!(!q.enqueue(pkt(100), 0).is_queued());
        assert_eq!(q.drops_tail(), 1);
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
        let high = q.avg_bytes();
        assert!(high > 1000.0);
        while q.dequeue(5000).is_some() {}
        // Long idle: next enqueue must see a decayed average.
        assert!(q.enqueue(pkt(100), 50_000_000).is_queued());
        assert!(q.avg_bytes() < high / 10.0, "avg {high} -> {}", q.avg_bytes());
    }

    /// With ECN enabled, ECT packets are marked instead of dropped; non-ECT
    /// packets in the same queue still take the drops.
    #[test]
    fn ecn_marks_ect_packets_instead_of_dropping() {
        let params = RedParams::new(1000, 2000);
        let mut q = RedQueue::new(1_000_000, params, 42, 1000).with_ecn();
        let mut ce_seen = 0u64;
        for i in 0..20_000u64 {
            let mut p = pkt(972);
            if i % 2 == 0 {
                p.outer_ipv4_mut().unwrap().ecn = netsim_net::ip::ecn::ECT0;
            }
            q.enqueue(p, i);
            if q.len_packets() > 10 {
                if let Some(out) = q.dequeue(i) {
                    if out.outer_ipv4().unwrap().is_ce() {
                        ce_seen += 1;
                    }
                }
            }
        }
        assert!(q.ce_marks() > 500, "marks {}", q.ce_marks());
        assert!(q.drops_early() > 500, "non-ECT packets still drop: {}", q.drops_early());
        assert!(ce_seen > 0, "marked packets are delivered with CE set");
    }

    /// WRED must discriminate: under identical offered load, the
    /// high-precedence (class 2) profile drops far more than class 0.
    #[test]
    fn wred_orders_drop_rates_by_precedence() {
        let profiles = WredQueue::af_profiles(10_000);
        let class_of: ClassOf = Box::new(|p: &Packet| usize::from(p.meta.flow as u8 % 3));
        let mut q = WredQueue::new(10_000, profiles, class_of, 11, 1000);
        for i in 0..30_000u64 {
            let mut p = pkt(472);
            p.meta.flow = i % 3;
            q.enqueue(p, i * 5);
            if q.len_bytes() > 5_000 {
                q.dequeue(i * 5);
            }
        }
        let d = q.drops_early();
        assert!(d[2] > d[1], "class2 {} should exceed class1 {}", d[2], d[1]);
        assert!(d[1] > d[0], "class1 {} should exceed class0 {}", d[1], d[0]);
    }

    #[test]
    #[should_panic(expected = "at least one profile")]
    fn wred_requires_profiles() {
        WredQueue::new(100, vec![], Box::new(|_| 0), 1, 1);
    }
}
