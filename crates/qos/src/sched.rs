//! Classful schedulers: strict priority, WFQ and DRR.
//!
//! These are the "consistent level of service for flows that are of higher
//! priority" machinery of the paper's §5. The backbone experiments attach a
//! [`PriorityScheduler`] over RED children to core links (EF in the
//! low-latency band, AF under RED, BE at the bottom). CBQ, which the paper
//! names as the customer-premises classifier/scheduler, is
//! [`crate::HierCbq`].

use std::collections::VecDeque;

use netsim_net::Pkt;
use netsim_obs::DropCause;

use crate::queue::{ClassOf, EnqueueOutcome, QueueDiscipline};
use crate::Nanos;

// ---------------------------------------------------------------------------
// Strict priority
// ---------------------------------------------------------------------------

/// Strict-priority scheduler over child disciplines.
///
/// `class_of` maps a packet to a band index; **higher band index = higher
/// priority** (matching MPLS EXP semantics where EXP 5 outranks EXP 0).
/// A band can be any child discipline, e.g. RED for the AF bands.
///
/// The scheduler counts the packets each band holds, so `dequeue` goes
/// straight past empty bands (an empty band's `dequeue` is never called)
/// and `len_packets` is O(1). The counts assume a child's backlog changes
/// only through `enqueue`, `dequeue` and `purge`, as for every discipline
/// in this crate.
pub struct PriorityScheduler {
    bands: Vec<Band>,
    class_of: ClassOf,
    /// Packets held by all bands together.
    len: usize,
}

struct Band {
    q: Box<dyn QueueDiscipline>,
    /// Packets this band holds.
    len: usize,
}

impl PriorityScheduler {
    /// Creates a scheduler from child bands (index = class = priority).
    pub fn new(bands: Vec<Box<dyn QueueDiscipline>>, class_of: ClassOf) -> Self {
        assert!(!bands.is_empty(), "priority scheduler needs at least one band");
        let bands = bands.into_iter().map(|q| Band { q, len: 0 }).collect();
        PriorityScheduler { bands, class_of, len: 0 }
    }
}

impl QueueDiscipline for PriorityScheduler {
    fn enqueue(&mut self, pkt: Pkt, now: Nanos) -> EnqueueOutcome {
        let i = (self.class_of)(&pkt).min(self.bands.len() - 1);
        let band = &mut self.bands[i];
        let out = band.q.enqueue(pkt, now);
        if out.is_queued() {
            band.len += 1;
            self.len += 1;
        }
        out
    }

    fn dequeue(&mut self, now: Nanos) -> Option<Pkt> {
        if self.len == 0 {
            return None;
        }
        for band in self.bands.iter_mut().rev().filter(|b| b.len > 0) {
            // A non-work-conserving band may hold packets and still refuse.
            if let Some(p) = band.q.dequeue(now) {
                band.len -= 1;
                self.len -= 1;
                return Some(p);
            }
        }
        None
    }

    fn len_packets(&self) -> usize {
        self.len
    }

    fn len_bytes(&self) -> usize {
        self.bands.iter().map(|b| b.q.len_bytes()).sum()
    }

    fn next_ready(&self, now: Nanos) -> Option<Nanos> {
        self.bands.iter().filter(|b| b.len > 0).filter_map(|b| b.q.next_ready(now)).min()
    }

    fn purge(&mut self) -> Vec<Pkt> {
        self.len = 0;
        self.bands
            .iter_mut()
            .flat_map(|b| {
                b.len = 0;
                b.q.purge()
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Weighted fair queueing
// ---------------------------------------------------------------------------

struct WfqClass {
    weight: u64,
    q: VecDeque<(u128, Pkt)>, // (virtual finish time, packet)
    bytes: usize,
    cap_bytes: usize,
    last_finish: u128,
}

/// Weighted fair queueing (a practical virtual-finish-time approximation).
///
/// Each class receives bandwidth proportional to its weight when backlogged;
/// unused capacity redistributes to the others (work conserving).
pub struct WfqScheduler {
    classes: Vec<WfqClass>,
    class_of: ClassOf,
    vtime: u128,
}

/// Fixed-point scale for virtual time arithmetic.
const VT_SCALE: u128 = 1 << 16;

impl WfqScheduler {
    /// Creates a WFQ scheduler; `weights[i]` serves class `i`, each class
    /// buffering at most `cap_bytes`.
    ///
    /// # Panics
    /// Panics if any weight is zero.
    pub fn new(weights: &[u64], cap_bytes: usize, class_of: ClassOf) -> Self {
        assert!(!weights.is_empty(), "WFQ needs at least one class");
        let classes = weights
            .iter()
            .map(|&w| {
                assert!(w > 0, "WFQ weights must be positive");
                WfqClass { weight: w, q: VecDeque::new(), bytes: 0, cap_bytes, last_finish: 0 }
            })
            .collect();
        WfqScheduler { classes, class_of, vtime: 0 }
    }
}

impl QueueDiscipline for WfqScheduler {
    fn enqueue(&mut self, pkt: Pkt, _now: Nanos) -> EnqueueOutcome {
        let ci = (self.class_of)(&pkt).min(self.classes.len() - 1);
        let c = &mut self.classes[ci];
        let sz = pkt.wire_len();
        if c.bytes + sz > c.cap_bytes {
            return EnqueueOutcome::Dropped(pkt, DropCause::QueueOverflow);
        }
        let start = self.vtime.max(c.last_finish);
        let finish = start + (sz as u128 * VT_SCALE) / c.weight as u128;
        c.last_finish = finish;
        c.bytes += sz;
        c.q.push_back((finish, pkt));
        EnqueueOutcome::Queued
    }

    fn dequeue(&mut self, _now: Nanos) -> Option<Pkt> {
        let ci = self
            .classes
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.q.front().map(|(f, _)| (*f, i)))
            .min()?
            .1;
        let c = &mut self.classes[ci];
        let (finish, pkt) = c.q.pop_front().expect("selected class is nonempty");
        c.bytes -= pkt.wire_len();
        self.vtime = self.vtime.max(finish);
        if self.classes.iter().all(|c| c.q.is_empty()) {
            // System idle: reset virtual time to keep tags small.
            self.vtime = 0;
            for c in &mut self.classes {
                c.last_finish = 0;
            }
        }
        Some(pkt)
    }

    fn len_packets(&self) -> usize {
        self.classes.iter().map(|c| c.q.len()).sum()
    }

    fn len_bytes(&self) -> usize {
        self.classes.iter().map(|c| c.bytes).sum()
    }

    fn purge(&mut self) -> Vec<Pkt> {
        let mut out = Vec::new();
        for c in &mut self.classes {
            out.extend(c.q.drain(..).map(|(_, p)| p));
            c.bytes = 0;
            c.last_finish = 0;
        }
        self.vtime = 0;
        out
    }
}

// ---------------------------------------------------------------------------
// Deficit round robin
// ---------------------------------------------------------------------------

struct DrrClass {
    quantum: usize,
    deficit: usize,
    q: VecDeque<Pkt>,
    bytes: usize,
    cap_bytes: usize,
    active: bool,
}

/// Deficit round robin (Shreedhar & Varghese): O(1) fair queueing with
/// byte-accurate shares set by per-class quanta.
pub struct DrrScheduler {
    classes: Vec<DrrClass>,
    active: VecDeque<usize>,
    class_of: ClassOf,
}

impl DrrScheduler {
    /// Creates a DRR scheduler with one quantum (in bytes) per class.
    ///
    /// # Panics
    /// Panics if any quantum is zero.
    pub fn new(quanta: &[usize], cap_bytes: usize, class_of: ClassOf) -> Self {
        assert!(!quanta.is_empty(), "DRR needs at least one class");
        let classes = quanta
            .iter()
            .map(|&q| {
                assert!(q > 0, "DRR quanta must be positive");
                DrrClass {
                    quantum: q,
                    deficit: 0,
                    q: VecDeque::new(),
                    bytes: 0,
                    cap_bytes,
                    active: false,
                }
            })
            .collect();
        DrrScheduler { classes, active: VecDeque::new(), class_of }
    }
}

impl QueueDiscipline for DrrScheduler {
    fn enqueue(&mut self, pkt: Pkt, _now: Nanos) -> EnqueueOutcome {
        let ci = (self.class_of)(&pkt).min(self.classes.len() - 1);
        let c = &mut self.classes[ci];
        let sz = pkt.wire_len();
        if c.bytes + sz > c.cap_bytes {
            return EnqueueOutcome::Dropped(pkt, DropCause::QueueOverflow);
        }
        c.bytes += sz;
        c.q.push_back(pkt);
        if !c.active {
            c.active = true;
            c.deficit = c.quantum;
            self.active.push_back(ci);
        }
        EnqueueOutcome::Queued
    }

    fn dequeue(&mut self, _now: Nanos) -> Option<Pkt> {
        loop {
            let &ci = self.active.front()?;
            let c = &mut self.classes[ci];
            match c.q.front() {
                None => {
                    c.active = false;
                    c.deficit = 0;
                    self.active.pop_front();
                }
                Some(head) if head.wire_len() <= c.deficit => {
                    let pkt = c.q.pop_front().expect("head exists");
                    let sz = pkt.wire_len();
                    c.deficit -= sz;
                    c.bytes -= sz;
                    if c.q.is_empty() {
                        c.active = false;
                        c.deficit = 0;
                        self.active.pop_front();
                    }
                    return Some(pkt);
                }
                Some(_) => {
                    // Head exceeds the deficit: bank a quantum and go to the
                    // back of the round.
                    c.deficit += c.quantum;
                    self.active.rotate_left(1);
                }
            }
        }
    }

    fn len_packets(&self) -> usize {
        self.classes.iter().map(|c| c.q.len()).sum()
    }

    fn len_bytes(&self) -> usize {
        self.classes.iter().map(|c| c.bytes).sum()
    }

    fn purge(&mut self) -> Vec<Pkt> {
        let mut out = Vec::new();
        for c in &mut self.classes {
            out.extend(c.q.drain(..));
            c.bytes = 0;
            c.active = false;
            c.deficit = 0;
        }
        self.active.clear();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::FifoQueue;
    use netsim_net::addr::ip;
    use netsim_net::Dscp;
    use netsim_net::Packet;

    fn pkt_class(class: u64, payload: usize) -> Pkt {
        let mut p = Packet::udp(ip("1.1.1.1"), ip("2.2.2.2"), 1, 2, Dscp::BE, payload);
        p.meta.flow = class;
        p.into()
    }

    fn by_flow() -> ClassOf {
        Box::new(|p: &Packet| p.meta.flow as usize)
    }

    // --- priority ---

    #[test]
    fn priority_serves_high_band_first() {
        let bands: Vec<Box<dyn QueueDiscipline>> =
            (0..3).map(|_| Box::new(FifoQueue::new(1 << 20)) as Box<dyn QueueDiscipline>).collect();
        let mut s = PriorityScheduler::new(bands, by_flow());
        s.enqueue(pkt_class(0, 10), 0);
        s.enqueue(pkt_class(2, 10), 0);
        s.enqueue(pkt_class(1, 10), 0);
        s.enqueue(pkt_class(2, 10), 0);
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue(0)).map(|p| p.meta.flow).collect();
        assert_eq!(order, vec![2, 2, 1, 0]);
    }

    #[test]
    fn priority_clamps_out_of_range_class() {
        let bands: Vec<Box<dyn QueueDiscipline>> =
            (0..2).map(|_| Box::new(FifoQueue::new(1 << 20)) as Box<dyn QueueDiscipline>).collect();
        let mut s = PriorityScheduler::new(bands, by_flow());
        assert!(s.enqueue(pkt_class(9, 10), 0).is_queued());
        assert_eq!(s.len_packets(), 1);
        assert!(s.dequeue(0).is_some());
    }

    #[test]
    fn priority_passes_child_drops_through() {
        let bands: Vec<Box<dyn QueueDiscipline>> =
            vec![Box::new(FifoQueue::new(50)), Box::new(FifoQueue::new(1 << 20))];
        let mut s = PriorityScheduler::new(bands, by_flow());
        // 128 B > 50 B cap: the band's own verdict comes back unchanged.
        match s.enqueue(pkt_class(0, 100), 0) {
            EnqueueOutcome::Dropped(_, cause) => assert_eq!(cause, DropCause::QueueOverflow),
            EnqueueOutcome::Queued => panic!("the full band must drop"),
        }
        assert!(s.is_empty());
    }

    /// A FIFO that fails the test when asked for a packet it does not have.
    struct NoEmptyDequeue(FifoQueue);

    impl QueueDiscipline for NoEmptyDequeue {
        fn enqueue(&mut self, pkt: Pkt, now: Nanos) -> EnqueueOutcome {
            self.0.enqueue(pkt, now)
        }
        fn dequeue(&mut self, now: Nanos) -> Option<Pkt> {
            assert!(!self.0.is_empty(), "dequeue called on an empty band");
            self.0.dequeue(now)
        }
        fn len_packets(&self) -> usize {
            self.0.len_packets()
        }
        fn len_bytes(&self) -> usize {
            self.0.len_bytes()
        }
        fn purge(&mut self) -> Vec<Pkt> {
            self.0.purge()
        }
    }

    #[test]
    fn priority_skips_empty_bands_across_purge() {
        let bands: Vec<Box<dyn QueueDiscipline>> = (0..3)
            .map(|_| Box::new(NoEmptyDequeue(FifoQueue::new(1 << 20))) as Box<dyn QueueDiscipline>)
            .collect();
        let mut s = PriorityScheduler::new(bands, by_flow());
        s.enqueue(pkt_class(2, 10), 0);
        s.enqueue(pkt_class(1, 10), 0);
        assert_eq!(s.purge().len(), 2);
        assert!(s.is_empty() && s.dequeue(0).is_none());
        s.enqueue(pkt_class(0, 10), 0);
        s.enqueue(pkt_class(2, 10), 0);
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue(0)).map(|p| p.meta.flow).collect();
        assert_eq!(order, vec![2, 0]);
        assert_eq!(s.len_packets(), 0);
    }

    // --- WFQ ---

    /// Two saturated classes with weights 3:1 must share throughput ~3:1.
    #[test]
    fn wfq_weighted_shares() {
        let mut s = WfqScheduler::new(&[3, 1], 1 << 20, by_flow());
        for _ in 0..600 {
            s.enqueue(pkt_class(0, 472), 0); // 500 B wire
            s.enqueue(pkt_class(1, 472), 0);
        }
        let mut sent = [0usize; 2];
        for _ in 0..400 {
            let p = s.dequeue(0).unwrap();
            sent[p.meta.flow as usize] += 1;
        }
        assert_eq!(sent[0] + sent[1], 400);
        let ratio = sent[0] as f64 / sent[1] as f64;
        assert!((2.5..=3.5).contains(&ratio), "ratio {ratio}");
    }

    /// With unequal packet sizes, shares must be fair in *bytes* not packets.
    #[test]
    fn wfq_is_byte_fair() {
        let mut s = WfqScheduler::new(&[1, 1], 1 << 22, by_flow());
        for _ in 0..2000 {
            s.enqueue(pkt_class(0, 1472), 0); // 1500 B wire
            s.enqueue(pkt_class(1, 72), 0); // 100 B wire
        }
        let mut bytes = [0usize; 2];
        for _ in 0..1000 {
            let p = s.dequeue(0).unwrap();
            bytes[p.meta.flow as usize] += p.wire_len();
        }
        let ratio = bytes[0] as f64 / bytes[1] as f64;
        assert!((0.8..=1.25).contains(&ratio), "byte ratio {ratio}");
    }

    #[test]
    fn wfq_empty_class_cedes_bandwidth() {
        let mut s = WfqScheduler::new(&[1, 1000], 1 << 20, by_flow());
        for _ in 0..10 {
            s.enqueue(pkt_class(0, 100), 0);
        }
        // Class 1 idle: class 0 gets everything (work conserving).
        for _ in 0..10 {
            assert_eq!(s.dequeue(0).unwrap().meta.flow, 0);
        }
        assert!(s.dequeue(0).is_none());
    }

    #[test]
    fn wfq_per_class_buffer_cap() {
        let mut s = WfqScheduler::new(&[1, 1], 150, by_flow());
        assert!(s.enqueue(pkt_class(0, 100), 0).is_queued());
        assert!(!s.enqueue(pkt_class(0, 100), 0).is_queued());
        // Other class has its own budget.
        assert!(s.enqueue(pkt_class(1, 100), 0).is_queued());
        assert_eq!(s.len_packets(), 2);
    }

    // --- DRR ---

    #[test]
    fn drr_quantum_shares() {
        let mut s = DrrScheduler::new(&[1500, 500], 1 << 22, by_flow());
        for _ in 0..3000 {
            s.enqueue(pkt_class(0, 472), 0);
            s.enqueue(pkt_class(1, 472), 0);
        }
        let mut bytes = [0usize; 2];
        for _ in 0..2000 {
            let p = s.dequeue(0).unwrap();
            bytes[p.meta.flow as usize] += p.wire_len();
        }
        let ratio = bytes[0] as f64 / bytes[1] as f64;
        assert!((2.5..=3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn drr_handles_quantum_smaller_than_packet() {
        // Quantum 100 < packet 500: class must bank deficits across rounds
        // and still get served; must not loop forever.
        let mut s = DrrScheduler::new(&[100, 100], 1 << 20, by_flow());
        s.enqueue(pkt_class(0, 472), 0);
        s.enqueue(pkt_class(1, 472), 0);
        assert!(s.dequeue(0).is_some());
        assert!(s.dequeue(0).is_some());
        assert!(s.dequeue(0).is_none());
    }

    #[test]
    fn drr_single_class_degenerates_to_fifo() {
        let mut s = DrrScheduler::new(&[1500], 1 << 20, Box::new(|_| 0));
        for seq in 0..5u64 {
            let mut p = pkt_class(0, 100);
            p.meta.seq = seq;
            s.enqueue(p, 0);
        }
        for seq in 0..5u64 {
            assert_eq!(s.dequeue(0).unwrap().meta.seq, seq);
        }
    }
}
