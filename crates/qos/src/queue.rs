//! The queueing-discipline abstraction and the basic tail-drop FIFO.
//!
//! Every simulated link egress owns one `Box<dyn QueueDiscipline>`; the
//! simulator enqueues on arrival and dequeues when the transmitter goes
//! idle. All QoS experiments reduce to swapping the discipline attached to
//! the bottleneck link.

use netsim_net::{Packet, Pkt};
use netsim_obs::DropCause;

use crate::Nanos;

/// Result of an enqueue attempt.
#[derive(Debug)]
pub enum EnqueueOutcome {
    /// The packet was accepted.
    Queued,
    /// The packet was dropped; it is returned together with *why* so the
    /// caller can attribute the loss (flight recorder, per-cause stats).
    Dropped(Pkt, DropCause),
}

impl EnqueueOutcome {
    /// Whether the packet was accepted.
    pub fn is_queued(&self) -> bool {
        matches!(self, EnqueueOutcome::Queued)
    }
}

/// A queueing discipline: the scheduler + buffer attached to a link egress.
pub trait QueueDiscipline: Send {
    /// Offers a packet at time `now`.
    fn enqueue(&mut self, pkt: Pkt, now: Nanos) -> EnqueueOutcome;

    /// Takes the next packet to transmit at time `now`, if any.
    fn dequeue(&mut self, now: Nanos) -> Option<Pkt>;

    /// Packets currently buffered.
    fn len_packets(&self) -> usize;

    /// Bytes currently buffered.
    fn len_bytes(&self) -> usize;

    /// Whether the discipline holds no packets.
    fn is_empty(&self) -> bool {
        self.len_packets() == 0
    }

    /// Wire length of the packet the next `dequeue` would return, when the
    /// discipline can cheaply know it (simple FIFOs can; classful
    /// schedulers may return `None`). Nothing in the crates calls it: it
    /// stays only because perfbench's `Probe` wrapper implements it.
    fn peek_len(&self) -> Option<usize> {
        None
    }

    /// When the discipline could next hand out a packet.
    ///
    /// Work-conserving disciplines return `Some(now)` whenever they hold
    /// packets. Non-work-conserving ones (CBQ bounded classes) may return a
    /// later time: the link must retry `dequeue` then rather than going
    /// idle. `None` means "nothing buffered".
    fn next_ready(&self, now: Nanos) -> Option<Nanos> {
        if self.is_empty() {
            None
        } else {
            Some(now)
        }
    }

    /// Discards everything buffered, bypassing any scheduling or shaping
    /// gates, and returns the removed packets. The caller owns the loss
    /// accounting — e.g. a failing link flushes its egress buffer into
    /// `LinkStats.dropped` and records each packet with the flight
    /// recorder. Disciplines count no drops of their own: a refused packet
    /// leaves through [`EnqueueOutcome::Dropped`] with its cause, and a
    /// purged one is the caller's to count.
    fn purge(&mut self) -> Vec<Pkt>;
}

/// Maps a packet to a class index for classful disciplines (priority bands,
/// WFQ/DRR/CBQ classes).
pub type ClassOf = Box<dyn Fn(&Packet) -> usize + Send>;

/// Class selector: the EXP of the top label if labeled, else the IP
/// DSCP's default fold ([`netsim_net::Dscp::default_exp`]). Lets one
/// scheduler serve both labeled core traffic and unlabeled edge traffic.
pub fn class_by_exp_or_dscp() -> ClassOf {
    Box::new(|p: &Packet| {
        if let Some(l) = p.top_label() {
            usize::from(l.exp)
        } else {
            p.dscp().map_or(0, |d| usize::from(d.default_exp()))
        }
    })
}

/// A FIFO with tail drop, bounded by bytes (the common router buffer model).
pub struct FifoQueue {
    q: std::collections::VecDeque<Pkt>,
    bytes: usize,
    cap_bytes: usize,
}

impl FifoQueue {
    /// Creates a FIFO holding at most `cap_bytes` of packet data.
    pub fn new(cap_bytes: usize) -> Self {
        FifoQueue { q: std::collections::VecDeque::new(), bytes: 0, cap_bytes }
    }
}

impl QueueDiscipline for FifoQueue {
    fn enqueue(&mut self, pkt: Pkt, _now: Nanos) -> EnqueueOutcome {
        let sz = pkt.wire_len();
        if self.bytes + sz > self.cap_bytes {
            return EnqueueOutcome::Dropped(pkt, DropCause::QueueOverflow);
        }
        self.bytes += sz;
        self.q.push_back(pkt);
        EnqueueOutcome::Queued
    }

    fn dequeue(&mut self, _now: Nanos) -> Option<Pkt> {
        let pkt = self.q.pop_front()?;
        self.bytes -= pkt.wire_len();
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

    fn pkt(n: usize) -> Pkt {
        Packet::udp(ip("1.1.1.1"), ip("2.2.2.2"), 1, 2, Dscp::BE, n).into()
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = FifoQueue::new(100_000);
        for seq in 0..5u64 {
            let mut p = pkt(10);
            p.meta.seq = seq;
            assert!(q.enqueue(p, 0).is_queued());
        }
        for seq in 0..5u64 {
            assert_eq!(q.dequeue(0).unwrap().meta.seq, seq);
        }
        assert!(q.dequeue(0).is_none());
    }

    #[test]
    fn fifo_tail_drops_over_capacity() {
        // Each UDP packet of 72 B payload is 100 B on the wire.
        let mut q = FifoQueue::new(250);
        assert!(q.enqueue(pkt(72), 0).is_queued());
        assert!(q.enqueue(pkt(72), 0).is_queued());
        match q.enqueue(pkt(72), 0) {
            EnqueueOutcome::Dropped(p, cause) => {
                assert_eq!(p.wire_len(), 100);
                assert_eq!(cause, DropCause::QueueOverflow);
            }
            EnqueueOutcome::Queued => panic!("should have tail-dropped"),
        }
        assert_eq!(q.len_packets(), 2);
        assert_eq!(q.len_bytes(), 200);
    }

    #[test]
    fn byte_accounting_tracks_through_dequeue() {
        let mut q = FifoQueue::new(1000);
        q.enqueue(pkt(100), 0);
        q.enqueue(pkt(200), 0);
        assert_eq!(q.len_bytes(), 128 + 228);
        q.dequeue(0);
        assert_eq!(q.len_bytes(), 228);
        q.dequeue(0);
        assert_eq!(q.len_bytes(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn exp_or_dscp_selector_uses_default_map_when_unlabeled() {
        let sel = class_by_exp_or_dscp();
        let mut p = pkt(0);
        p.outer_ipv4_mut().unwrap().dscp = Dscp::EF;
        assert_eq!(sel(&p), 5);
        use netsim_net::{Layer, MplsLabel};
        p.push_outer(Layer::Mpls(MplsLabel::new(9, 3, 1)));
        assert_eq!(sel(&p), 3);
    }
}
