//! The drop-cause flight recorder.

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use crate::cause::DropCause;

/// One recorded drop: when, which flow, which sequence number, and why.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DropRecord {
    /// Simulation time of the drop, ns.
    pub at: u64,
    /// Flow id of the dropped packet (0 for unattributed packets).
    pub flow: u64,
    /// Per-flow sequence number of the dropped packet.
    pub seq: u64,
    /// Why the packet was dropped.
    pub cause: DropCause,
}

struct Inner {
    cap: usize,
    ring: VecDeque<DropRecord>,
    totals: [u64; DropCause::COUNT],
    /// Per-flow per-cause tallies. A `BTreeMap` keeps snapshot iteration
    /// deterministic across runs.
    by_flow: BTreeMap<u64, [u64; DropCause::COUNT]>,
    /// Packets terminated *successfully* at a router's local plane
    /// (control traffic, PHP egress absorption) — not drops, but tracked
    /// per flow so conservation closes: sent = delivered + drops + absorbed.
    absorbed: BTreeMap<u64, u64>,
    /// Per-node tallies of the drops and absorptions a node handler
    /// reported, indexed by node id (grown on first report).
    by_node: Vec<NodeTally>,
}

/// What one node's handler terminated: drops by cause, and absorptions.
#[derive(Clone, Copy, Default)]
struct NodeTally {
    drops: [u64; DropCause::COUNT],
    absorbed: u64,
}

impl Inner {
    fn push(&mut self, rec: DropRecord) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(rec);
        self.totals[rec.cause.index()] += 1;
        self.by_flow.entry(rec.flow).or_insert([0; DropCause::COUNT])[rec.cause.index()] += 1;
    }

    fn node_mut(&mut self, node: usize) -> &mut NodeTally {
        if node >= self.by_node.len() {
            self.by_node.resize(node + 1, NodeTally::default());
        }
        &mut self.by_node[node]
    }

    fn node(&self, node: usize) -> NodeTally {
        self.by_node.get(node).copied().unwrap_or_default()
    }
}

/// A cloneable, shareable drop recorder.
///
/// Cloning shares the underlying state: the simulation engine writes
/// through its handle, and the test harness or an experiment reads the
/// tallies through a clone. Drops a node
/// handler reports are also tallied against that node, so per-device loss
/// comes from the same ledger as the per-cause and per-flow totals.
/// The ring keeps only the most recent `cap` records; the per-cause,
/// per-flow and per-node totals are exact forever.
#[allow(clippy::disallowed_types)] // perfbench's ledger `replay` records through `&self`
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Rc<std::cell::RefCell<Inner>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("FlightRecorder")
            .field("cap", &inner.cap)
            .field("recent", &inner.ring.len())
            .field("totals", &inner.totals)
            .finish()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(256)
    }
}

impl FlightRecorder {
    /// Creates a recorder keeping the most recent `cap` drop records.
    #[allow(clippy::disallowed_types)] // see the struct
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            inner: Rc::new(std::cell::RefCell::new(Inner {
                cap: cap.max(1),
                ring: VecDeque::with_capacity(cap.max(1)),
                totals: [0; DropCause::COUNT],
                by_flow: BTreeMap::new(),
                absorbed: BTreeMap::new(),
                by_node: Vec::new(),
            })),
        }
    }

    /// Records one drop that no node handler reported (a link dropped it).
    pub fn record(&self, at: u64, flow: u64, seq: u64, cause: DropCause) {
        self.inner.borrow_mut().push(DropRecord { at, flow, seq, cause });
    }

    /// Records one drop reported by the handler of node `node`.
    pub fn record_at(&self, node: usize, at: u64, flow: u64, seq: u64, cause: DropCause) {
        let mut inner = self.inner.borrow_mut();
        inner.push(DropRecord { at, flow, seq, cause });
        inner.node_mut(node).drops[cause.index()] += 1;
    }

    /// Records a packet of `flow` absorbed (delivered locally) at node
    /// `node` — a legitimate termination, tallied separately from drops.
    pub fn record_absorbed(&self, node: usize, flow: u64) {
        let mut inner = self.inner.borrow_mut();
        *inner.absorbed.entry(flow).or_insert(0) += 1;
        inner.node_mut(node).absorbed += 1;
    }

    /// Total drops recorded for `cause`.
    pub fn total(&self, cause: DropCause) -> u64 {
        self.inner.borrow().totals[cause.index()]
    }

    /// Per-cause totals, indexed by [`DropCause::index`].
    pub fn totals(&self) -> [u64; DropCause::COUNT] {
        self.inner.borrow().totals
    }

    /// Sum of drops over every cause.
    pub fn total_drops(&self) -> u64 {
        self.inner.borrow().totals.iter().sum()
    }

    /// Per-cause drop counts for one flow.
    pub fn flow_causes(&self, flow: u64) -> [u64; DropCause::COUNT] {
        self.inner.borrow().by_flow.get(&flow).copied().unwrap_or([0; DropCause::COUNT])
    }

    /// Total drops for one flow.
    pub fn flow_drops(&self, flow: u64) -> u64 {
        self.flow_causes(flow).iter().sum()
    }

    /// Drops for `cause` reported by the handler of node `node`.
    pub fn node_total(&self, node: usize, cause: DropCause) -> u64 {
        self.inner.borrow().node(node).drops[cause.index()]
    }

    /// Packets absorbed at node `node`.
    pub fn node_absorbed(&self, node: usize) -> u64 {
        self.inner.borrow().node(node).absorbed
    }

    /// Packets of `flow` absorbed at a local plane.
    pub fn absorbed_of(&self, flow: u64) -> u64 {
        self.inner.borrow().absorbed.get(&flow).copied().unwrap_or(0)
    }

    /// Total absorbed packets over all flows.
    pub fn absorbed_total(&self) -> u64 {
        self.inner.borrow().absorbed.values().sum()
    }

    /// The most recent drop records, oldest first (bounded by the ring
    /// capacity).
    pub fn recent(&self) -> Vec<DropRecord> {
        self.inner.borrow().ring.iter().copied().collect()
    }

    /// `(cause name, total)` rows for every cause with a nonzero total.
    pub fn cause_rows(&self) -> Vec<(&'static str, u64)> {
        let totals = self.totals();
        DropCause::ALL
            .iter()
            .filter_map(|c| {
                let t = totals[c.index()];
                (t > 0).then_some((c.as_str(), t))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = FlightRecorder::new(8);
        let b = a.clone();
        a.record(1, 42, 0, DropCause::Ttl);
        b.record(2, 42, 1, DropCause::NoRoute);
        assert_eq!(a.total_drops(), 2);
        assert_eq!(b.flow_drops(42), 2);
        assert_eq!(a.flow_causes(42)[DropCause::Ttl.index()], 1);
    }

    #[test]
    fn ring_is_bounded_but_totals_are_exact() {
        let r = FlightRecorder::new(4);
        for i in 0..10 {
            r.record(i, 7, i, DropCause::QueueOverflow);
        }
        assert_eq!(r.recent().len(), 4, "ring keeps only the most recent");
        assert_eq!(r.recent()[0].at, 6, "oldest surviving record");
        assert_eq!(r.total(DropCause::QueueOverflow), 10, "totals are exact");
        assert_eq!(r.flow_drops(7), 10);
    }

    #[test]
    fn absorbed_is_not_a_drop() {
        let r = FlightRecorder::new(4);
        r.record_absorbed(3, 5);
        r.record_absorbed(3, 5);
        assert_eq!(r.absorbed_of(5), 2);
        assert_eq!(r.absorbed_total(), 2);
        assert_eq!(r.node_absorbed(3), 2);
        assert_eq!(r.total_drops(), 0);
    }

    #[test]
    fn node_drops_are_tallied_per_node_and_overall() {
        let r = FlightRecorder::new(4);
        r.record_at(2, 0, 9, 0, DropCause::Ttl);
        r.record_at(2, 1, 9, 1, DropCause::NoRoute);
        r.record_at(0, 2, 9, 2, DropCause::Ttl);
        r.record(3, 9, 3, DropCause::QueueOverflow);
        assert_eq!(r.node_total(2, DropCause::Ttl), 1);
        assert_eq!(r.node_total(2, DropCause::NoRoute), 1);
        assert_eq!(r.node_total(0, DropCause::Ttl), 1);
        assert_eq!(r.node_total(1, DropCause::Ttl), 0, "a silent node has no drops");
        assert_eq!(r.node_total(99, DropCause::Ttl), 0, "an unseen node has no drops");
        assert_eq!(r.total(DropCause::Ttl), 2);
        assert_eq!(r.flow_drops(9), 4, "node and link drops share the per-flow ledger");
    }

    #[test]
    fn cause_rows_skip_zeroes() {
        let r = FlightRecorder::new(4);
        r.record(0, 1, 0, DropCause::RedForced);
        assert_eq!(r.cause_rows(), vec![("red_forced", 1)]);
    }
}
