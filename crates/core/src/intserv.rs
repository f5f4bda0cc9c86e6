//! IntServ/RSVP per-flow reservations — the road the paper declines to
//! take (§2.2).
//!
//! "A number of activities, including work on the Resource Reservation
//! Protocol (RSVP) have been directed at adding QoS selectivity, but many
//! carriers and users are uncomfortable with individually selectable QoS
//! … users question the size of the administration task."
//!
//! This module implements the per-flow model faithfully enough to price
//! it: every flow reserves along its IGP path (PATH + RESV message pair
//! per hop), every router on the path holds per-flow soft state, and soft
//! state must be refreshed every 30 s. Experiment **S1** tabulates that
//! against DiffServ's fixed eight-classes-per-interface state.

use std::collections::HashMap;

use netsim_routing::{Igp, Topology};

/// RSVP soft-state refresh period (RFC 2205 default R = 30 s).
pub const REFRESH_PERIOD_SECS: f64 = 30.0;

/// Identifies an admitted flow reservation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FlowId(pub u64);

/// One per-flow reservation request.
#[derive(Clone, Debug)]
pub struct FlowRequest {
    /// Flow identity (stands in for the RSVP session + sender template).
    pub id: FlowId,
    /// Ingress node.
    pub src: usize,
    /// Egress node.
    pub dst: usize,
    /// Reserved rate, bits/s (the TSpec).
    pub rate_bps: u64,
}

/// Why a reservation failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RsvpError {
    /// No route between the endpoints.
    NoRoute,
    /// A link on the path lacks unreserved bandwidth (admission control).
    AdmissionFailed {
        /// The saturated link.
        link: usize,
    },
    /// Duplicate flow id.
    DuplicateFlow,
}

/// An IntServ domain: per-flow admission control and soft-state accounting
/// over a topology, routed by its converged IGP.
pub struct IntServDomain<'a> {
    topo: &'a Topology,
    igp: &'a Igp,
    reserved: Vec<u64>,
    /// Hop count of each admitted flow's path.
    flows: HashMap<FlowId, u64>,
    /// Per-node count of flow soft-state entries (the §2.2 metric).
    per_node_state: Vec<u64>,
    /// Signalling messages sent (PATH + RESV per hop per setup).
    pub messages: u64,
}

impl<'a> IntServDomain<'a> {
    /// Creates a domain over `topo`, whose flows follow `igp`'s paths.
    pub fn new(topo: &'a Topology, igp: &'a Igp) -> Self {
        IntServDomain {
            reserved: vec![0; topo.link_count()],
            per_node_state: vec![0; topo.node_count()],
            flows: HashMap::new(),
            messages: 0,
            topo,
            igp,
        }
    }

    /// Attempts to admit a per-flow reservation (PATH downstream, RESV
    /// upstream, admission checked per link).
    pub fn reserve(&mut self, req: FlowRequest) -> Result<(), RsvpError> {
        if self.flows.contains_key(&req.id) {
            return Err(RsvpError::DuplicateFlow);
        }
        let path = self.igp.path(req.src, req.dst).ok_or(RsvpError::NoRoute)?;
        let links: Vec<usize> = path
            .windows(2)
            .map(|w| self.topo.link_between(w[0], w[1]).expect("an IGP path follows links"))
            .collect();
        let hops = links.len() as u64;
        // PATH messages travel the whole path even if RESV then fails.
        self.messages += hops;
        for &l in &links {
            if self.reserved[l] + req.rate_bps > self.topo.link(l).2.capacity_bps {
                return Err(RsvpError::AdmissionFailed { link: l });
            }
        }
        self.messages += hops; // RESV back upstream
        for &l in &links {
            self.reserved[l] += req.rate_bps;
        }
        for &u in &path {
            self.per_node_state[u] += 1;
        }
        self.flows.insert(req.id, hops);
        Ok(())
    }

    /// The largest per-router soft-state table in the domain.
    pub fn max_node_state(&self) -> u64 {
        self.per_node_state.iter().copied().max().unwrap_or(0)
    }

    /// Soft-state refresh load: messages per second across the domain
    /// (each flow refreshes PATH and RESV over every hop each period).
    pub fn refresh_messages_per_sec(&self) -> f64 {
        let hop_msgs: u64 = self.flows.values().map(|hops| 2 * hops).sum();
        hop_msgs as f64 / REFRESH_PERIOD_SECS
    }
}

/// The DiffServ comparison point: classes of state per interface,
/// independent of flow count (the per-VPN/per-class model the paper's §2.2
/// recommends).
pub const DIFFSERV_CLASSES_PER_IFACE: u64 = 8;

/// DiffServ state at a node: classes × interfaces, flat in flows.
pub fn diffserv_node_state(topo: &Topology, node: usize) -> u64 {
    DIFFSERV_CLASSES_PER_IFACE * topo.degree(node) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_routing::LinkAttrs;

    impl IntServDomain<'_> {
        /// Admitted flows.
        fn flow_count(&self) -> usize {
            self.flows.len()
        }
    }

    fn line(n: usize, mbps: u64) -> Topology {
        let mut t = Topology::new(n);
        for i in 0..n - 1 {
            t.add_link(i, i + 1, LinkAttrs { cost: 1, capacity_bps: mbps * 1_000_000 });
        }
        t
    }

    #[test]
    fn reservations_accumulate_state_on_the_path() {
        let t = line(4, 100);
        let igp = Igp::converge(&t);
        let mut d = IntServDomain::new(&t, &igp);
        for i in 0..10 {
            d.reserve(FlowRequest { id: FlowId(i), src: 0, dst: 3, rate_bps: 1_000_000 }).unwrap();
        }
        assert_eq!(d.flow_count(), 10);
        // Every node on the path holds all 10 flows' state.
        assert_eq!(d.per_node_state, vec![10, 10, 10, 10]);
        assert_eq!(d.reserved[1], 10_000_000);
        // Setup cost: (PATH + RESV) × 3 hops × 10 flows.
        assert_eq!(d.messages, 60);
        // Refresh: 2 × 3 hops × 10 flows / 30 s = 2/s.
        assert!((d.refresh_messages_per_sec() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn admission_control_rejects_oversubscription() {
        let t = line(3, 10);
        let igp = Igp::converge(&t);
        let mut d = IntServDomain::new(&t, &igp);
        for i in 0..10 {
            d.reserve(FlowRequest { id: FlowId(i), src: 0, dst: 2, rate_bps: 1_000_000 }).unwrap();
        }
        let err = d
            .reserve(FlowRequest { id: FlowId(99), src: 0, dst: 2, rate_bps: 1_000_000 })
            .unwrap_err();
        assert!(matches!(err, RsvpError::AdmissionFailed { .. }));
        // State unchanged by the failed attempt.
        assert_eq!(d.flow_count(), 10);
        assert_eq!(d.per_node_state[1], 10);
    }

    #[test]
    fn duplicate_and_unroutable_flows_rejected() {
        let mut t = line(2, 10);
        let isolated = t.add_node();
        let igp = Igp::converge(&t);
        let mut d = IntServDomain::new(&t, &igp);
        d.reserve(FlowRequest { id: FlowId(1), src: 0, dst: 1, rate_bps: 1 }).unwrap();
        assert_eq!(
            d.reserve(FlowRequest { id: FlowId(1), src: 0, dst: 1, rate_bps: 1 }),
            Err(RsvpError::DuplicateFlow)
        );
        assert_eq!(
            d.reserve(FlowRequest { id: FlowId(2), src: 0, dst: isolated, rate_bps: 1 }),
            Err(RsvpError::NoRoute)
        );
    }

    #[test]
    fn diffserv_state_is_flat() {
        let t = line(4, 100);
        // Interior node: 2 interfaces × 8 classes.
        assert_eq!(diffserv_node_state(&t, 1), 16);
        assert_eq!(diffserv_node_state(&t, 0), 8);
    }
}
