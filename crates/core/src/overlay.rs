//! The overlay VPN baseline: one provisioned virtual circuit per site pair.
//!
//! This is the model the paper's §2.1 indicts: "A network with N points of
//! service would create N(N−1)/2 virtual circuits if each
//! service-point-to-partner flow were mapped to a virtual circuit … In a
//! network with 200 service points (a medium-sized VPN), about 20,000
//! virtual circuits would be required."
//!
//! The baseline is fully functional, not a formula: frame-relay-like
//! switches forward on `(interface, VC id)`, PVCs are provisioned hop by
//! hop along IGP paths, and the edge maps destination prefixes onto PVCs.
//! Experiment T1 counts its circuits, per-switch table entries and
//! provisioning touches against the MPLS VPN's control plane.

use std::any::Any;
use std::collections::HashMap;

use netsim_net::{Layer, LpmTrie, Pkt, Prefix, VcHeader};
use netsim_obs::{DropCause, FlightRecorder};
use netsim_qos::Nanos;
use netsim_routing::{Igp, Topology};
use netsim_sim::{Ctx, IfaceId, LinkConfig, Network, NodeId, Sink};

use crate::router::RouterCounters;

/// A frame-relay-like switch: forwards on `(in iface, VC id)`.
pub struct VcSwitch {
    /// Device name.
    pub name: String,
    /// The circuit cross-connect table.
    pub table: HashMap<(usize, u32), (usize, u32)>,
    /// Forwarding counters.
    pub counters: RouterCounters,
}

impl VcSwitch {
    /// Creates an empty switch.
    pub fn new(name: impl Into<String>) -> Self {
        VcSwitch { name: name.into(), table: HashMap::new(), counters: RouterCounters::default() }
    }

    /// Installed cross-connect entries (state metric for T1).
    fn table_size(&self) -> usize {
        self.table.len()
    }
}

impl netsim_sim::Node for VcSwitch {
    fn on_packet(&mut self, iface: IfaceId, mut pkt: Pkt, ctx: &mut Ctx) {
        let Some(Layer::Vc(vc)) = pkt.outer() else {
            return ctx.discard(pkt, DropCause::NoRoute);
        };
        let de = vc.discard_eligible;
        let Some(&(out_iface, out_vc)) = self.table.get(&(iface.0, vc.vc_id)) else {
            return ctx.discard(pkt, DropCause::NoRoute);
        };
        if let Some(Layer::Vc(v)) = pkt.outer_mut() {
            *v = VcHeader::new(out_vc, de);
        }
        self.counters.label_ops += 1; // VC swap is the overlay's "label op"
        self.counters.forwarded += 1;
        ctx.send(IfaceId(out_iface), pkt);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The customer edge of the overlay model: maps destination prefixes onto
/// PVCs and (de)encapsulates the VC header.
pub struct VcEdge {
    /// Device name.
    pub name: String,
    /// Uplink interface to the switch (always 0).
    pub uplink: usize,
    /// Destination prefix → VC id on the uplink.
    pvc_map: LpmTrie<u32>,
    /// Host routes inside the site.
    pub local: LpmTrie<usize>,
    /// Forwarding counters.
    pub counters: RouterCounters,
}

impl VcEdge {
    /// Creates an edge with uplink interface 0.
    pub fn new(name: impl Into<String>) -> Self {
        VcEdge {
            name: name.into(),
            uplink: 0,
            pvc_map: LpmTrie::new(),
            local: LpmTrie::new(),
            counters: RouterCounters::default(),
        }
    }
}

impl netsim_sim::Node for VcEdge {
    fn on_packet(&mut self, iface: IfaceId, mut pkt: Pkt, ctx: &mut Ctx) {
        if iface.0 == self.uplink {
            // Downstream: strip the VC header and deliver into the site.
            if matches!(pkt.outer(), Some(Layer::Vc(_))) {
                pkt.pop_outer();
            }
            let Some(dst) = pkt.outer_ipv4().map(|h| h.dst) else {
                return ctx.discard(pkt, DropCause::NoRoute);
            };
            self.counters.lpm_lookups += 1;
            match self.local.lookup(dst) {
                Some(&out) => {
                    self.counters.forwarded += 1;
                    ctx.send(IfaceId(out), pkt);
                }
                None => ctx.discard(pkt, DropCause::NoRoute),
            }
            return;
        }
        // Upstream from a host: map to a PVC.
        let Some(hdr) = pkt.outer_ipv4_mut() else {
            return ctx.discard(pkt, DropCause::NoRoute);
        };
        if !hdr.decrement_ttl() {
            return ctx.discard(pkt, DropCause::Ttl);
        }
        let dst = hdr.dst;
        if let Some(&out) = self.local.lookup(dst) {
            self.counters.forwarded += 1;
            ctx.send(IfaceId(out), pkt);
            return;
        }
        self.counters.lpm_lookups += 1;
        let Some(&vc) = self.pvc_map.lookup(dst) else {
            return ctx.discard(pkt, DropCause::NoRoute);
        };
        pkt.push_outer(Layer::Vc(VcHeader::new(vc, false)));
        self.counters.forwarded += 1;
        ctx.send(IfaceId(self.uplink), pkt);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Handle to an overlay site.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OverlaySiteId(pub usize);

struct OverlaySite {
    edge: NodeId,
    switch: usize,
    switch_iface: usize,
    prefix: Prefix,
}

/// The overlay VPN provider: switches + provisioned PVCs.
pub struct OverlayNetwork {
    /// The simulator.
    pub net: Network,
    topo: Topology,
    igp: Igp,
    node_ids: Vec<NodeId>,
    sites: Vec<OverlaySite>,
    /// Next VC id per (node, iface).
    vc_alloc: HashMap<(usize, usize), u32>,
    /// Provisioned PVCs (unidirectional count; a site pair costs two).
    pub vcs_provisioned: u64,
    /// Device-touch operations performed by provisioning.
    pub provisioning_ops: u64,
    access_rate_bps: u64,
    access_delay_ns: Nanos,
}

impl OverlayNetwork {
    /// Builds the switch fabric over `topo` (every node is a switch).
    /// Backbone links inherit `LinkAttrs::capacity_bps` and use
    /// `link_delay_ns` propagation.
    pub fn build(topo: Topology, link_delay_ns: Nanos) -> Self {
        let igp = Igp::converge(&topo);
        let mut net = Network::new();
        net.set_recorder(FlightRecorder::default());
        let node_ids: Vec<NodeId> = (0..topo.node_count())
            .map(|u| net.add_node(Box::new(VcSwitch::new(format!("SW{u}")))))
            .collect();
        for l in 0..topo.link_count() {
            let (u, v, attrs) = topo.link(l);
            net.connect(
                node_ids[u],
                node_ids[v],
                LinkConfig::new(attrs.capacity_bps, link_delay_ns),
            );
        }
        OverlayNetwork {
            net,
            topo,
            igp,
            node_ids,
            sites: Vec::new(),
            vc_alloc: HashMap::new(),
            vcs_provisioned: 0,
            provisioning_ops: 0,
            access_rate_bps: 100_000_000,
            access_delay_ns: 100_000,
        }
    }

    /// Adds a site homed on switch `switch` with address block `prefix`.
    pub fn add_site(&mut self, switch: usize, prefix: Prefix) -> OverlaySiteId {
        let edge = self.net.add_node(Box::new(VcEdge::new(format!("EDGE{}", self.sites.len()))));
        let cfg = LinkConfig::new(self.access_rate_bps, self.access_delay_ns);
        let (_l, _e_if, sw_if) = self.net.connect(edge, self.node_ids[switch], cfg);
        let id = OverlaySiteId(self.sites.len());
        self.sites.push(OverlaySite { edge, switch, switch_iface: sw_if.0, prefix });
        id
    }

    fn alloc_vc(&mut self, node: usize, iface: usize) -> u32 {
        let next = self.vc_alloc.entry((node, iface)).or_insert(100);
        let vc = *next;
        *next += 1;
        vc
    }

    /// Provisions the unidirectional PVC `a → b` along the IGP path and
    /// maps `b`'s prefix onto it at `a`'s edge. Returns the number of
    /// devices touched.
    fn provision_pvc(&mut self, a: OverlaySiteId, b: OverlaySiteId) -> u64 {
        let (sa, sb) = (&self.sites[a.0], &self.sites[b.0]);
        let (swa, swb) = (sa.switch, sb.switch);
        let path = self.igp.path(swa, swb).expect("switches must be connected");
        let (edge_a, sa_iface, sb_iface, dst_prefix) =
            (sa.edge, sa.switch_iface, sb.switch_iface, sb.prefix);

        // VC id on the access link a→swa.
        let first_vc = self.alloc_vc(swa, sa_iface);
        let mut touched = 1u64; // the edge device
        self.net.node_mut::<VcEdge>(edge_a).pvc_map.insert(dst_prefix, first_vc);

        // Hop-by-hop cross-connects.
        let mut in_iface = sa_iface;
        let mut in_vc = first_vc;
        for (i, &sw) in path.iter().enumerate() {
            let (out_iface, out_vc) = if i + 1 < path.len() {
                let next = path[i + 1];
                let oi = self.topo.iface_toward(sw, next);
                let iv_in_at_next = self.topo.iface_toward(next, sw);
                let ov = self.alloc_vc(next, iv_in_at_next);
                (oi, ov)
            } else {
                // Last switch: hand off to b's edge on its access iface.
                (sb_iface, self.alloc_vc(sw, sb_iface))
            };
            self.net
                .node_mut::<VcSwitch>(self.node_ids[sw])
                .table
                .insert((in_iface, in_vc), (out_iface, out_vc));
            touched += 1;
            if i + 1 < path.len() {
                in_iface = self.topo.iface_toward(path[i + 1], sw);
            }
            in_vc = out_vc;
        }
        self.vcs_provisioned += 1;
        self.provisioning_ops += touched;
        touched
    }

    /// Provisions the bidirectional circuit pair between two sites.
    pub fn connect_sites(&mut self, a: OverlaySiteId, b: OverlaySiteId) {
        self.provision_pvc(a, b);
        self.provision_pvc(b, a);
    }

    /// Fully meshes a set of sites — the §2.1 cost driver.
    pub fn full_mesh(&mut self, sites: &[OverlaySiteId]) {
        for i in 0..sites.len() {
            for j in i + 1..sites.len() {
                self.connect_sites(sites[i], sites[j]);
            }
        }
    }

    /// Bidirectional circuit pairs provisioned so far.
    pub fn circuit_pairs(&self) -> u64 {
        self.vcs_provisioned / 2
    }

    /// Total cross-connect entries across all switches.
    pub fn total_switch_state(&self) -> usize {
        self.node_ids.iter().map(|&id| self.net.node_ref::<VcSwitch>(id).table_size()).sum()
    }

    /// The edge router of a site, where its hosts attach.
    pub fn edge(&self, site: OverlaySiteId) -> NodeId {
        self.sites[site.0].edge
    }

    /// Attaches a measuring sink for `host_prefix` at a site.
    pub fn attach_sink(&mut self, site: OverlaySiteId, host_prefix: Prefix) -> NodeId {
        let edge = self.sites[site.0].edge;
        let (sink, e_if) = self.net.attach_host(edge, Box::new(Sink::new()));
        self.net.node_mut::<VcEdge>(edge).local.insert(host_prefix, e_if.0);
        sink
    }

    /// A host address inside a site's prefix.
    pub fn site_addr(&self, site: OverlaySiteId, host: u32) -> netsim_net::Ip {
        self.sites[site.0].prefix.nth(host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_net::addr::pfx;
    use netsim_net::Dscp;
    use netsim_routing::LinkAttrs;
    use netsim_sim::{CbrSource, SourceConfig, SEC};

    fn line_overlay() -> OverlayNetwork {
        let mut topo = Topology::new(3);
        let attrs = LinkAttrs { cost: 1, capacity_bps: 100_000_000 };
        topo.add_link(0, 1, attrs);
        topo.add_link(1, 2, attrs);
        OverlayNetwork::build(topo, 1_000_000)
    }

    #[test]
    fn pvc_carries_traffic_end_to_end() {
        let mut ov = line_overlay();
        let a = ov.add_site(0, pfx("10.1.0.0/16"));
        let b = ov.add_site(2, pfx("10.2.0.0/16"));
        ov.connect_sites(a, b);
        let sink = ov.attach_sink(b, pfx("10.2.0.0/16"));
        let cfg = SourceConfig::udp(1, ov.site_addr(a, 5), ov.site_addr(b, 9), 5000, 200);
        ov.net.attach_source(ov.edge(a), Box::new(CbrSource::new(cfg, 1_000_000, Some(40))));
        ov.net.run_until(SEC);
        let s = ov.net.node_ref::<Sink>(sink);
        assert_eq!(s.flow(1).map(|f| f.rx_packets), Some(40));
    }

    #[test]
    fn unprovisioned_pair_cannot_communicate() {
        let mut ov = line_overlay();
        let a = ov.add_site(0, pfx("10.1.0.0/16"));
        let b = ov.add_site(2, pfx("10.2.0.0/16"));
        // No PVC provisioned.
        let sink = ov.attach_sink(b, pfx("10.2.0.0/16"));
        let cfg = SourceConfig::udp(1, ov.site_addr(a, 5), ov.site_addr(b, 9), 5000, 200);
        ov.net.attach_source(ov.edge(a), Box::new(CbrSource::new(cfg, 1_000_000, Some(10))));
        ov.net.run_until(SEC);
        assert_eq!(ov.net.node_ref::<Sink>(sink).total_packets, 0);
        let edge = ov.sites[a.0].edge;
        let rec = ov.net.recorder().expect("overlay attaches a recorder");
        assert_eq!(rec.node_total(edge.0, DropCause::NoRoute), 10);
    }

    #[test]
    fn full_mesh_circuit_count_matches_formula() {
        // Single switch, 10 sites: 45 circuit pairs (the paper's number).
        let topo = Topology::new(1);
        let mut ov = OverlayNetwork::build(topo, 1_000_000);
        let sites: Vec<OverlaySiteId> = (0..10)
            .map(|i| ov.add_site(0, Prefix::new(netsim_net::Ip((10 << 24) | (i << 16)), 16)))
            .collect();
        ov.full_mesh(&sites);
        assert_eq!(ov.circuit_pairs(), 45);
        // Each unidirectional PVC crosses the single switch once.
        assert_eq!(ov.total_switch_state(), 90);
    }

    #[test]
    fn multihop_pvc_installs_state_on_every_switch() {
        let mut ov = line_overlay();
        let a = ov.add_site(0, pfx("10.1.0.0/16"));
        let b = ov.add_site(2, pfx("10.2.0.0/16"));
        let touched = ov.provision_pvc(a, b);
        // Edge + three switches on the path 0-1-2.
        assert_eq!(touched, 4);
        assert_eq!(ov.total_switch_state(), 3);
    }

    #[test]
    fn overlay_has_no_class_differentiation_mechanism() {
        // Even with an EF marking, the overlay VC header carries only the
        // DE bit — assert the data plane doesn't alter or act on DSCP.
        let mut ov = line_overlay();
        let a = ov.add_site(0, pfx("10.1.0.0/16"));
        let b = ov.add_site(2, pfx("10.2.0.0/16"));
        ov.connect_sites(a, b);
        let sink = ov.attach_sink(b, pfx("10.2.0.0/16"));
        let cfg = SourceConfig::udp(1, ov.site_addr(a, 5), ov.site_addr(b, 9), 5000, 100)
            .with_dscp(Dscp::EF);
        ov.net.attach_source(ov.edge(a), Box::new(CbrSource::new(cfg, 1_000_000, Some(5))));
        ov.net.run_until(SEC);
        assert_eq!(ov.net.node_ref::<Sink>(sink).total_packets, 5);
    }
}
