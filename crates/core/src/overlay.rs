//! The overlay VPN baseline: one provisioned virtual circuit per site pair.
//!
//! This is the model the paper's §2.1 indicts: "A network with N points of
//! service would create N(N−1)/2 virtual circuits if each
//! service-point-to-partner flow were mapped to a virtual circuit … In a
//! network with 200 service points (a medium-sized VPN), about 20,000
//! virtual circuits would be required."
//!
//! The baseline is fully functional, not a formula. Its switches are the P
//! routers of a backbone [`BackboneBuilder`] builds without PEs, and a PVC
//! is a label path through them: each switch on the path gives it one label
//! from its platform label space and one LFIB entry, as a frame-relay
//! switch gives it one DLCI cross-connect (RFC 3034 carries MPLS labels in
//! the DLCI field; RFC 3031 §3.14 names both label spaces). Paths follow
//! the switches' own SPF views, and the edge maps destination prefixes onto
//! PVCs. Experiment T1 counts its circuits, per-switch table entries and
//! provisioning touches against the MPLS VPN's control plane.

use std::any::Any;

use netsim_mpls::lfib::{LabelOp, Nhlfe};
use netsim_net::{Layer, LpmTrie, MplsLabel, Pkt, Prefix};
use netsim_obs::DropCause;
use netsim_routing::Topology;
use netsim_sim::{Ctx, IfaceId, LinkConfig, NodeId, Sink};

use crate::network::{BackboneBuilder, ProviderNetwork};
use crate::router::RouterCounters;

/// The customer edge of the overlay model: maps destination prefixes onto
/// PVCs, pushing the circuit's label, and pops it on the way down.
pub struct VcEdge {
    /// Device name.
    pub name: String,
    /// Uplink interface to the switch (always 0).
    pub uplink: usize,
    /// Destination prefix → the PVC's label at the head switch.
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
            // Downstream: pop the circuit label and deliver into the site.
            if pkt.top_label().is_some() {
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
        let (dst, ttl) = (hdr.dst, hdr.ttl);
        if let Some(&out) = self.local.lookup(dst) {
            self.counters.forwarded += 1;
            ctx.send(IfaceId(out), pkt);
            return;
        }
        self.counters.lpm_lookups += 1;
        let Some(&label) = self.pvc_map.lookup(dst) else {
            return ctx.discard(pkt, DropCause::NoRoute);
        };
        // A circuit has no class field: EXP stays 0 whatever the DSCP.
        pkt.push_outer(Layer::Mpls(MplsLabel::new(label, 0, ttl)));
        self.counters.forwarded += 1;
        ctx.send(IfaceId(self.uplink), pkt);
    }

    fn name(&self) -> &str {
        &self.name
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
    /// The switched backbone: a provider network without PEs, whose P
    /// routers are the switches. Its simulator carries the edges too.
    pub pn: ProviderNetwork,
    sites: Vec<OverlaySite>,
    /// Provisioned PVCs (unidirectional count; a site pair costs two).
    pub vcs_provisioned: u64,
    /// Device-touch operations performed by provisioning.
    pub provisioning_ops: u64,
}

impl OverlayNetwork {
    /// Builds the switched backbone over `topo` (every node is a switch).
    pub fn build(topo: Topology) -> Self {
        let pn = BackboneBuilder::new(topo, Vec::new()).build();
        OverlayNetwork { pn, sites: Vec::new(), vcs_provisioned: 0, provisioning_ops: 0 }
    }

    /// Adds a site homed on switch `switch` with address block `prefix`.
    pub fn add_site(&mut self, switch: usize, prefix: Prefix) -> OverlaySiteId {
        let pn = &mut self.pn;
        let edge = pn.net.add_node(Box::new(VcEdge::new(format!("EDGE{}", self.sites.len()))));
        let cfg = LinkConfig::new(pn.access_rate_bps, pn.access_delay_ns);
        let (_, _, sw_if) = pn.net.connect(edge, pn.backbone_node(switch), cfg);
        let id = OverlaySiteId(self.sites.len());
        self.sites.push(OverlaySite { edge, switch, switch_iface: sw_if.0, prefix });
        id
    }

    /// Provisions the unidirectional PVC `a → b` along the switches' SPF
    /// views and maps `b`'s prefix onto it at `a`'s edge. Each switch on
    /// the path swaps the label it gave the PVC for the next switch's; the
    /// tail swaps onto one more label of its own toward `b`'s edge, so
    /// every link between the edges carries the circuit label. Returns the
    /// number of devices touched.
    fn provision_pvc(&mut self, a: OverlaySiteId, b: OverlaySiteId) -> u64 {
        let (sa, sb) = (&self.sites[a.0], &self.sites[b.0]);
        let (edge_a, dst_prefix, mut out_iface) = (sa.edge, sb.prefix, sb.switch_iface);
        let path = self.pn.igp_path(sa.switch, sb.switch);
        let tail = path[path.len() - 1];
        let mut label = self.pn.with_control(tail, |control, _, _| control.labels.allocate());
        for (i, &sw) in path.iter().enumerate().rev() {
            let nhlfe = Nhlfe { op: LabelOp::Swap(label), out_iface };
            label = self.pn.with_control(sw, |control, tables, _| {
                let in_label = control.labels.allocate();
                tables.lfib.install(in_label, nhlfe);
                in_label
            });
            if i > 0 {
                out_iface = self.pn.topo.iface_toward(path[i - 1], sw);
            }
        }
        self.pn.net.node_mut::<VcEdge>(edge_a).pvc_map.insert(dst_prefix, label);
        let touched = 1 + path.len() as u64; // the edge and every switch
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

    /// CE–CE routing adjacencies: one per PVC pair, read from the edges'
    /// PVC maps (an edge maps one PVC to each site it peers with).
    pub fn ce_adjacencies(&self) -> usize {
        let pvcs = self.sites.iter().map(|s| self.pn.net.node_ref::<VcEdge>(s.edge).pvc_map.len());
        pvcs.sum::<usize>() / 2
    }

    /// LFIB entries across all switches: one per switch per PVC.
    pub fn total_switch_state(&self) -> usize {
        (0..self.pn.topo.node_count()).map(|u| self.pn.backbone(u).0.iter().count()).sum()
    }

    /// The edge router of a site, where its hosts attach.
    pub fn edge(&self, site: OverlaySiteId) -> NodeId {
        self.sites[site.0].edge
    }

    /// Attaches a measuring sink for `host_prefix` at a site.
    pub fn attach_sink(&mut self, site: OverlaySiteId, host_prefix: Prefix) -> NodeId {
        let edge = self.sites[site.0].edge;
        let (sink, e_if) = self.pn.net.attach_host(edge, Box::new(Sink::new()));
        self.pn.net.node_mut::<VcEdge>(edge).local.insert(host_prefix, e_if.0);
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
        OverlayNetwork::build(topo)
    }

    #[test]
    fn pvc_carries_traffic_end_to_end() {
        let mut ov = line_overlay();
        let a = ov.add_site(0, pfx("10.1.0.0/16"));
        let b = ov.add_site(2, pfx("10.2.0.0/16"));
        ov.connect_sites(a, b);
        let sink = ov.attach_sink(b, pfx("10.2.0.0/16"));
        let cfg = SourceConfig::udp(1, ov.site_addr(a, 5), ov.site_addr(b, 9), 5000, 200);
        ov.pn.net.attach_source(ov.edge(a), Box::new(CbrSource::new(cfg, 1_000_000, Some(40))));
        ov.pn.net.run_until(SEC);
        let s = ov.pn.net.node_ref::<Sink>(sink);
        let f = s.flow(1).expect("the flow arrives");
        assert_eq!(f.rx_packets, 40);
        // Every packet takes the same uncontended path: host link, access
        // link, two backbone hops, access link, host link. On the four
        // links between the edges the 228-byte IP packet carries one
        // 4-byte circuit label.
        assert_eq!(f.latency.max(), 2_297_888);
        assert_eq!(f.latency.mean(), 2_297_888.0);
        assert_eq!(s.total_bytes, 40 * 228);
    }

    #[test]
    fn unprovisioned_pair_cannot_communicate() {
        let mut ov = line_overlay();
        let a = ov.add_site(0, pfx("10.1.0.0/16"));
        let b = ov.add_site(2, pfx("10.2.0.0/16"));
        // No PVC provisioned.
        let sink = ov.attach_sink(b, pfx("10.2.0.0/16"));
        let cfg = SourceConfig::udp(1, ov.site_addr(a, 5), ov.site_addr(b, 9), 5000, 200);
        ov.pn.net.attach_source(ov.edge(a), Box::new(CbrSource::new(cfg, 1_000_000, Some(10))));
        ov.pn.net.run_until(SEC);
        assert_eq!(ov.pn.net.node_ref::<Sink>(sink).total_packets, 0);
        let edge = ov.sites[a.0].edge;
        assert_eq!(ov.pn.recorder().node_total(edge.0, DropCause::NoRoute), 10);
    }

    #[test]
    fn full_mesh_circuit_count_matches_formula() {
        // Single switch, 10 sites: 45 circuit pairs (the paper's number).
        let topo = Topology::new(1);
        let mut ov = OverlayNetwork::build(topo);
        let sites: Vec<OverlaySiteId> = (0..10)
            .map(|i| ov.add_site(0, Prefix::new(netsim_net::Ip((10 << 24) | (i << 16)), 16)))
            .collect();
        ov.full_mesh(&sites);
        assert_eq!(ov.circuit_pairs(), 45);
        assert_eq!(ov.ce_adjacencies(), 45);
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
        // An EF marking reaches no field a switch reads: the circuit label
        // carries EXP 0 on every hop, and only the IP header keeps EF.
        let mut ov = line_overlay();
        let a = ov.add_site(0, pfx("10.1.0.0/16"));
        let b = ov.add_site(2, pfx("10.2.0.0/16"));
        ov.connect_sites(a, b);
        let sink = ov.attach_sink(b, pfx("10.2.0.0/16"));
        let cfg = SourceConfig::udp(1, ov.site_addr(a, 5), ov.site_addr(b, 9), 5000, 100)
            .with_dscp(Dscp::EF);
        ov.pn.net.enable_trace();
        ov.pn.net.attach_source(ov.edge(a), Box::new(CbrSource::new(cfg, 1_000_000, Some(5))));
        ov.pn.net.run_until(SEC);
        assert_eq!(ov.pn.net.node_ref::<Sink>(sink).total_packets, 5);
        let hops = ov.pn.net.trace().expect("tracing is on").path(1, 0);
        let devices: Vec<&str> = hops.iter().map(|(_, r)| r.device.as_str()).collect();
        assert_eq!(devices, ["", "EDGE0", "P0", "P1", "P2", "EDGE1"]);
        for (_, hop) in &hops[1..5] {
            assert_eq!((hop.labels.len(), hop.exp), (1, Some(0)), "at {}", hop.device);
        }
        assert_eq!(hops[4].1.dscp, Some(Dscp::EF), "EF leaves the tail switch");
    }
}
