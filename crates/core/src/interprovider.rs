//! Inter-provider VPN stitching (experiment Q4).
//!
//! The paper's §5: "This cross-network SLA capability allows the building
//! of VPNs using multiple carriers as necessary, an option not available
//! with most frame relay offerings." Two independent MPLS domains — each
//! with its own IGP and LDP — are joined at a pair of ASBRs that exchange
//! VPN routes over eBGP *with label swap* (the RFC 2547 "option B" model):
//!
//! ```text
//! CE_A─PE_A─…─ASBR_A ═ inter-AS link ═ ASBR_B─…─PE_B─CE_B
//!       push            swap X→Y          swap Y→Lb
//!       [tunA,X]                          push tunB
//! ```
//!
//! Because every relabeling preserves the EXP bits, the DSCP→EXP mapping
//! chosen at the ingress PE governs scheduling in *both* carriers — the
//! end-to-end SLA claim the experiment verifies.

use netsim_mpls::ldp::{Fec, LdpConfig, LdpDomain};
use netsim_mpls::lfib::{LabelOp, Nhlfe};
use netsim_mpls::Lfib;
use netsim_net::Prefix;
use netsim_obs::FlightRecorder;
use netsim_qos::{MarkingPolicy, Nanos};
use netsim_routing::{Igp, Topology};
use netsim_sim::{CbrSource, LinkConfig, Network, NodeId, Sink, SourceConfig};

use crate::network::{make_core_qdisc, CoreQos};
use crate::router::{CeRouter, CoreRouter, PeRouter};

/// Parameters of one member domain.
#[derive(Clone)]
pub struct DomainSpec {
    /// The domain's backbone topology.
    pub topo: Topology,
    /// Which topology node hosts the customer-facing PE.
    pub pe: usize,
    /// Which topology node is the AS border router.
    pub asbr: usize,
}

/// A two-carrier VPN: one site in each domain, stitched at the ASBRs.
pub struct InterProviderVpn {
    /// The simulator (both domains plus the inter-AS link).
    pub net: Network,
    /// PE node of domain B.
    pub pe_b: NodeId,
    /// CE node of the site in domain A.
    pub ce_a: NodeId,
    /// CE node of the site in domain B.
    pub ce_b: NodeId,
    /// Total control messages (LDP in both domains + BGP route exchanges).
    pub control_messages: u64,
}

impl InterProviderVpn {
    /// Builds the stitched network. Both domains use `qos` on their core
    /// links and `link_delay_ns` per hop; the inter-AS link is 100 Mb/s.
    pub fn build(
        a: DomainSpec,
        b: DomainSpec,
        prefix_a: Prefix,
        prefix_b: Prefix,
        qos: CoreQos,
        link_delay_ns: Nanos,
        marking: Option<MarkingPolicy>,
    ) -> Self {
        // Per-domain control planes. FEC 0 = the PE, FEC 1 = the ASBR.
        let igp_a = Igp::converge(&a.topo);
        let igp_b = Igp::converge(&b.topo);
        let adj_a = a.topo.adjacency_lists();
        let adj_b = b.topo.adjacency_lists();
        let fecs_a = [(Fec(0), a.pe), (Fec(1), a.asbr)];
        let fecs_b = [(Fec(0), b.pe), (Fec(1), b.asbr)];
        let nh_a = |u: usize, v: usize| igp_a.next_hop(u, v);
        let nh_b = |u: usize, v: usize| igp_b.next_hop(u, v);
        let mut ldp_a = LdpDomain::run(&adj_a, &fecs_a, &nh_a, LdpConfig::default());
        let mut ldp_b = LdpDomain::run(&adj_b, &fecs_b, &nh_b, LdpConfig::default());
        let mut control_messages = ldp_a.messages + ldp_b.messages;

        // VPN + stitching labels, allocated from each device's own space.
        let vpn_label_a = ldp_a.nodes[a.pe].space.allocate(); // PE_A's label for prefix_a
        let vpn_label_b = ldp_b.nodes[b.pe].space.allocate(); // PE_B's label for prefix_b
        let x_b = ldp_a.nodes[a.asbr].space.allocate(); // ASBR_A re-advertises prefix_b as X
        let y_b = ldp_b.nodes[b.asbr].space.allocate(); // ASBR_B re-advertises prefix_b as Y
        let x_a = ldp_b.nodes[b.asbr].space.allocate(); // ASBR_B re-advertises prefix_a
        let y_a = ldp_a.nodes[a.asbr].space.allocate(); // ASBR_A re-advertises prefix_a
                                                        // Route exchange: PE→ASBR (iBGP), ASBR↔ASBR (eBGP), ASBR→PE (iBGP),
                                                        // per prefix and direction.
        control_messages += 2 * 3;

        // Materialize both domains in one simulator, with one flight
        // recorder for the losses of both carriers.
        let mut net = Network::new();
        net.set_recorder(FlightRecorder::default());
        let n_a = a.topo.node_count();
        let mut ids = Vec::new();
        for u in 0..n_a {
            let lfib = std::mem::take(&mut ldp_a.nodes[u].lfib);
            ids.push(add_backbone_node(&mut net, u, u == a.pe, "A", lfib, &a.topo));
        }
        for u in 0..b.topo.node_count() {
            let lfib = std::mem::take(&mut ldp_b.nodes[u].lfib);
            ids.push(add_backbone_node(&mut net, u, u == b.pe, "B", lfib, &b.topo));
        }
        let id_a = |u: usize| ids[u];
        let id_b = |u: usize| ids[n_a + u];
        for l in 0..a.topo.link_count() {
            let (u, v, attrs) = a.topo.link(l);
            let cfg = LinkConfig::new(attrs.capacity_bps, link_delay_ns);
            let (qa, qb) =
                (make_core_qdisc(&qos, 2 * l as u64), make_core_qdisc(&qos, 2 * l as u64 + 1));
            net.connect_with_qdiscs(id_a(u), id_a(v), cfg, cfg, qa, qb);
        }
        for l in 0..b.topo.link_count() {
            let (u, v, attrs) = b.topo.link(l);
            let cfg = LinkConfig::new(attrs.capacity_bps, link_delay_ns);
            let (qa, qb) = (
                make_core_qdisc(&qos, 1000 + 2 * l as u64),
                make_core_qdisc(&qos, 1001 + 2 * l as u64),
            );
            net.connect_with_qdiscs(id_b(u), id_b(v), cfg, cfg, qa, qb);
        }
        // Inter-AS link: next free iface on both ASBRs (= their degree).
        let inter_cfg = LinkConfig::new(100_000_000, link_delay_ns);
        let (_l, asbr_a_if, asbr_b_if) = {
            let (l, ia, ib) = net.connect(id_a(a.asbr), id_b(b.asbr), inter_cfg);
            (l, ia, ib)
        };

        // Stitching ILM entries (EXP-preserving by construction).
        {
            // A→B: ASBR_A swaps X→Y onto the inter-AS link.
            let asbr_a = net.node_mut::<CoreRouter>(id_a(a.asbr));
            asbr_a.lfib.install(x_b, Nhlfe { op: LabelOp::Swap(y_b), out_iface: asbr_a_if.0 });
        }
        {
            // ASBR_B: Y → PE_B's VPN label under domain B's tunnel to PE_B.
            let tun = *ldp_b.nodes[b.asbr].ftn.get(&Fec(0)).expect("LSP ASBR_B→PE_B");
            let op = match tun.push {
                Some(t) => LabelOp::SwapPush { swap: vpn_label_b, push: t },
                None => LabelOp::Swap(vpn_label_b),
            };
            let asbr_b = net.node_mut::<CoreRouter>(id_b(b.asbr));
            asbr_b.lfib.install(y_b, Nhlfe { op, out_iface: tun.out_iface });
        }
        {
            // B→A mirror.
            let asbr_b = net.node_mut::<CoreRouter>(id_b(b.asbr));
            asbr_b.lfib.install(x_a, Nhlfe { op: LabelOp::Swap(y_a), out_iface: asbr_b_if.0 });
        }
        {
            let tun = *ldp_a.nodes[a.asbr].ftn.get(&Fec(0)).expect("LSP ASBR_A→PE_A");
            let op = match tun.push {
                Some(t) => LabelOp::SwapPush { swap: vpn_label_a, push: t },
                None => LabelOp::Swap(vpn_label_a),
            };
            let asbr_a = net.node_mut::<CoreRouter>(id_a(a.asbr));
            asbr_a.lfib.install(y_a, Nhlfe { op, out_iface: tun.out_iface });
        }

        // Customer attachment: CE_A on PE_A, CE_B on PE_B.
        let ce_a = net.add_node(Box::new(CeRouter::new("CE-A", marking.clone())));
        let ce_b = net.add_node(Box::new(CeRouter::new("CE-B", marking)));
        let access = LinkConfig::new(100_000_000, 100_000);
        let (_la, _cea_if, pea_if) = net.connect(ce_a, id_a(a.pe), access);
        let (_lb, _ceb_if, peb_if) = net.connect(ce_b, id_b(b.pe), access);

        // PE data planes.
        {
            let pe = net.node_mut::<PeRouter>(id_a(a.pe));
            let v = pe.add_vrf("carrier-vpn");
            let declared = pe.attach_customer_iface(v);
            assert_eq!(declared, pea_if.0);
            pe.install_local_route(v, prefix_a, pea_if.0);
            pe.install_vpn_label(vpn_label_a, v);
            // Remote: prefix_b via domain A's tunnel toward ASBR_A, label X.
            let tun = *ldp_a.nodes[a.pe].ftn.get(&Fec(1)).expect("LSP PE_A→ASBR_A");
            pe.vrfs[v].install_remote(prefix_b, 1, x_b, Some(tun));
        }
        {
            let pe = net.node_mut::<PeRouter>(id_b(b.pe));
            let v = pe.add_vrf("carrier-vpn");
            let declared = pe.attach_customer_iface(v);
            assert_eq!(declared, peb_if.0);
            pe.install_local_route(v, prefix_b, peb_if.0);
            pe.install_vpn_label(vpn_label_b, v);
            let tun = *ldp_b.nodes[b.pe].ftn.get(&Fec(1)).expect("LSP PE_B→ASBR_B");
            pe.vrfs[v].install_remote(prefix_a, 0, x_a, Some(tun));
        }

        InterProviderVpn { net, pe_b: id_b(b.pe), ce_a, ce_b, control_messages }
    }

    /// Attaches a sink behind the domain-B site.
    pub fn attach_sink_b(&mut self, host_prefix: Prefix) -> NodeId {
        let sink = self.net.add_node(Box::new(Sink::new()));
        let (_l, _s, ce_if) =
            self.net.connect(sink, self.ce_b, LinkConfig::new(1_000_000_000, 10_000));
        self.net.node_mut::<CeRouter>(self.ce_b).add_host_route(host_prefix, ce_if.0);
        sink
    }

    /// Attaches a CBR source behind the domain-A site and arms it.
    pub fn attach_cbr_source_a(
        &mut self,
        cfg: SourceConfig,
        interval: Nanos,
        count: Option<u64>,
    ) -> NodeId {
        let src = self.net.add_node(Box::new(CbrSource::new(cfg, interval, count)));
        self.net.connect(src, self.ce_a, LinkConfig::new(1_000_000_000, 10_000));
        self.net.arm_timer(src, 0, 0);
        src
    }
}

fn add_backbone_node(
    net: &mut Network,
    u: usize,
    is_pe: bool,
    domain: &str,
    lfib: Lfib,
    topo: &Topology,
) -> NodeId {
    if is_pe {
        net.add_node(Box::new(PeRouter::new(format!("PE-{domain}{u}"), lfib, topo.degree(u))))
    } else {
        net.add_node(Box::new(CoreRouter::new(format!("{domain}{u}"), lfib)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_net::addr::pfx;
    use netsim_routing::LinkAttrs;
    use netsim_sim::SEC;

    fn line(n: usize) -> Topology {
        let mut t = Topology::new(n);
        for i in 0..n - 1 {
            t.add_link(i, i + 1, LinkAttrs { cost: 1, capacity_bps: 100_000_000 });
        }
        t
    }

    fn build() -> InterProviderVpn {
        InterProviderVpn::build(
            DomainSpec { topo: line(3), pe: 0, asbr: 2 },
            DomainSpec { topo: line(2), pe: 1, asbr: 0 },
            pfx("10.1.0.0/16"),
            pfx("10.2.0.0/16"),
            CoreQos::BestEffort { cap_bytes: 256 * 1024 },
            1_000_000,
            None,
        )
    }

    #[test]
    fn cross_carrier_traffic_flows_both_ways() {
        let mut ip = build();
        let sink_b = ip.attach_sink_b(pfx("10.2.0.0/16"));
        let cfg =
            SourceConfig::udp(1, pfx("10.1.0.0/16").nth(5), pfx("10.2.0.0/16").nth(9), 5000, 200);
        ip.attach_cbr_source_a(cfg, 1_000_000, Some(25));
        ip.net.run_until(SEC);
        assert_eq!(ip.net.node_ref::<Sink>(sink_b).flow(1).map(|f| f.rx_packets), Some(25));
        assert!(ip.control_messages > 0);
        let rec = ip.net.recorder().expect("both carriers share one recorder");
        assert_eq!(rec.total_drops(), 0, "{:?}", rec.cause_rows());
    }

    #[test]
    fn exp_is_preserved_across_the_boundary() {
        let mut ip = InterProviderVpn::build(
            DomainSpec { topo: line(3), pe: 0, asbr: 2 },
            DomainSpec { topo: line(2), pe: 1, asbr: 0 },
            pfx("10.1.0.0/16"),
            pfx("10.2.0.0/16"),
            CoreQos::BestEffort { cap_bytes: 256 * 1024 },
            1_000_000,
            Some(MarkingPolicy::enterprise_default()),
        );
        ip.net.enable_trace();
        let sink_b = ip.attach_sink_b(pfx("10.2.0.0/16"));
        // Voice-port flow: the CE marks it EF, PE maps to EXP 5.
        let cfg =
            SourceConfig::udp(1, pfx("10.1.0.0/16").nth(5), pfx("10.2.0.0/16").nth(9), 16400, 160);
        ip.attach_cbr_source_a(cfg, 1_000_000, Some(3));
        ip.net.run_until(SEC);
        assert_eq!(ip.net.node_ref::<Sink>(sink_b).total_packets, 3);
        // Every labeled hop recorded EXP 5 — in both domains.
        let trace = ip.net.trace().expect("trace enabled");
        let labeled: Vec<_> = trace.flow(1).into_iter().filter(|r| r.exp.is_some()).collect();
        assert!(labeled.len() >= 3, "expected several labeled hops, got {}", labeled.len());
        assert!(
            labeled.iter().all(|r| r.exp == Some(5)),
            "EXP must survive ASBR relabeling: {labeled:?}"
        );
    }
}
