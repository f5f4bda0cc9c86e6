//! Cross-crate integration tests: whole-architecture behaviours that no
//! single crate can verify alone.

use mplsvpn::net::Prefix;
use mplsvpn::routing::{LinkAttrs, Topology};
use mplsvpn::sim::{Sink, SourceConfig, MSEC, SEC};
use mplsvpn::vpn::network::DsSched;
use mplsvpn::vpn::{BackboneBuilder, CoreQos, HopOp, ProviderNetwork};

fn pfx(s: &str) -> Prefix {
    s.parse().unwrap()
}

fn national() -> (Topology, Vec<usize>) {
    // 4-node core ring + 4 PEs.
    let mut t = Topology::new(4);
    let attrs = LinkAttrs { cost: 1, capacity_bps: 622_000_000 };
    for i in 0..4 {
        t.add_link(i, (i + 1) % 4, attrs);
    }
    let pes: Vec<usize> = (0..4)
        .map(|k| {
            let pe = t.add_node();
            t.add_link(pe, k, attrs);
            pe
        })
        .collect();
    (t, pes)
}

/// Any-to-any connectivity: a 4-site VPN over a ring backbone delivers
/// every ordered site pair's traffic.
#[test]
fn full_mesh_connectivity_four_sites() {
    let (t, pes) = national();
    let mut pn = BackboneBuilder::new(t, pes).build();
    let vpn = pn.new_vpn("acme");
    let blocks = ["10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16", "10.4.0.0/16"];
    let sites: Vec<_> = (0..4).map(|k| pn.add_site(vpn, k, pfx(blocks[k]), None)).collect();
    let sinks: Vec<_> = (0..4).map(|k| pn.attach_sink(sites[k], pfx(blocks[k]))).collect();

    let mut flow = 0u64;
    let mut expected = Vec::new();
    for i in 0..4 {
        for j in 0..4 {
            if i == j {
                continue;
            }
            flow += 1;
            let cfg = SourceConfig::udp(
                flow,
                pn.site_addr(sites[i], 10),
                pn.site_addr(sites[j], 20),
                5000,
                200,
            );
            pn.attach_cbr_source(sites[i], cfg, MSEC, Some(25));
            expected.push((j, flow));
        }
    }
    pn.run_for(2 * SEC);
    for (dst_site, flow) in expected {
        let s = pn.net.node_ref::<Sink>(sinks[dst_site]);
        assert_eq!(
            s.flow(flow).map(|f| f.rx_packets),
            Some(25),
            "flow {flow} to site {dst_site} incomplete"
        );
    }
}

fn congested_run(seed: u64) -> Vec<(u64, u64, u64)> {
    // A deliberately lossy DiffServ run; returns (flow, rx, max_seq) tuples.
    let mut topo = Topology::new(4);
    topo.add_link(0, 1, LinkAttrs { cost: 1, capacity_bps: 100_000_000 });
    topo.add_link(1, 2, LinkAttrs { cost: 1, capacity_bps: 10_000_000 });
    topo.add_link(2, 3, LinkAttrs { cost: 1, capacity_bps: 100_000_000 });
    let mut pn = BackboneBuilder::new(topo, vec![0, 3])
        .core_qos(CoreQos::DiffServ { cap_bytes: 64 * 1024, sched: DsSched::Priority })
        .seed(seed)
        .build();
    let vpn = pn.new_vpn("acme");
    let a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
    let b = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
    let sink = pn.attach_sink(b, pfx("10.2.0.0/16"));
    for f in 0..4u64 {
        let cfg =
            SourceConfig::udp(f, pn.site_addr(a, f as u32), pn.site_addr(b, f as u32), 20, 1000);
        pn.attach_poisson_source(a, cfg, 300_000, seed * 100 + f, Some(2 * SEC));
    }
    pn.run_for(3 * SEC);
    let s = pn.net.node_ref::<Sink>(sink);
    let mut out: Vec<(u64, u64, u64)> =
        s.flows().map(|(f, st)| (f, st.rx_packets, st.max_seq)).collect();
    out.sort();
    out
}

/// Determinism: identical seeds give byte-identical outcomes, different
/// seeds differ.
#[test]
fn simulation_is_deterministic_per_seed() {
    let a = congested_run(5);
    let b = congested_run(5);
    assert_eq!(a, b, "same seed must reproduce exactly");
    let c = congested_run(6);
    assert_ne!(a, c, "different seed must change the trajectory");
}

/// Delivered packets, and what the egress PE did to the first one.
fn delivery_with_php(php: bool) -> (u64, HopOp) {
    let (t, pes) = national();
    let mut pn = BackboneBuilder::new(t, pes).php(php).build();
    pn.net.enable_trace();
    let vpn = pn.new_vpn("acme");
    let a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
    let b = pn.add_site(vpn, 2, pfx("10.2.0.0/16"), None);
    let sink = pn.attach_sink(b, pfx("10.2.0.0/16"));
    let cfg = SourceConfig::udp(1, pn.site_addr(a, 1), pn.site_addr(b, 1), 5000, 300);
    pn.attach_cbr_source(a, cfg, MSEC, Some(100));
    pn.run_for(SEC);
    let delivered = pn.net.node_ref::<Sink>(sink).flow(1).map(|f| f.rx_packets).unwrap_or(0);
    let log = pn.net.trace().expect("trace enabled");
    let egress =
        log.path(1, 0).into_iter().find(|(_, r)| r.device == "PE2").expect("egress PE hop");
    (delivered, egress.0)
}

/// PHP is a forwarding optimization: it must not change what is delivered.
/// It does change the egress PE's work: with PHP only the VPN label is
/// left to pop there; without it the tunnel label arrives too.
#[test]
fn php_and_non_php_deliver_identically() {
    let (with_php, op) = delivery_with_php(true);
    assert_eq!(with_php, 100);
    assert!(matches!(&op, HopOp::PopAll(labels) if labels.len() == 1), "{op:?}");
    let (without_php, op) = delivery_with_php(false);
    assert_eq!(without_php, 100);
    assert!(matches!(&op, HopOp::PopAll(labels) if labels.len() == 2), "{op:?}");
}

/// The EXP bits assigned at the ingress PE are visible at every labeled
/// hop — the end-to-end QoS invariant of the paper's §5.
#[test]
fn exp_marking_survives_the_whole_backbone() {
    let (t, pes) = national();
    let mut pn: ProviderNetwork = BackboneBuilder::new(t, pes).build();
    pn.net.enable_trace();
    let vpn = pn.new_vpn("acme");
    let a = pn.add_site(
        vpn,
        0,
        pfx("10.1.0.0/16"),
        Some(mplsvpn::qos::MarkingPolicy::enterprise_default()),
    );
    let b = pn.add_site(vpn, 2, pfx("10.2.0.0/16"), None);
    pn.attach_sink(b, pfx("10.2.0.0/16"));
    // Voice port → EF → EXP 5.
    let cfg = SourceConfig::udp(1, pn.site_addr(a, 1), pn.site_addr(b, 1), 16400, 160);
    pn.attach_cbr_source(a, cfg, MSEC, Some(5));
    pn.run_for(SEC);
    let log = pn.net.trace().expect("trace enabled");
    let labeled: Vec<_> = log.flow(1).into_iter().filter(|r| r.exp.is_some()).collect();
    assert!(!labeled.is_empty());
    assert!(labeled.iter().all(|r| r.exp == Some(5)), "{labeled:?}");
    // And the customer's DSCP is intact at delivery (MPLS never touches it).
    let last = log.flow(1).into_iter().last().unwrap();
    assert_eq!(last.dscp, Some(mplsvpn::net::Dscp::EF));
}

/// TTL safety net: a routing loop cannot cycle packets forever.
#[test]
fn forwarding_loops_die_by_ttl() {
    use mplsvpn::mpls::lfib::{LabelOp, Nhlfe};
    use mplsvpn::vpn::CoreRouter;
    // Two P routers pointing label 100 at each other.
    let mut net = mplsvpn::sim::Network::new();
    let rec = mplsvpn::vpn::FlightRecorder::default();
    net.set_recorder(rec.clone());
    let mut lfib_a = mplsvpn::mpls::Lfib::new();
    lfib_a.install(100, Nhlfe { op: LabelOp::Swap(100), out_iface: 0 });
    let mut lfib_b = mplsvpn::mpls::Lfib::new();
    lfib_b.install(100, Nhlfe { op: LabelOp::Swap(100), out_iface: 0 });
    let a = net.add_node(Box::new(CoreRouter::new("A", lfib_a)));
    let b = net.add_node(Box::new(CoreRouter::new("B", lfib_b)));
    net.connect(a, b, mplsvpn::sim::LinkConfig::new(1_000_000_000, 1000));
    let mut p = mplsvpn::net::Packet::udp(
        "1.1.1.1".parse().unwrap(),
        "2.2.2.2".parse().unwrap(),
        1,
        2,
        mplsvpn::net::Dscp::BE,
        100,
    );
    p.push_outer(mplsvpn::net::Layer::Mpls(mplsvpn::net::MplsLabel::new(100, 0, 64)));
    net.inject(a, mplsvpn::sim::IfaceId(0), p);
    let events = net.run_to_quiescence();
    assert!(events < 1000, "loop must terminate quickly, processed {events}");
    let ttl = mplsvpn::vpn::DropCause::Ttl;
    assert_eq!(rec.node_total(a.0, ttl) + rec.node_total(b.0, ttl), 1);
    assert_eq!(rec.total_drops(), 1, "the TTL drop is the only loss: {:?}", rec.cause_rows());
}
