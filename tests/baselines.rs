//! Integration tests for the two baseline VPN models against the MPLS VPN:
//! same topology, same traffic, three technologies.

use mplsvpn::net::Prefix;
use mplsvpn::routing::{LinkAttrs, Topology};
use mplsvpn::sim::{CbrSource, Sink, SourceConfig, MSEC, SEC};
use mplsvpn::vpn::ipsec_vpn::{IpsecGateway, IpsecVpnNetwork};
use mplsvpn::vpn::overlay::OverlayNetwork;
use mplsvpn::vpn::{BackboneBuilder, CoreQos};

fn pfx(s: &str) -> Prefix {
    s.parse().unwrap()
}

fn line3() -> Topology {
    let mut t = Topology::new(3);
    let attrs = LinkAttrs { cost: 1, capacity_bps: 100_000_000 };
    t.add_link(0, 1, attrs);
    t.add_link(1, 2, attrs);
    t
}

/// All three technologies deliver the same 200 packets over the same
/// three-node backbone.
#[test]
fn three_technologies_same_connectivity() {
    let n_packets = 200u64;

    // MPLS VPN.
    let mpls = {
        let mut pn = BackboneBuilder::new(line3(), vec![0, 2]).build();
        let vpn = pn.new_vpn("acme");
        let a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
        let b = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
        let sink = pn.attach_sink(b, pfx("10.2.0.0/16"));
        let cfg = SourceConfig::udp(1, pn.site_addr(a, 1), pn.site_addr(b, 1), 5000, 300);
        pn.attach_cbr_source(a, cfg, MSEC, Some(n_packets));
        pn.run_for(2 * SEC);
        pn.net.node_ref::<Sink>(sink).flow(1).map(|f| f.rx_packets).unwrap_or(0)
    };

    // Overlay PVC.
    let overlay = {
        let mut ov = OverlayNetwork::build(line3());
        let a = ov.add_site(0, pfx("10.1.0.0/16"));
        let b = ov.add_site(2, pfx("10.2.0.0/16"));
        ov.connect_sites(a, b);
        let sink = ov.attach_sink(b, pfx("10.2.0.0/16"));
        let cfg = SourceConfig::udp(1, ov.site_addr(a, 1), ov.site_addr(b, 1), 5000, 300);
        ov.pn.net.attach_source(ov.edge(a), Box::new(CbrSource::new(cfg, MSEC, Some(n_packets))));
        ov.pn.net.run_until(2 * SEC);
        ov.pn.net.node_ref::<Sink>(sink).flow(1).map(|f| f.rx_packets).unwrap_or(0)
    };

    // IPsec over IP.
    let ipsec = {
        let mut n = IpsecVpnNetwork::build(line3(), CoreQos::BestEffort { cap_bytes: 256 * 1024 });
        let a = n.add_gateway(0, pfx("10.1.0.0/16"), None);
        let b = n.add_gateway(2, pfx("10.2.0.0/16"), None);
        n.connect_gateways(a, b);
        let sink = n.attach_sink(b, pfx("10.2.0.0/16"));
        let cfg = SourceConfig::udp(1, n.site_addr(a, 1), n.site_addr(b, 1), 5000, 300);
        n.pn.net
            .attach_source(n.gateway_node(a), Box::new(CbrSource::new(cfg, MSEC, Some(n_packets))));
        n.pn.net.run_until(2 * SEC);
        n.pn.net.node_ref::<Sink>(sink).flow(1).map(|f| f.rx_packets).unwrap_or(0)
    };

    assert_eq!(mpls, n_packets);
    assert_eq!(overlay, n_packets);
    assert_eq!(ipsec, n_packets);
}

/// The IPsec path costs crypto latency; the MPLS path does not. Both run
/// on identical links, so the latency gap is pure gateway processing.
#[test]
fn ipsec_pays_crypto_latency_mpls_does_not() {
    let run_mpls = || {
        let mut pn = BackboneBuilder::new(line3(), vec![0, 2]).build();
        let vpn = pn.new_vpn("acme");
        let a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
        let b = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
        let sink = pn.attach_sink(b, pfx("10.2.0.0/16"));
        let cfg = SourceConfig::udp(1, pn.site_addr(a, 1), pn.site_addr(b, 1), 5000, 1000);
        pn.attach_cbr_source(a, cfg, 10 * MSEC, Some(50));
        pn.run_for(2 * SEC);
        pn.net.node_ref::<Sink>(sink).flow(1).unwrap().latency.mean()
    };
    let run_ipsec = || {
        let mut n = IpsecVpnNetwork::build(line3(), CoreQos::BestEffort { cap_bytes: 256 * 1024 });
        let a = n.add_gateway(0, pfx("10.1.0.0/16"), None);
        let b = n.add_gateway(2, pfx("10.2.0.0/16"), None);
        n.connect_gateways(a, b);
        let sink = n.attach_sink(b, pfx("10.2.0.0/16"));
        let cfg = SourceConfig::udp(1, n.site_addr(a, 1), n.site_addr(b, 1), 5000, 1000);
        n.pn.net
            .attach_source(n.gateway_node(a), Box::new(CbrSource::new(cfg, 10 * MSEC, Some(50))));
        n.pn.net.run_until(2 * SEC);
        let mean = n.pn.net.node_ref::<Sink>(sink).flow(1).unwrap().latency.mean();
        let gw = n.pn.net.node_ref::<IpsecGateway>(n.gateway_node(a));
        (mean, gw.crypto_ns)
    };
    let mpls_mean = run_mpls();
    let (ipsec_mean, crypto_total) = run_ipsec();
    assert!(crypto_total > 0);
    // The IPsec mean must exceed MPLS by at least one end's crypto cost for
    // a ~1 kB packet (~70 µs under the default cost model).
    assert!(ipsec_mean > mpls_mean + 70_000.0, "ipsec {ipsec_mean} vs mpls {mpls_mean}");
}

/// Replay attack on the IPsec baseline: a duplicated ESP packet is dropped
/// by the anti-replay window, not delivered twice.
#[test]
fn ipsec_baseline_rejects_replayed_packets() {
    use mplsvpn::ipsec::encapsulate;
    use mplsvpn::net::{Dscp, Packet};
    let mut n = IpsecVpnNetwork::build(line3(), CoreQos::BestEffort { cap_bytes: 256 * 1024 });
    let a = n.add_gateway(0, pfx("10.1.0.0/16"), None);
    let b = n.add_gateway(2, pfx("10.2.0.0/16"), None);
    n.connect_gateways(a, b);
    let sink = n.attach_sink(b, pfx("10.2.0.0/16"));

    // Forge a replay: encapsulate one packet with a *copy* of A's outbound
    // SA, then inject the same ciphertext twice at A's uplink.
    let ga = n.gateway_node(a);
    let (my_ip, peer_ip, mut sa_copy) = {
        let gw = n.pn.net.node_ref::<IpsecGateway>(ga);
        let (peer_ip, out_sa, _) = &gw.peers[0];
        (gw.public_ip, *peer_ip, out_sa.clone())
    };
    let mut inner =
        Packet::udp(pfx("10.1.0.0/16").nth(1), pfx("10.2.0.0/16").nth(1), 1, 2, Dscp::BE, 64);
    inner.meta.flow = 9;
    let outer = encapsulate(&inner, &mut sa_copy, my_ip, peer_ip);
    n.pn.net.inject(ga, mplsvpn::sim::IfaceId(0), outer.clone());
    n.pn.net.inject(ga, mplsvpn::sim::IfaceId(0), outer);
    n.pn.net.run_until(SEC);
    let s = n.pn.net.node_ref::<Sink>(sink);
    assert_eq!(s.flow(9).map(|f| f.rx_packets), Some(1), "replay must be dropped");
    let gb = n.pn.net.node_ref::<IpsecGateway>(n.gateway_node(b));
    assert_eq!(gb.esp_errors, 1);
}

/// Overlay edges only reach provisioned partners (no any-to-any): with a
/// hub-and-spoke provisioning, spoke→spoke traffic dies at the edge.
#[test]
fn overlay_respects_provisioned_topology() {
    let t = Topology::new(1); // a single switch is enough
    let mut ov = OverlayNetwork::build(t);
    let hub = ov.add_site(0, pfx("10.0.0.0/16"));
    let s1 = ov.add_site(0, pfx("10.1.0.0/16"));
    let s2 = ov.add_site(0, pfx("10.2.0.0/16"));
    ov.connect_sites(hub, s1);
    ov.connect_sites(hub, s2);
    let sink_hub = ov.attach_sink(hub, pfx("10.0.0.0/16"));
    let sink_s2 = ov.attach_sink(s2, pfx("10.2.0.0/16"));
    // s1 → hub works; s1 → s2 has no PVC and must be dropped at the edge.
    let c1 = SourceConfig::udp(1, ov.site_addr(s1, 1), ov.site_addr(hub, 1), 80, 100);
    let c2 = SourceConfig::udp(2, ov.site_addr(s1, 1), ov.site_addr(s2, 1), 80, 100);
    ov.pn.net.attach_source(ov.edge(s1), Box::new(CbrSource::new(c1, MSEC, Some(10))));
    ov.pn.net.attach_source(ov.edge(s1), Box::new(CbrSource::new(c2, MSEC, Some(10))));
    ov.pn.net.run_until(SEC);
    assert_eq!(ov.pn.net.node_ref::<Sink>(sink_hub).flow(1).map(|f| f.rx_packets), Some(10));
    assert_eq!(ov.pn.net.node_ref::<Sink>(sink_s2).total_packets, 0);
}
