//! Two customers with byte-identical address plans share one backbone —
//! the membership/isolation story of the paper's §4.
//!
//! Both "acme" and "globex" number their sites out of 10.0.0.0/8. Route
//! distinguishers keep their routes distinct, route targets control who
//! imports what, and the data plane keeps every packet inside its own VPN.
//! A third acme site joins at runtime — one PE touch — and immediately
//! reaches the others.
//!
//! ```sh
//! cargo run --example overlapping_customers
//! ```

use mplsvpn::routing::{LinkAttrs, Topology};
use mplsvpn::sim::{Sink, SourceConfig, MSEC, SEC};
use mplsvpn::vpn::{BackboneBuilder, ProviderNetwork};

fn main() {
    // Four PEs around a square of P routers.
    let mut topo = Topology::new(4);
    let attrs = LinkAttrs { cost: 1, capacity_bps: 622_000_000 };
    for i in 0..4 {
        topo.add_link(i, (i + 1) % 4, attrs);
    }
    let pe0 = topo.add_node();
    let pe1 = topo.add_node();
    let pe2 = topo.add_node();
    topo.add_link(pe0, 0, attrs);
    topo.add_link(pe1, 1, attrs);
    topo.add_link(pe2, 2, attrs);

    let mut pn = BackboneBuilder::new(topo, vec![pe0, pe1, pe2]).build();

    let acme = pn.new_vpn("acme");
    let globex = pn.new_vpn("globex");

    // Identical address plans on purpose.
    let acme_a = pn.add_site(acme, 0, "10.1.0.0/16".parse().unwrap(), None);
    let acme_b = pn.add_site(acme, 1, "10.2.0.0/16".parse().unwrap(), None);
    let globex_a = pn.add_site(globex, 0, "10.1.0.0/16".parse().unwrap(), None);
    let globex_b = pn.add_site(globex, 1, "10.2.0.0/16".parse().unwrap(), None);

    // Static proof of isolation before the dynamic one below: the
    // route-target graph must show zero acme↔globex coupling.
    pn.run_for(0); // the MP-BGP updates land, then the VRFs verify
    pn.verify().assert_clean("overlapping customers");

    let sink_acme = pn.attach_sink(acme_b, "10.2.0.0/16".parse().unwrap());
    let sink_globex = pn.attach_sink(globex_b, "10.2.0.0/16".parse().unwrap());

    // Same destination address, different VPNs.
    let cfg_a = SourceConfig::udp(1, pn.site_addr(acme_a, 7), pn.site_addr(acme_b, 9), 80, 400);
    let cfg_g = SourceConfig::udp(2, pn.site_addr(globex_a, 7), pn.site_addr(globex_b, 9), 80, 400);
    pn.attach_cbr_source(acme_a, cfg_a, MSEC, Some(200));
    pn.attach_cbr_source(globex_a, cfg_g, MSEC, Some(200));
    pn.run_for(SEC);

    let sa = pn.net.node_ref::<Sink>(sink_acme);
    let sg = pn.net.node_ref::<Sink>(sink_globex);
    println!(
        "acme   site B: {} packets (flow 1), foreign flows: {}",
        sa.flow(1).map_or(0, |f| f.rx_packets),
        sa.flows().count() - 1
    );
    println!(
        "globex site B: {} packets (flow 2), foreign flows: {}",
        sg.flow(2).map_or(0, |f| f.rx_packets),
        sg.flows().count() - 1
    );
    assert!(sa.flow(2).is_none() && sg.flow(1).is_none(), "cross-VPN leak!");

    // A third acme site joins at runtime: one call, one PE touched.
    let originated = |pn: &ProviderNetwork| pn.control_stats().map_or(0, |s| s.bgp_originated);
    let before = originated(&pn);
    let acme_c = pn.add_site(acme, 2, "10.3.0.0/16".parse().unwrap(), None);
    pn.run_for(0);
    let joined_cost = originated(&pn) - before;
    let sink_c = pn.attach_sink(acme_c, "10.3.0.0/16".parse().unwrap());
    let cfg_c = SourceConfig::udp(3, pn.site_addr(acme_a, 8), pn.site_addr(acme_c, 1), 80, 400);
    pn.attach_cbr_source(acme_a, cfg_c, MSEC, Some(100));
    pn.run_for(SEC);
    let sc = pn.net.node_ref::<Sink>(sink_c);
    println!(
        "acme site C joined at a cost of {joined_cost} BGP updates; received {} packets from site A",
        sc.flow(3).map_or(0, |f| f.rx_packets)
    );
    assert_eq!(sc.flow(3).map(|f| f.rx_packets), Some(100));
}
