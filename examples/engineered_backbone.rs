//! Traffic engineering on the "fish" backbone (paper §5): CSPF places a
//! second trunk on the longer path that plain IGP routing would leave
//! idle, and the congestion disappears.
//!
//! ```sh
//! cargo run --release --example engineered_backbone
//! ```

use mplsvpn::routing::{LinkAttrs, Topology};
use mplsvpn::sim::{LinkId, Sink, SourceConfig, SEC};
use mplsvpn::te::{TeDomain, TrunkRequest};
use mplsvpn::vpn::BackboneBuilder;

fn fish() -> Topology {
    let mut t = Topology::new(5);
    let attrs = LinkAttrs { cost: 1, capacity_bps: 10_000_000 };
    t.add_link(0, 1, attrs); // short path
    t.add_link(1, 4, attrs);
    t.add_link(0, 2, attrs); // long path
    t.add_link(2, 3, attrs);
    t.add_link(3, 4, attrs);
    t
}

fn main() {
    let mut pn = BackboneBuilder::new(fish(), vec![0, 4]).build();
    let vpn = pn.new_vpn("acme");
    let a = pn.add_site(vpn, 0, "10.1.0.0/16".parse().unwrap(), None);
    let b = pn.add_site(vpn, 1, "10.2.0.0/16".parse().unwrap(), None);
    let sink = pn.attach_sink(b, "10.2.0.0/16".parse().unwrap());

    // Admission-control two 6.5 Mb/s trunks over the same 10 Mb/s fish.
    let mut te = TeDomain::new(pn.topo.clone());
    let (t1, _) = te.signal(TrunkRequest::new(0, 4, 6_500_000)).expect("trunk 1 fits");
    let (t2, _) = te.signal(TrunkRequest::new(0, 4, 6_500_000)).expect("trunk 2 diverted");
    println!("trunk 1 path: {:?}", te.path(t1).unwrap());
    println!("trunk 2 path: {:?}", te.path(t2).unwrap());

    // Pin trunk 2's share of the destination block onto an explicit LSP,
    // once the MP-BGP updates have landed.
    pn.run_for(0);
    let p2 = te.path(t2).unwrap().to_vec();
    let ftn = pn.install_explicit_lsp(&p2);
    pn.pin_prefix_to_tunnel(vpn, 0, "10.2.128.0/17".parse().unwrap(), ftn);

    // The pinned LSP and the trunk ledgers must both verify: the explicit
    // label path unwinds at PE4 and no fish link is over-reserved.
    let mut report = pn.verify();
    mplsvpn::verify::verify_te(&te, &mut report);
    report.assert_clean("engineered backbone");

    // Two 6.5 Mb/s flows, one per trunk.
    let interval = 1_000u64 * 8 * 1_000_000_000 / 6_500_000; // 1000 B wire
    let horizon = 5 * SEC;
    let d1 = "10.2.0.0/17".parse::<mplsvpn::net::Prefix>().unwrap().nth(5);
    let d2 = "10.2.128.0/17".parse::<mplsvpn::net::Prefix>().unwrap().nth(5);
    let c1 = SourceConfig::udp(1, pn.site_addr(a, 1), d1, 5000, 972);
    let c2 = SourceConfig::udp(2, pn.site_addr(a, 2), d2, 5000, 972);
    pn.attach_cbr_source(a, c1, interval, Some(horizon / interval));
    pn.attach_cbr_source(a, c2, interval, Some(horizon / interval));
    pn.run_for(horizon + SEC);

    let s = pn.net.node_ref::<Sink>(sink);
    for flow in [1u64, 2] {
        let f = s.flow(flow).expect("delivered");
        println!(
            "flow {flow}: {} packets delivered, loss {:.2}%, mean latency {:.2} ms",
            f.rx_packets,
            f.loss(horizon / interval) * 100.0,
            f.latency.mean() / 1e6
        );
    }
    println!(
        "short-path utilization {:.0}%, long-path utilization {:.0}%",
        pn.net.link_stats(LinkId(0), 0).utilization(horizon) * 100.0,
        pn.net.link_stats(LinkId(2), 0).utilization(horizon) * 100.0,
    );
    let total: u64 = [1u64, 2].iter().map(|&f| s.flow(f).unwrap().rx_packets).sum();
    assert_eq!(total, 2 * (horizon / interval), "TE removes all loss");
}
