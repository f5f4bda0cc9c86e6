//! A managed CPE with hierarchical CBQ on its uplink — the device role the
//! paper assigns to the customer premises (§5: "the customer premises
//! device could use technologies such as CBQ to classify traffic").
//!
//! The site's 10 Mb/s uplink is divided: voice is guaranteed 2 Mb/s inside
//! a 6 Mb/s "office" share, bulk backup is bounded to 4 Mb/s, and idle
//! office capacity is lent to office data but never to backup.
//!
//! ```sh
//! cargo run --release --example managed_cpe
//! ```

use mplsvpn::net::{Dscp, Packet};
use mplsvpn::qos::{CbqNodeConfig, ClassOf, HierCbq};
use mplsvpn::routing::{LinkAttrs, Topology};
use mplsvpn::sim::{LinkId, Sink, SourceConfig, SEC};
use mplsvpn::vpn::BackboneBuilder;

fn main() {
    let mut topo = Topology::new(3);
    let attrs = LinkAttrs { cost: 1, capacity_bps: 100_000_000 };
    topo.add_link(0, 1, attrs);
    topo.add_link(1, 2, attrs);
    let mut pn = BackboneBuilder::new(topo, vec![0, 2])
        .access(10_000_000, 100_000) // the contended 10 Mb/s access link
        .build();
    let vpn = pn.new_vpn("acme");
    let hq = pn.add_site(vpn, 0, "10.1.0.0/16".parse().unwrap(), None);
    let branch = pn.add_site(vpn, 1, "10.2.0.0/16".parse().unwrap(), None);
    pn.run_for(0); // the MP-BGP updates land, then the VRFs verify
    let sink = pn.attach_sink(branch, "10.2.0.0/16".parse().unwrap());

    // CPE link-sharing tree on the uplink:
    //   link(10M, bounded) ─ office(6M, bounded) ─ { voice(2M), data(4M) }
    //                      └ backup(4M, bounded)
    let m = 1_000_000;
    let classify: ClassOf = Box::new(|p: &Packet| match p.dscp() {
        Some(Dscp::EF) => 0,   // voice leaf
        Some(Dscp::AF21) => 1, // office data leaf
        _ => 2,                // backup leaf
    });
    let tree = HierCbq::new(
        vec![
            CbqNodeConfig { parent: None, rate_bps: 10 * m, bounded: true, cap_bytes: 0 },
            CbqNodeConfig { parent: Some(0), rate_bps: 6 * m, bounded: true, cap_bytes: 0 },
            CbqNodeConfig { parent: Some(1), rate_bps: 2 * m, bounded: false, cap_bytes: 1 << 20 },
            CbqNodeConfig { parent: Some(1), rate_bps: 4 * m, bounded: false, cap_bytes: 1 << 20 },
            CbqNodeConfig { parent: Some(0), rate_bps: 4 * m, bounded: true, cap_bytes: 1 << 20 },
        ],
        classify,
    );
    // Lint the link-sharing tree (no class set over-subscribes its
    // parent) and the provisioned network before offering load.
    let mut report = pn.verify();
    mplsvpn::verify::lint_cbq_tree(&tree.configs(), "hq uplink CBQ", &mut report);
    report.assert_clean("managed CPE");

    let uplink = pn.sites[hq.0].access_link;
    pn.net.set_qdisc(uplink, 0, Box::new(tree));

    // Offer far more than each class's share.
    let horizon = 5 * SEC;
    let hq_block = pn.sites[hq.0].prefix;
    let branch_block = pn.sites[branch.0].prefix;
    let mk = move |flow: u64, dscp, payload| {
        SourceConfig::udp(
            flow,
            hq_block.nth(flow as u32),
            branch_block.nth(flow as u32),
            5000,
            payload,
        )
        .with_dscp(dscp)
    };
    pn.attach_cbr_source(hq, mk(1, Dscp::EF, 972), 500_000, Some(horizon / 500_000)); // 16 Mb/s offered voice
    pn.attach_cbr_source(hq, mk(2, Dscp::AF21, 972), 500_000, Some(horizon / 500_000)); // 16 Mb/s office data
    pn.attach_cbr_source(hq, mk(3, Dscp::BE, 972), 500_000, Some(horizon / 500_000)); // 16 Mb/s backup

    pn.run_for(horizon + SEC);
    let s = pn.net.node_ref::<Sink>(sink);
    println!("{:<8} {:>14} {:>12}", "class", "goodput Mb/s", "share");
    let mut rates = Vec::new();
    for (name, flow) in [("voice", 1u64), ("data", 2), ("backup", 3)] {
        // Rate over the flow's own arrival window (the run includes a
        // drain second beyond the offered horizon).
        let bps = s.flow(flow).map_or(0.0, mplsvpn::sim::FlowStats::throughput_bps);
        println!("{name:<8} {:>14.2} {:>11.0}%", bps / 1e6, bps / 10e6 * 100.0);
        rates.push(bps);
    }
    // The uplink stayed saturated for the whole run (offered 48 Mb/s
    // against a 10 Mb/s contract; measured over run time incl. drain).
    let _ = LinkId(0);
    println!(
        "uplink utilization: {:.0}%",
        pn.net.link_stats(uplink, 0).utilization(horizon + SEC) * 100.0
    );
    // Office classes together get ~6 Mb/s; backup is pinned at ~4 Mb/s.
    assert!((rates[0] + rates[1]) > 5.2e6 && (rates[0] + rates[1]) < 7.2e6);
    assert!(rates[2] > 3.2e6 && rates[2] < 5.0e6);
}
