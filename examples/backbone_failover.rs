//! Backbone failover: a fiber cut, detection, reconvergence, and repair —
//! watched through a live voice flow. The routers' own control planes
//! react to each event once detection fires. Act 2 replays the same cut
//! with fast-reroute link protection installed and almost nothing is
//! lost.
//!
//! ```sh
//! cargo run --release --example backbone_failover
//! ```

use mplsvpn::routing::{LinkAttrs, Topology};
use mplsvpn::sim::{LinkId, Sink, SourceConfig, MSEC, SEC};
use mplsvpn::te::SrlgMap;
use mplsvpn::vpn::{BackboneBuilder, ProviderNetwork};

/// Fish: short path PE0-P1-PE4, long path PE0-P2-P3-PE4.
fn fish() -> Topology {
    let mut topo = Topology::new(5);
    let attrs = LinkAttrs { cost: 1, capacity_bps: 10_000_000 };
    topo.add_link(0, 1, attrs); // 0 short
    topo.add_link(1, 4, attrs); // 1 short
    topo.add_link(0, 2, attrs); // 2 long
    topo.add_link(2, 3, attrs); // 3 long
    topo.add_link(3, 4, attrs); // 4 long
    topo
}

/// Control packets (LSAs, LDP messages) every router has sent so far.
fn control_sent(pn: &ProviderNetwork) -> [u64; 2] {
    let stats = pn.control_stats().expect("every backbone router runs a control plane");
    [stats.pkts_by_proto[0], stats.pkts_by_proto[1]]
}

fn main() {
    // Slow, IGP-hello-style detection: 150 ms of blindness.
    let mut pn = BackboneBuilder::new(fish(), vec![0, 4]).detection(150 * MSEC).build();
    let vpn = pn.new_vpn("acme");
    let a = pn.add_site(vpn, 0, "10.1.0.0/16".parse().unwrap(), None);
    let b = pn.add_site(vpn, 1, "10.2.0.0/16".parse().unwrap(), None);
    pn.run_for(0); // the MP-BGP updates land, then the VRFs verify
    pn.verify().assert_clean("failover backbone, pre-cut");
    let sink = pn.attach_sink(b, "10.2.0.0/16".parse().unwrap());

    // 200 pps voice-like flow for the whole 8-second story.
    let interval = 5 * MSEC;
    let cfg = SourceConfig::udp(1, pn.site_addr(a, 1), pn.site_addr(b, 1), 16400, 160);
    pn.attach_cbr_source(a, cfg, interval, Some(8 * SEC / interval));

    let delivered = |pn: &ProviderNetwork| pn.net.node_ref::<Sink>(sink).total_packets;

    pn.run_for(2 * SEC);
    println!("t=2s   healthy: {} packets delivered, short path in use", delivered(&pn));

    println!("t=2s   ✂ cutting link P1—PE4");
    let [lsas, ldp] = control_sent(&pn);
    pn.fail_link(1);
    pn.run_for(150 * MSEC); // failure-detection window; then the flood
    let before = delivered(&pn);
    let [lsas_now, ldp_now] = control_sent(&pn);
    println!(
        "t=2.15s detected and reconverged ({} LSAs + {} LDP messages); \
         {} packets were lost in the blind window",
        lsas_now - lsas,
        ldp_now - ldp,
        2 * SEC / interval + 30 - before
    );

    pn.run_for(2 * SEC);
    println!(
        "t=4.15s rerouted over P2—P3: {} delivered, long-path link carrying {} packets",
        delivered(&pn),
        pn.net.link_stats(LinkId(2), 0).tx_packets
    );

    println!("t=4.15s 🔧 repairing the link");
    pn.repair_link(1);
    let short_before = pn.net.link_stats(LinkId(1), 0).tx_packets;
    pn.run_for(4 * SEC); // the routers notice at 4.3 s, and the short path returns
    pn.verify().assert_clean("failover backbone, post-repair");
    let f = pn.net.node_ref::<Sink>(sink).flow(1).unwrap();
    let total = 8 * SEC / interval;
    println!(
        "t=8s    done: {}/{} delivered ({:.2}% lost, all during the 150 ms blind window); \
         P1—PE4 carried {} packets after the repair",
        f.rx_packets,
        total,
        (total - f.rx_packets) as f64 * 100.0 / total as f64,
        pn.net.link_stats(LinkId(1), 0).tx_packets - short_before
    );
    // 29 in the blind window plus the one in flight on the cut link.
    assert_eq!(total - f.rx_packets, 30, "loss confined to the detection window");

    // --- Act 2: the same cut, with fast-reroute link protection. ---
    println!("\n— act 2: same story with fast reroute —");
    let mut pn = BackboneBuilder::new(fish(), vec![0, 4])
        .detection(20 * MSEC) // BFD-style detection, not IGP hold timers
        .build();
    let vpn = pn.new_vpn("acme");
    let a = pn.add_site(vpn, 0, "10.1.0.0/16".parse().unwrap(), None);
    let b = pn.add_site(vpn, 1, "10.2.0.0/16".parse().unwrap(), None);
    let srlg = SrlgMap::new(pn.topo.link_count());
    let bypasses = pn.protect_all_links(&srlg);
    println!("t=0s    {bypasses} bypass LSPs installed (every link, both directions)");
    let sink = pn.attach_sink(b, "10.2.0.0/16".parse().unwrap());
    let cfg = SourceConfig::udp(1, pn.site_addr(a, 1), pn.site_addr(b, 1), 16400, 160);
    pn.attach_cbr_source(a, cfg, interval, Some(total));

    pn.run_for(2 * SEC);
    println!("t=2s    ✂ cutting link P1—PE4 again");
    pn.fail_link(1);
    pn.run_for(6 * SEC);
    let switchovers = pn.active_switchovers();
    let f = pn.net.node_ref::<Sink>(sink).flow(1).unwrap();
    println!(
        "t=8s    done: {}/{} delivered — {} lost in the 20 ms detection gap; at detection PE0 \
         moved the call onto P2—P3, while P1 held its own repair for 50 ms behind the bypass \
         ({} switchover(s) armed)",
        f.rx_packets,
        total,
        total - f.rx_packets,
        switchovers
    );
    // All 4 in the detection gap; the call's last packet, on the 3-hop long
    // path, lands before the story ends.
    assert_eq!(total - f.rx_packets, 4, "FRR confines loss to the detection gap");
}
