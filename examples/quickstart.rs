//! Quickstart: bring up a two-site MPLS VPN over a three-node backbone and
//! push a flow across it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use mplsvpn::routing::{LinkAttrs, Topology};
use mplsvpn::sim::{Sink, SourceConfig, MSEC, SEC};
use mplsvpn::vpn::BackboneBuilder;

fn main() {
    // 1. Describe the provider backbone: PE0 — P1 — PE2 at 100 Mb/s.
    let mut topo = Topology::new(3);
    let attrs = LinkAttrs { cost: 1, capacity_bps: 100_000_000 };
    topo.add_link(0, 1, attrs);
    topo.add_link(1, 2, attrs);

    // 2. Build it: IGP converges, LDP distributes tunnel labels, routers
    //    materialize in the simulator.
    let mut pn = BackboneBuilder::new(topo, vec![0, 2]).build();

    // 3. Provision a VPN with one site on each PE. Adding a site touches
    //    exactly one PE — the BGP/MPLS fabric tells everyone else.
    let vpn = pn.new_vpn("acme");
    let seoul = pn.add_site(vpn, 0, "10.1.0.0/16".parse().unwrap(), None);
    let busan = pn.add_site(vpn, 1, "10.2.0.0/16".parse().unwrap(), None);

    // 3b. The MP-BGP updates land when the simulator runs. Then statically
    //     verify the provisioned control plane before pushing traffic:
    //     label integrity, VRF isolation, QoS sanity.
    pn.run_for(0);
    pn.verify().assert_clean("quickstart backbone");

    // 4. Attach a measuring sink in Busan and a 1000-packet CBR source in
    //    Seoul.
    let sink = pn.attach_sink(busan, "10.2.0.0/16".parse().unwrap());
    let cfg = SourceConfig::udp(1, pn.site_addr(seoul, 10), pn.site_addr(busan, 20), 5000, 256);
    pn.attach_cbr_source(seoul, cfg, MSEC, Some(1000));

    // 5. Run and report.
    pn.run_for(3 * SEC);
    let stats = pn.net.node_ref::<Sink>(sink);
    let f = stats.flow(1).expect("flow delivered");
    println!(
        "delivered {}/1000 packets, mean one-way latency {:.2} ms, jitter {:.3} ms",
        f.rx_packets,
        f.latency.mean() / 1e6,
        f.jitter_ns / 1e6
    );
    assert_eq!(f.rx_packets, 1000);
    // The control plane counts what it sent since bring-up: the LDP
    // mappings that built the tunnels, then one MP-BGP update per remote
    // VRF, relayed PE → P → PE.
    println!("control plane: {:?}", pn.control_stats().expect("control counters"));
}
