//! Enterprise voice over a congested backbone — the paper's headline
//! scenario (§5).
//!
//! A company runs voice, video, transactional data and bulk transfers
//! between two sites. The CPE classifies and marks with DSCP; the ingress
//! PE maps DSCP into the MPLS EXP bits; the core schedules on EXP with
//! strict priority + RED. Despite a bulk overload of the 10 Mb/s backbone
//! bottleneck, voice keeps its SLA.
//!
//! ```sh
//! cargo run --release --example enterprise_voice
//! ```

use mplsvpn::net::Dscp;
use mplsvpn::qos::{MarkingPolicy, MatchRule};
use mplsvpn::routing::{LinkAttrs, Topology};
use mplsvpn::sim::{Sink, SourceConfig, MSEC, SEC};
use mplsvpn::vpn::network::DsSched;
use mplsvpn::vpn::{BackboneBuilder, CoreQos, Sla};

fn main() {
    // Dumbbell: PE0 — P1 ══ P2 — PE3 with a 10 Mb/s bottleneck.
    let mut topo = Topology::new(4);
    topo.add_link(0, 1, LinkAttrs { cost: 1, capacity_bps: 100_000_000 });
    topo.add_link(1, 2, LinkAttrs { cost: 1, capacity_bps: 10_000_000 });
    topo.add_link(2, 3, LinkAttrs { cost: 1, capacity_bps: 100_000_000 });

    let mut pn = BackboneBuilder::new(topo, vec![0, 3])
        .core_qos(CoreQos::DiffServ { cap_bytes: 128 * 1024, sched: DsSched::Priority })
        .build();

    // The CPE marking policy: voice → EF, video → AF41, web → AF21.
    let mut policy = MarkingPolicy::new(Dscp::BE);
    policy.push(MatchRule::any().protocol(17).dst_port_range(16384, 16484), Dscp::EF);
    policy.push(MatchRule::any().protocol(17).dst_port(5004), Dscp::AF41);
    policy.push(MatchRule::any().protocol(17).dst_port(443), Dscp::AF21);

    let vpn = pn.new_vpn("enterprise");
    let hq = pn.add_site(vpn, 0, "10.1.0.0/16".parse().unwrap(), Some(policy));
    let branch = pn.add_site(vpn, 1, "10.2.0.0/16".parse().unwrap(), None);

    // Commit the voice contract (4 calls ≈ 100 kb/s each) and statically
    // verify the whole configuration: DSCP↔EXP map, RED profile, EF
    // admission against the 10 Mb/s bottleneck, labels, VRFs.
    pn.commit_ef_contract("enterprise voice", 4 * 100_000);
    pn.run_for(0); // the MP-BGP updates land, then the VRFs verify
    pn.verify().assert_clean("enterprise voice backbone");
    let sink = pn.attach_sink(branch, "10.2.0.0/16".parse().unwrap());

    // SLA probes: one synthetic low-rate flow per sold class. Probes keep
    // their own marking through the CPE, so each one measures exactly the
    // service tier it is stamped with.
    for dscp in [Dscp::EF, Dscp::AF41, Dscp::AF21, Dscp::BE] {
        pn.attach_sla_probe(hq, branch, dscp, 25 * MSEC, Some(5 * SEC / (25 * MSEC)));
    }

    // The application mix, all sent unmarked — the CPE does the marking.
    let hq_block = pn.sites[hq.0].prefix;
    let branch_block = pn.sites[branch.0].prefix;
    let mk = move |flow: u64, dst_port, payload| {
        SourceConfig::udp(
            flow,
            hq_block.nth(flow as u32),
            branch_block.nth(flow as u32),
            dst_port,
            payload,
        )
    };
    let horizon = 5 * SEC;
    // 4 voice calls, 50 pps each.
    for f in 0..4u64 {
        pn.attach_cbr_source(hq, mk(10 + f, 16400, 160), 20 * MSEC, Some(horizon / (20 * MSEC)));
    }
    // A video stream ~1.2 Mb/s.
    pn.attach_cbr_source(hq, mk(20, 5004, 1200), 8 * MSEC, Some(horizon / (8 * MSEC)));
    // Transactional data, bursty.
    pn.attach_onoff_source(hq, mk(30, 443, 600), 2 * MSEC, 50 * MSEC, 50 * MSEC, 1, Some(horizon));
    // Bulk backup flood ~9 Mb/s: the congestion driver.
    pn.attach_poisson_source(hq, mk(40, 20, 1100), 940_000, 2, Some(horizon));

    pn.run_for(horizon + SEC);

    let stats = pn.net.node_ref::<Sink>(sink);
    println!(
        "{:<12} {:>9} {:>10} {:>10} {:>10}",
        "flow", "rx pkts", "mean ms", "p99 ms", "jitter ms"
    );
    for (name, flow) in [
        ("voice0", 10u64),
        ("voice1", 11),
        ("voice2", 12),
        ("voice3", 13),
        ("video", 20),
        ("data", 30),
        ("bulk", 40),
    ] {
        if let Some(f) = stats.flow(flow) {
            println!(
                "{name:<12} {:>9} {:>10.2} {:>10.2} {:>10.3}",
                f.rx_packets,
                f.latency.mean() / 1e6,
                f.latency.quantile(0.99) as f64 / 1e6,
                f.jitter_ns / 1e6
            );
        }
    }

    // Grade the first voice call against the voice SLA.
    let voice = stats.flow(10).expect("voice delivered");
    let report = Sla::voice().evaluate(voice, horizon / (20 * MSEC));
    println!("\nvoice SLA: {report}");
    assert!(report.met, "voice must survive the bulk overload");

    // The provider-side view: the per-⟨VPN, class⟩ SLA probe table from
    // the metrics snapshot, then where every lost packet went.
    let snap = pn.metrics_snapshot();
    println!(
        "\n{:<12} {:<6} {:>6} {:>6} {:>9} {:>9} {:>10} {:>8}",
        "vpn", "class", "tx", "rx", "mean ms", "p99 ms", "jitter ms", "loss %"
    );
    for p in &snap.probes {
        println!(
            "{:<12} {:<6} {:>6} {:>6} {:>9.2} {:>9.2} {:>10.3} {:>8.2}",
            p.vpn,
            p.class,
            p.tx,
            p.rx,
            p.mean_delay_ns / 1e6,
            p.p99_delay_ns as f64 / 1e6,
            p.jitter_ns / 1e6,
            p.loss_pct
        );
    }
    println!("\ndrop causes:");
    for (cause, n) in &snap.drop_causes {
        println!("  {cause:<16} {n}");
    }
    let ef = snap.probes.iter().find(|p| p.class == "EF").expect("EF probe row");
    assert!(ef.rx > 0 && ef.loss_pct < 1.0, "the EF probe must ride out the overload");
}
