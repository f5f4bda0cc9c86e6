//! Same-seed runs must be bit-identical.
//!
//! The simulator's determinism contract (one calendar, `(at, seq)`
//! tie-break, all randomness from owned seeds) is what makes every QoS
//! experiment reproducible. This regression test runs a congested DiffServ
//! VPN scenario — randomized sources, RED, priority scheduling — twice
//! from identical seeds and requires *exactly* equal observable
//! state: event count, every link's transmit statistics, and per-flow
//! receiver statistics down to the f64 jitter bits. Any hot-path change
//! that reorders events (timing-wheel edits, lazy transmitter pokes,
//! by-move packet plumbing) shows up here before it corrupts experiments.

use mplsvpn_core::network::DsSched;
use mplsvpn_core::{BackboneBuilder, CoreQos};
use netsim_net::addr::pfx;
use netsim_net::Dscp;
use netsim_routing::{LinkAttrs, Topology};
use netsim_sim::{LinkId, Sink, SourceConfig, MSEC, SEC};

/// PE0 — P1 ══ P2 — PE3 with a 10 Mb/s bottleneck between the P routers.
fn dumbbell() -> (Topology, Vec<usize>) {
    let attrs = |mbps: u64| LinkAttrs { cost: 1, capacity_bps: mbps * 1_000_000 };
    let mut t = Topology::new(4);
    t.add_link(0, 1, attrs(100));
    t.add_link(1, 2, attrs(10));
    t.add_link(2, 3, attrs(100));
    (t, vec![0, 3])
}

/// One full run of the congested DiffServ scenario; returns the network
/// and sink node for inspection.
fn run_once() -> (mplsvpn_core::ProviderNetwork, netsim_sim::NodeId) {
    let (t, pes) = dumbbell();
    let mut pn = BackboneBuilder::new(t, pes)
        .core_qos(CoreQos::DiffServ { cap_bytes: 1 << 20, sched: DsSched::Priority })
        .seed(7)
        .build();
    let vpn = pn.new_vpn("acme");
    let a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
    let b = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
    let sink = pn.attach_sink(b, pfx("10.2.0.0/16"));
    let until = Some(2 * SEC);
    // EF voice: deterministic CBR. AF31: Poisson. BE bulk: bursty on-off.
    // The Poisson/on-off seeds are the point — identical seeds must yield
    // identical event streams through RED's own drop RNG and the priority
    // scheduler.
    let ef =
        SourceConfig::udp(1, pn.site_addr(a, 1), pn.site_addr(b, 1), 5000, 160).with_dscp(Dscp::EF);
    pn.attach_cbr_source(a, ef, 100_000, Some(15_000));
    let af = SourceConfig::udp(2, pn.site_addr(a, 2), pn.site_addr(b, 1), 5000, 500)
        .with_dscp(Dscp::AF31);
    pn.attach_poisson_source(a, af, 150_000, 0xA5A5_1234, until);
    let be = SourceConfig::udp(3, pn.site_addr(a, 3), pn.site_addr(b, 1), 5000, 1000)
        .with_dscp(Dscp::BE);
    pn.attach_onoff_source(a, be, 120_000, 50 * MSEC, 30 * MSEC, 0xDEAD_BEEF, until);
    pn.run_to_quiescence();
    (pn, sink)
}

#[test]
fn same_seed_runs_are_bit_identical() {
    let (run1, sink1) = run_once();
    let (run2, sink2) = run_once();

    assert_eq!(
        run1.net.events_processed(),
        run2.net.events_processed(),
        "event counts diverged between identical runs"
    );
    assert!(run1.net.events_processed() > 100_000, "scenario too small to be meaningful");

    assert_eq!(run1.net.link_count(), run2.net.link_count());
    for l in 0..run1.net.link_count() {
        for dir in 0..2u8 {
            assert_eq!(
                run1.net.link_stats(LinkId(l), dir),
                run2.net.link_stats(LinkId(l), dir),
                "LinkStats diverged on link {l} dir {dir}"
            );
        }
    }

    let s1 = run1.net.node_ref::<Sink>(sink1);
    let s2 = run2.net.node_ref::<Sink>(sink2);
    assert_eq!(s1.total_packets, s2.total_packets);
    assert_eq!(s1.total_bytes, s2.total_bytes);
    assert!(s1.total_packets > 0, "nothing delivered");
    for flow in 1..=3u64 {
        let (f1, f2) = (s1.flow(flow), s2.flow(flow));
        match (f1, f2) {
            (Some(f1), Some(f2)) => {
                assert_eq!(f1.rx_packets, f2.rx_packets, "flow {flow} rx_packets");
                assert_eq!(f1.rx_bytes, f2.rx_bytes, "flow {flow} rx_bytes");
                assert_eq!(f1.max_seq, f2.max_seq, "flow {flow} max_seq");
                assert_eq!(f1.reordered, f2.reordered, "flow {flow} reordered");
                assert_eq!(f1.first_rx, f2.first_rx, "flow {flow} first_rx");
                assert_eq!(f1.last_rx, f2.last_rx, "flow {flow} last_rx");
                assert_eq!(
                    f1.jitter_ns.to_bits(),
                    f2.jitter_ns.to_bits(),
                    "flow {flow} jitter bits"
                );
                assert_eq!(f1.latency.count(), f2.latency.count(), "flow {flow} latency count");
                assert_eq!(f1.latency.min(), f2.latency.min(), "flow {flow} latency min");
                assert_eq!(f1.latency.max(), f2.latency.max(), "flow {flow} latency max");
                assert_eq!(
                    f1.latency.quantile(0.99),
                    f2.latency.quantile(0.99),
                    "flow {flow} latency p99"
                );
            }
            (None, None) => panic!("flow {flow} absent from both runs — scenario broken"),
            _ => panic!("flow {flow} present in only one run"),
        }
    }
}
