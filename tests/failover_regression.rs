//! Convergence regression: pins the exact packets-lost-in-blind-window
//! counts of the `backbone_failover` story, pre-FRR and with FRR. In both
//! the routers' own control planes react to the cut and the repair; no
//! run calls the reference `reconverge()`.
//!
//! The simulator is deterministic, so these are equalities, not ranges:
//! any change to queueing, detection, reconvergence ordering or the FRR
//! switchover path that moves a single packet shows up here.

use mplsvpn::routing::{Igp, LinkAttrs, Topology};
use mplsvpn::sim::{Sink, SourceConfig, MSEC, SEC};
use mplsvpn::vpn::{BackboneBuilder, ControlMode, ProviderNetwork};

/// Fish: short path PE0-P1-PE4 (links 0,1), long PE0-P2-P3-PE4 (2,3,4).
fn fish() -> Topology {
    let mut topo = Topology::new(5);
    let attrs = LinkAttrs { cost: 1, capacity_bps: 10_000_000 };
    for (u, v) in [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)] {
        topo.add_link(u, v, attrs);
    }
    topo
}

/// One VPN, a site on each PE, and a 200 pps voice flow for 8 s.
fn voice_fish(detect_ns: u64) -> (ProviderNetwork, mplsvpn::sim::NodeId, u64) {
    voice_fish_over(detect_ns, ControlMode::Oracle)
}

/// [`voice_fish`] with control messages carried by `mode`.
fn voice_fish_over(
    detect_ns: u64,
    mode: ControlMode,
) -> (ProviderNetwork, mplsvpn::sim::NodeId, u64) {
    let mut pn =
        BackboneBuilder::new(fish(), vec![0, 4]).detection(detect_ns).control_mode(mode).build();
    let vpn = pn.new_vpn("acme");
    let a = pn.add_site(vpn, 0, "10.1.0.0/16".parse().unwrap(), None);
    let b = pn.add_site(vpn, 1, "10.2.0.0/16".parse().unwrap(), None);
    // The call starts once the MP-BGP updates have landed: at once under
    // the oracle, after their trip across the fish in band.
    pn.run_to_quiescence();
    let sink = pn.attach_sink(b, "10.2.0.0/16".parse().unwrap());
    let interval = 5 * MSEC;
    let total = 8 * SEC / interval;
    let cfg = SourceConfig::udp(1, pn.site_addr(a, 1), pn.site_addr(b, 1), 16400, 160);
    pn.attach_cbr_source(a, cfg, interval, Some(total));
    (pn, sink, total)
}

fn lost(pn: &ProviderNetwork, sink: mplsvpn::sim::NodeId, total: u64) -> u64 {
    total - pn.net.node_ref::<Sink>(sink).flow(1).expect("flow reached the sink").rx_packets
}

/// Pre-FRR: cut at 2 s, 150 ms blind window until detection, when the
/// routers converge onto the long path; repair at 4.15 s, detected 150 ms
/// later, when they converge back. Exactly 30 packets die — 29 in the
/// blind window plus the one in flight on the cut link.
#[test]
fn global_reconvergence_loses_exactly_thirty_packets() {
    let (mut pn, sink, total) = voice_fish(150 * MSEC);
    pn.run_for(2 * SEC);
    pn.fail_link(1);
    pn.run_for(2150 * MSEC);
    pn.repair_link(1);
    pn.run_for(4 * SEC);
    assert_eq!(lost(&pn, sink, total), 30);
}

/// With FRR: same cut, 20 ms BFD detection. Exactly 4 packets die, all
/// in the detection gap. Then the bypass carries what reaches P1 while P1
/// holds its own repair, the rest of the network converges onto the
/// 3-hop long path, and the bypass stays armed. The call's last packet,
/// sent at 7.995 s, lands on that path before the run stops at 8 s.
#[test]
fn fast_reroute_loses_exactly_four_packets() {
    let (mut pn, sink, total) = voice_fish(20 * MSEC);
    assert_eq!(pn.protect_all_links(), 10, "both directions of all five links");
    pn.run_for(2 * SEC);
    pn.fail_link(1);
    pn.run_for(6 * SEC);
    assert_eq!(lost(&pn, sink, total), 4);
    assert_eq!(pn.active_switchovers(), 2);
}

/// The FRR story under both transports: the call loses the same 4
/// packets in all, each with a recorded cause, control bytes cross links
/// only in band, and once the local convergence delay has run out both
/// points of local repair hold SPF views equal to a fresh recomputation's.
/// (R2's FRR run checks that the bypass carries traffic: there the cut
/// link's egress queue is full when the cut lands. Here no voice packet is
/// past PE0 when it converges.)
#[test]
fn fast_reroute_story_converges_the_points_of_local_repair() {
    for mode in [ControlMode::Oracle, ControlMode::InBand] {
        let (mut pn, sink, total) = voice_fish_over(20 * MSEC, mode);
        pn.protect_all_links();
        pn.run_for(2 * SEC);
        pn.fail_link(1);
        pn.run_for(6 * SEC);
        assert_eq!(lost(&pn, sink, total), 4, "{mode:?}");
        assert_eq!(pn.recorder().flow_drops(1), 4, "{mode:?}");
        assert_eq!(pn.active_switchovers(), 2, "{mode:?}");
        let wire: u64 = (0..pn.topo.link_count()).map(|l| pn.control_bytes_on_link(l)).sum();
        assert_eq!(wire == 0, mode == ControlMode::Oracle, "control bytes on links: {wire}");
        let fresh = Igp::converge_filtered(&pn.topo, |l| l != 1);
        for plr in [1, 4] {
            let view = pn.effective_spf(plr);
            let want = fresh.tree(plr);
            assert_eq!(
                (&view.dist, &view.next_hop),
                (&want.dist, &want.next_hop),
                "node {plr} has not converged after its hold under {mode:?}"
            );
        }
    }
}
