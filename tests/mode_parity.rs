//! Oracle ↔ in-band control-plane parity.
//!
//! Both control modes run one delta engine and differ only in transport.
//! In-band (`ControlMode::InBand`), LSAs, LDP label messages and MP-BGP
//! route deltas travel as CS6 packets through the same links the data
//! plane uses, so convergence takes simulated *time*; the oracle hands
//! the same messages to the next router at once. Once quiescent, both
//! modes must agree on every piece of forwarding state: SPF trees, LSP
//! forwarding paths through the live LFIBs, VRF contents, VPN-label
//! dispatch tables, and the label values themselves — every LFIB entry
//! and every PE's tunnel table — since bring-up runs over the same
//! zero-latency transport in both modes, and both keep the labels LDP
//! bound then.

use mplsvpn::mpls::{FtnEntry, Lfib, Nhlfe};
use mplsvpn::net::Prefix;
use mplsvpn::routing::{LinkAttrs, RouteTarget, Topology};
use mplsvpn::sim::MSEC;
use mplsvpn::vpn::router::VrfRoute;
use mplsvpn::vpn::{
    BackboneBuilder, ControlMode, CoreRouter, PeRouter, ProviderNetwork, VpnId, VrfDigestRow,
};

/// One node's SPF view: (dist, next_hop) of the tree it forwards on.
type SpfRow = (Vec<u64>, Vec<Option<usize>>);

/// Fish: short path PE0-P1-PE4 (links 0,1), long PE0-P2-P3-PE4 (2,3,4).
fn fish() -> (Topology, Vec<usize>) {
    let mut topo = Topology::new(5);
    let attrs = LinkAttrs { cost: 1, capacity_bps: 10_000_000 };
    for (u, v) in [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)] {
        topo.add_link(u, v, attrs);
    }
    (topo, vec![0, 4])
}

/// Ladder: two rails 0-2-4 and 1-3-5 with rungs at every level.
fn ladder() -> (Topology, Vec<usize>) {
    let mut topo = Topology::new(6);
    let attrs = LinkAttrs { cost: 1, capacity_bps: 10_000_000 };
    for (u, v) in [(0, 2), (2, 4), (1, 3), (3, 5), (0, 1), (2, 3), (4, 5)] {
        topo.add_link(u, v, attrs);
    }
    (topo, vec![0, 5])
}

/// Everything forwarding-relevant, in deterministic order.
#[derive(Debug, PartialEq)]
struct Digest {
    /// Per backbone node: the SPF tree it forwards on.
    spf: Vec<SpfRow>,
    /// LSP node walk for every ordered PE pair.
    lsps: Vec<Option<Vec<usize>>>,
    /// Per (PE, VPN): sorted VRF rows (prefix, remote → egress/label/path).
    vrfs: Vec<Vec<VrfDigestRow>>,
    /// Per PE: sorted VPN-label dispatch table.
    ilm: Vec<Vec<(u32, usize)>>,
    /// Per backbone node: every LFIB entry, by incoming label.
    lfibs: Vec<Vec<(u32, Nhlfe)>>,
    /// Per PE: its LDP tunnel table, by egress PE.
    tunnels: Vec<Vec<Option<FtnEntry>>>,
}

fn digest(pn: &mut ProviderNetwork, vpns: &[VpnId]) -> Digest {
    let nodes = pn.topo.node_count();
    let spf = (0..nodes)
        .map(|u| {
            let t = pn.effective_spf(u);
            (t.dist.clone(), t.next_hop.clone())
        })
        .collect();
    let n_pe = pn.pe_count();
    let mut lsps = Vec::new();
    for i in 0..n_pe {
        for j in 0..n_pe {
            if i != j {
                lsps.push(pn.lsp_path(i, j));
            }
        }
    }
    let mut vrfs = Vec::new();
    for pe in 0..n_pe {
        for &vpn in vpns {
            if pn.vrf_handle(pe, vpn).is_some() {
                vrfs.push(pn.vrf_digest(pe, vpn));
            }
        }
    }
    let ilm = (0..n_pe)
        .map(|k| {
            let id = pn.pe_node(k);
            let mut rows: Vec<(u32, usize)> = pn
                .net
                .node_ref::<mplsvpn::vpn::PeRouter>(id)
                .vpn_ilm
                .iter()
                .map(|(&l, &v)| (l, v))
                .collect();
            rows.sort_unstable();
            rows
        })
        .collect();
    let lfibs = (0..nodes)
        .map(|u| {
            let id = pn.backbone_node(u);
            let lfib: &Lfib = if (0..n_pe).any(|k| pn.pe_node(k) == id) {
                &pn.net.node_ref::<PeRouter>(id).lfib
            } else {
                &pn.net.node_ref::<CoreRouter>(id).lfib
            };
            let mut rows: Vec<(u32, Nhlfe)> = lfib.iter().map(|(l, n)| (l, *n)).collect();
            rows.sort_unstable_by_key(|&(l, _)| l);
            rows
        })
        .collect();
    let tunnels =
        (0..n_pe).map(|k| pn.net.node_ref::<PeRouter>(pn.pe_node(k)).tunnels.clone()).collect();
    Digest { spf, lsps, vrfs, ilm, lfibs, tunnels }
}

/// Recursive next-hop resolution holds at every PE: the tunnel-table
/// entry toward each egress equals the control-plane view's FTN wherever
/// the view has an LSP, and every LDP-following VPN route toward that
/// egress resolves to exactly that entry.
fn assert_recursive_resolution(pn: &ProviderNetwork, what: &str) {
    for k in 0..pn.pe_count() {
        let pe = pn.net.node_ref::<PeRouter>(pn.pe_node(k));
        for egress in (0..pn.pe_count()).filter(|&e| e != k) {
            let entry = pe.tunnels[egress].as_ref();
            if let Some(ftn) = pn.view_tunnel(k, egress) {
                assert_eq!(entry, Some(&ftn), "{what}: PE{k} table slot {egress} != view FTN");
            }
            for vrf in &pe.vrfs {
                for (prefix, route) in vrf.fib.iter() {
                    if let VrfRoute::Remote { egress_pe, tunnel: None, .. } = route {
                        if *egress_pe == egress {
                            assert_eq!(
                                PeRouter::resolve_tunnel(&pe.tunnels, route),
                                entry,
                                "{what}: PE{k} {prefix} does not follow its tunnel table"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Runs the canonical churn scenario — cut, join-under-failure, repair,
/// detach, RT-policy add/remove — returning the digest at each
/// checkpoint, where the static verifier must also find the live tables
/// clean and recursive resolution must hold. Both transports get the same
/// settle time and converge by themselves.
fn run_scenario(
    topo: Topology,
    pes: Vec<usize>,
    cut: usize,
    mode: ControlMode,
    seed: u64,
) -> Vec<Digest> {
    let mut pn =
        BackboneBuilder::new(topo, pes).detection(20 * MSEC).seed(seed).control_mode(mode).build();
    let vpn_a = pn.new_vpn("acme");
    let vpn_b = pn.new_vpn("buynlarge");
    let vpns = [vpn_a, vpn_b];
    pn.add_site(vpn_a, 0, "10.1.0.0/16".parse().unwrap(), None);
    pn.add_site(vpn_a, 1, "10.2.0.0/16".parse().unwrap(), None);
    pn.add_site(vpn_b, 0, "10.1.0.0/16".parse().unwrap(), None); // overlap is the point
    let b1 = pn.add_site(vpn_b, 1, "10.9.0.0/16".parse().unwrap(), None);
    pn.run_for(100 * MSEC);
    let mut out = Vec::new();
    let mut checkpoint = |pn: &mut ProviderNetwork| {
        let what = format!("{mode:?} seed {seed} checkpoint {}", out.len());
        pn.verify().assert_clean(&what);
        assert_recursive_resolution(pn, &what);
        out.push(digest(pn, &vpns));
    };
    checkpoint(&mut pn);

    // Cut a short-path link; detection fires, then the LSAs.
    pn.fail_link(cut);
    pn.run_for(400 * MSEC);
    checkpoint(&mut pn);

    // Membership join while the failure is still active: the new route
    // must reach the other PE over the surviving path.
    pn.add_site(vpn_a, 1, "10.3.0.0/16".parse().unwrap(), None);
    pn.run_for(100 * MSEC);
    checkpoint(&mut pn);

    pn.repair_link(cut);
    pn.run_for(400 * MSEC);
    checkpoint(&mut pn);

    // Membership leave: the withdraw must evict the route remotely.
    pn.detach_site(b1);
    pn.run_for(100 * MSEC);
    checkpoint(&mut pn);

    // RT-policy extranet: import acme's routes into buynlarge at PE0,
    // then take the import back. Local re-filtering, zero messages. The
    // coupling is declared, so the verifier reports no leak.
    pn.declare_extranet(vpn_a, vpn_b);
    pn.add_import_target(0, vpn_b, RouteTarget(100 + vpn_a.0 as u64));
    pn.run_for(50 * MSEC);
    checkpoint(&mut pn);
    pn.remove_import_target(0, vpn_b, RouteTarget(100 + vpn_a.0 as u64));
    pn.run_for(50 * MSEC);
    checkpoint(&mut pn);
    out
}

fn assert_parity(name: &str, topo: fn() -> (Topology, Vec<usize>), cut: usize) {
    for seed in [1, 2, 3] {
        let (t, p) = topo();
        let oracle = run_scenario(t, p, cut, ControlMode::Oracle, seed);
        let (t, p) = topo();
        let inband = run_scenario(t, p, cut, ControlMode::InBand, seed);
        assert_eq!(oracle.len(), inband.len());
        for (k, (o, i)) in oracle.iter().zip(inband.iter()).enumerate() {
            assert_eq!(o, i, "{name} seed {seed}: modes diverge at checkpoint {k}");
        }
    }
}

#[test]
fn fish_modes_quiesce_to_identical_state() {
    assert_parity("fish", fish, 1);
}

#[test]
fn ladder_modes_quiesce_to_identical_state() {
    assert_parity("ladder", ladder, 1);
}

/// The RT-policy checkpoints actually do something: the extranet import
/// adds acme's remote routes to buynlarge's VRF and the removal takes
/// them back — in both modes, with zero control messages either way.
#[test]
fn rt_policy_is_a_local_delta_in_both_modes() {
    for mode in [ControlMode::Oracle, ControlMode::InBand] {
        let (t, p) = fish();
        let mut pn = BackboneBuilder::new(t, p).detection(20 * MSEC).control_mode(mode).build();
        let vpn_a = pn.new_vpn("acme");
        let vpn_b = pn.new_vpn("buynlarge");
        pn.add_site(vpn_a, 1, "10.2.0.0/16".parse().unwrap(), None);
        pn.add_site(vpn_b, 0, "10.8.0.0/16".parse().unwrap(), None);
        pn.run_for(100 * MSEC);
        let bgp_before = pn.control_stats().map_or(0, |s| s.pkts_by_proto[2]);
        let before = pn.vrf_digest(0, vpn_b);
        assert!(
            before.iter().all(|(p, _)| *p != "10.2.0.0/16".parse().unwrap()),
            "no extranet import yet"
        );

        pn.add_import_target(0, vpn_b, RouteTarget(100 + vpn_a.0 as u64));
        let mid = pn.vrf_digest(0, vpn_b);
        let imported = mid
            .iter()
            .find(|(p, _)| *p == "10.2.0.0/16".parse().unwrap())
            .expect("extranet import landed");
        let (egress, _label, path) = imported.1.as_ref().expect("imported route is remote");
        assert_eq!(*egress, 1);
        assert!(path.is_some(), "imported route rides a live tunnel");

        pn.remove_import_target(0, vpn_b, RouteTarget(100 + vpn_a.0 as u64));
        assert_eq!(pn.vrf_digest(0, vpn_b), before, "removal restores the old VRF");
        let bgp_after = pn.control_stats().map_or(0, |s| s.pkts_by_proto[2]);
        assert_eq!(bgp_after, bgp_before, "RT re-filtering costs zero messages");
    }
}

/// Taking an extranet import back restores the VRF's own route where the
/// partner VPN advertises the same prefix: acme's VRF at PE2 selects
/// globex's 10.1.0.0/16 at PE0 while it imports globex's target, and
/// acme's own at PE1 again once it no longer does — in both modes, with
/// zero control messages and the verifier clean.
#[test]
fn removed_import_target_restores_the_own_route_in_both_modes() {
    let overlap: Prefix = "10.1.0.0/16".parse().unwrap();
    let egress_at_pe2 = |pn: &mut ProviderNetwork, vpn: VpnId| {
        let rows = pn.vrf_digest(2, vpn);
        rows.into_iter().find(|(p, _)| *p == overlap).and_then(|(_, r)| r.map(|r| r.0))
    };
    for mode in [ControlMode::Oracle, ControlMode::InBand] {
        let mut topo = Topology::new(3);
        let attrs = LinkAttrs { cost: 1, capacity_bps: 10_000_000 };
        for (u, v) in [(0, 1), (1, 2), (0, 2)] {
            topo.add_link(u, v, attrs);
        }
        let mut pn = BackboneBuilder::new(topo, vec![0, 1, 2])
            .detection(20 * MSEC)
            .control_mode(mode)
            .build();
        let acme = pn.new_vpn("acme");
        let globex = pn.new_vpn("globex");
        pn.add_site(globex, 0, overlap, None);
        pn.add_site(acme, 1, overlap, None);
        pn.add_site(acme, 2, "10.2.0.0/16".parse().unwrap(), None);
        pn.run_for(100 * MSEC);
        assert_eq!(egress_at_pe2(&mut pn, acme), Some(1), "acme's own route ({mode:?})");
        let bgp_before = pn.control_stats().map_or(0, |s| s.pkts_by_proto[2]);

        let globex_rt = RouteTarget(100 + globex.0 as u64);
        pn.add_import_target(2, acme, globex_rt);
        assert_eq!(egress_at_pe2(&mut pn, acme), Some(0), "the extranet route ranks first");
        pn.remove_import_target(2, acme, globex_rt);
        assert_eq!(
            egress_at_pe2(&mut pn, acme),
            Some(1),
            "removing the target takes globex's route away ({mode:?})"
        );
        let bgp_after = pn.control_stats().map_or(0, |s| s.pkts_by_proto[2]);
        assert_eq!(bgp_after, bgp_before, "RT re-filtering costs zero messages");
        pn.verify().assert_clean(&format!("{mode:?} after the import is taken back"));
    }
}

/// A partition never panics, under either transport: an MP-BGP update
/// that cannot cross it is counted undeliverable, and a PE that has no
/// LSP toward a route's egress skips the install and counts it. Both
/// counters surface through the metrics snapshot.
#[test]
fn partition_counts_no_lsp_to_egress_instead_of_panicking() {
    for mode in [ControlMode::Oracle, ControlMode::InBand] {
        let mut topo = Topology::new(3);
        let attrs = LinkAttrs { cost: 1, capacity_bps: 10_000_000 };
        topo.add_link(0, 1, attrs);
        topo.add_link(1, 2, attrs);
        let mut pn =
            BackboneBuilder::new(topo, vec![0, 2]).detection(20 * MSEC).control_mode(mode).build();
        let vpn = pn.new_vpn("acme");
        let late = pn.new_vpn("latecomer");
        pn.add_site(vpn, 0, "10.1.0.0/16".parse().unwrap(), None);
        pn.add_site(vpn, 1, "10.2.0.0/16".parse().unwrap(), None);
        pn.add_site(late, 1, "10.8.0.0/16".parse().unwrap(), None);
        pn.run_for(100 * MSEC);
        // Cut the only link out of PE0: the backbone is partitioned.
        pn.fail_link(0);
        pn.run_for(100 * MSEC);
        // Join on the far side: the MP-BGP update cannot cross the
        // partition — counted as undeliverable, never a panic.
        pn.add_site(vpn, 1, "10.3.0.0/16".parse().unwrap(), None);
        // A new VRF on PE0 downloads a route toward PE1, which PE0's view
        // no longer reaches: the install is skipped and counted.
        pn.add_site(late, 0, "10.9.0.0/16".parse().unwrap(), None);
        pn.run_for(100 * MSEC);
        let stats = pn.control_stats().expect("control stats");
        assert!(
            stats.undeliverable >= 1,
            "partitioned update must be counted undeliverable ({mode:?}): {stats:?}"
        );
        assert!(pn.no_lsp_to_egress() >= 1, "the skipped install must be counted ({mode:?})");
        let snap = pn.metrics_snapshot();
        for name in ["control.undeliverable", "control.no_lsp_to_egress"] {
            let row = snap.counters.iter().find(|(n, _)| n == name).expect("counter exported");
            assert!(row.1 >= 1, "{name} ({mode:?})");
        }
    }
}

/// Detaching the only remote site leaves every importing VRF without the
/// route in both modes — including an extranet partner that imports it
/// through an extra route target.
#[test]
fn detach_withdraws_remotely_in_both_modes() {
    let far_prefix: Prefix = "10.2.0.0/16".parse().unwrap();
    for mode in [ControlMode::Oracle, ControlMode::InBand] {
        let (t, p) = fish();
        let mut pn = BackboneBuilder::new(t, p).detection(20 * MSEC).control_mode(mode).build();
        let vpn = pn.new_vpn("acme");
        let partner = pn.new_vpn("buynlarge");
        pn.add_site(vpn, 0, "10.1.0.0/16".parse().unwrap(), None);
        let far = pn.add_site(vpn, 1, far_prefix, None);
        pn.add_site(partner, 0, "10.8.0.0/16".parse().unwrap(), None);
        pn.add_import_target(0, partner, RouteTarget(100 + vpn.0 as u64));
        pn.run_for(100 * MSEC);
        for v in [vpn, partner] {
            assert!(
                pn.vrf_digest(0, v).iter().any(|(p, _)| *p == far_prefix),
                "{} holds the route before detach",
                pn.vpn_name(v)
            );
        }
        pn.detach_site(far);
        pn.run_for(100 * MSEC);
        for v in [vpn, partner] {
            assert!(
                pn.vrf_digest(0, v).iter().all(|(p, _)| *p != far_prefix),
                "withdraw evicted the route from {} ({mode:?})",
                pn.vpn_name(v)
            );
        }
    }
}

/// A route moved onto a TE tunnel keeps it when a site joins elsewhere:
/// the join sends one delta per importer and re-installs nothing else.
/// Only `reconverge()` puts the route back on its LDP tunnel.
#[test]
fn override_survives_a_join_elsewhere_in_both_modes() {
    let moved: Prefix = "10.2.0.0/16".parse().unwrap();
    let path_at_pe0 = |pn: &mut ProviderNetwork, vpn: VpnId| {
        let rows = pn.vrf_digest(0, vpn);
        rows.into_iter().find(|(p, _)| *p == moved).and_then(|(_, r)| r?.2)
    };
    for mode in [ControlMode::Oracle, ControlMode::InBand] {
        let (t, p) = fish();
        let mut pn = BackboneBuilder::new(t, p).detection(20 * MSEC).control_mode(mode).build();
        let vpn = pn.new_vpn("acme");
        pn.add_site(vpn, 0, "10.1.0.0/16".parse().unwrap(), None);
        pn.add_site(vpn, 1, moved, None);
        pn.run_for(100 * MSEC);
        let long_way = pn.install_explicit_lsp(&[0, 2, 3, 4]);
        pn.pin_prefix_to_tunnel(vpn, 0, moved, long_way);
        assert_eq!(path_at_pe0(&mut pn, vpn), Some(vec![0, 2, 3, 4]));

        pn.add_site(vpn, 1, "10.3.0.0/16".parse().unwrap(), None);
        pn.run_for(100 * MSEC);
        assert_eq!(
            path_at_pe0(&mut pn, vpn),
            Some(vec![0, 2, 3, 4]),
            "a join elsewhere kept the override ({mode:?})"
        );

        pn.reconverge();
        assert_eq!(
            path_at_pe0(&mut pn, vpn),
            Some(vec![0, 1, 4]),
            "reconverge restores the LDP tunnel ({mode:?})"
        );
    }
}

/// A route moved onto a TE tunnel keeps it through LDP repair: cutting
/// and restoring a link on the route's LDP path rewrites the PE's tunnel
/// table, not the explicitly bound route, under either transport. Only
/// the reference `reconverge()` restores the LDP tunnel.
#[test]
fn override_survives_ldp_repair_in_both_modes() {
    let moved: Prefix = "10.2.0.0/16".parse().unwrap();
    let path_at_pe0 = |pn: &mut ProviderNetwork, vpn: VpnId| {
        let rows = pn.vrf_digest(0, vpn);
        rows.into_iter().find(|(p, _)| *p == moved).and_then(|(_, r)| r?.2)
    };
    let link_1_3 = 2;
    for mode in [ControlMode::Oracle, ControlMode::InBand] {
        let (t, p) = ladder();
        let mut pn = BackboneBuilder::new(t, p).detection(20 * MSEC).control_mode(mode).build();
        let vpn = pn.new_vpn("acme");
        pn.add_site(vpn, 0, "10.1.0.0/16".parse().unwrap(), None);
        pn.add_site(vpn, 1, moved, None);
        pn.run_for(100 * MSEC);
        assert_eq!(pn.lsp_path(0, 1), Some(vec![0, 1, 3, 5]), "LDP path before the override");
        let te = pn.install_explicit_lsp(&[0, 2, 4, 5]);
        pn.pin_prefix_to_tunnel(vpn, 0, moved, te);
        assert_eq!(path_at_pe0(&mut pn, vpn), Some(vec![0, 2, 4, 5]));

        pn.fail_link(link_1_3);
        pn.run_for(300 * MSEC);
        assert_eq!(
            path_at_pe0(&mut pn, vpn),
            Some(vec![0, 2, 4, 5]),
            "LDP repair after the cut kept the override ({mode:?})"
        );
        pn.repair_link(link_1_3);
        pn.run_for(300 * MSEC);
        assert_eq!(
            path_at_pe0(&mut pn, vpn),
            Some(vec![0, 2, 4, 5]),
            "LDP repair after the restore kept the override ({mode:?})"
        );

        pn.reconverge();
        assert_eq!(
            path_at_pe0(&mut pn, vpn),
            Some(vec![0, 1, 3, 5]),
            "reconverge restores the LDP tunnel ({mode:?})"
        );
    }
}

/// `reconverge()` during a partition leaves the routers cut off from an
/// egress without a binding for its FEC. When the link comes back, each
/// of them allocates one on its next hop's first mapping and advertises
/// it, so the LSPs across the repaired link come back, under either
/// transport.
#[test]
fn reconverge_during_a_partition_recovers_after_the_repair() {
    for mode in [ControlMode::Oracle, ControlMode::InBand] {
        // PE0 - P1 - P2 - PE3; link 1 joins the two P routers.
        let mut topo = Topology::new(4);
        let attrs = LinkAttrs { cost: 1, capacity_bps: 10_000_000 };
        for u in 1..4 {
            topo.add_link(u - 1, u, attrs);
        }
        let mut pn =
            BackboneBuilder::new(topo, vec![0, 3]).detection(20 * MSEC).control_mode(mode).build();
        pn.fail_link(1);
        pn.run_for(300 * MSEC);
        pn.reconverge();
        assert_eq!(pn.lsp_path(0, 1), None, "partitioned ({mode:?})");
        pn.repair_link(1);
        pn.run_for(300 * MSEC);
        assert_eq!(pn.lsp_path(0, 1), Some(vec![0, 1, 2, 3]), "{mode:?}");
        assert_eq!(pn.lsp_path(1, 0), Some(vec![3, 2, 1, 0]), "{mode:?}");
        assert!(pn.view_tunnel(0, 1).is_some() && pn.view_tunnel(1, 0).is_some(), "{mode:?}");
        pn.verify().assert_clean(&format!("{mode:?} after the repair"));
    }
}
