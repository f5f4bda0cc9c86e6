//! End-to-end negative tests for [`ProviderNetwork::verify`]: provision a
//! healthy backbone, corrupt one piece of control or QoS state through the
//! public surface, and assert the verifier reports the exact diagnostic
//! code for that misconfiguration class.

use mplsvpn_core::{codes, BackboneBuilder, CoreRouter, PeRouter, ProviderNetwork, VpnId};
use netsim_mpls::lfib::{LabelOp, Nhlfe, LOCAL_IFACE};
use netsim_net::addr::pfx;
use netsim_net::Dscp;
use netsim_routing::{LinkAttrs, RouteTarget, Topology};
use netsim_sim::SEC;

/// PE0 — P1 — PE2 with two VPNs, one site per (PE, VPN).
fn testbed() -> ProviderNetwork {
    let mut topo = Topology::new(3);
    let attrs = LinkAttrs { cost: 1, capacity_bps: 100_000_000 };
    topo.add_link(0, 1, attrs);
    topo.add_link(1, 2, attrs);
    let mut pn = BackboneBuilder::new(topo, vec![0, 2]).build();
    let acme = pn.new_vpn("acme");
    let globex = pn.new_vpn("globex");
    pn.add_site(acme, 0, pfx("10.1.0.0/16"), None);
    pn.add_site(acme, 1, pfx("10.2.0.0/16"), None);
    pn.add_site(globex, 0, pfx("10.1.0.0/16"), None);
    pn.add_site(globex, 1, pfx("10.2.0.0/16"), None);
    // Deliver the MP-BGP updates, so every VRF holds its remote route.
    pn.run_for(0);
    pn
}

#[test]
fn healthy_network_verifies_clean() {
    let pn = testbed();
    let report = pn.verify();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.diagnostics().len(), 0, "{report}");
}

#[test]
fn removed_transit_ilm_is_a_black_hole() {
    let mut pn = testbed();
    let p1 = pn.backbone_node(1);
    let label = {
        let p = pn.net.node_ref::<CoreRouter>(p1);
        p.lfib.iter().next().expect("P1 carries transit labels").0
    };
    pn.net.node_mut::<CoreRouter>(p1).lfib.remove(label);
    let report = pn.verify();
    assert!(report.has_code(codes::LBL_BLACKHOLE), "{report}");
}

#[test]
fn remote_route_without_a_tunnel_is_a_black_hole() {
    let mut pn = testbed();
    let pe0 = pn.pe_node(0);
    // PE0's VPN routes toward PE1 follow the tunnel table; empty that slot.
    pn.net.node_mut::<PeRouter>(pe0).tunnels[1] = None;
    let report = pn.verify();
    let holes: Vec<_> = report.with_code(codes::LBL_BLACKHOLE).collect();
    // Both VPNs' remote routes at PE0 lost their tunnel.
    assert_eq!(holes.len(), 2, "{report}");
    assert!(holes.iter().all(|d| d.location.starts_with("PE0 vrf")), "{report}");
}

#[test]
fn ilm_entry_out_a_nonexistent_interface_is_dangling() {
    let mut pn = testbed();
    let p1 = pn.backbone_node(1);
    pn.net
        .node_mut::<CoreRouter>(p1)
        .lfib
        .install(9_000, Nhlfe { op: LabelOp::Swap(9_001), out_iface: 42 });
    let report = pn.verify();
    assert!(report.has_code(codes::LBL_DANGLING), "{report}");
}

#[test]
fn mutual_swap_entries_form_a_label_loop() {
    let mut pn = testbed();
    // P1 sends 9000 back to PE0 as 9001; PE0 returns 9001 to P1 as 9000.
    let p1 = pn.backbone_node(1);
    let pe0 = pn.pe_node(0);
    pn.net
        .node_mut::<CoreRouter>(p1)
        .lfib
        .install(9_000, Nhlfe { op: LabelOp::Swap(9_001), out_iface: 0 });
    pn.net
        .node_mut::<PeRouter>(pe0)
        .lfib
        .install(9_001, Nhlfe { op: LabelOp::Swap(9_000), out_iface: 0 });
    let report = pn.verify();
    assert!(report.has_code(codes::LBL_LOOP), "{report}");
}

#[test]
fn vpn_label_shadowed_by_transit_lfib_collides() {
    let mut pn = testbed();
    let pe0 = pn.pe_node(0);
    let vpn_label = {
        let pe = pn.net.node_ref::<PeRouter>(pe0);
        *pe.vpn_ilm.keys().min().expect("PE0 terminates VPN labels")
    };
    pn.net
        .node_mut::<PeRouter>(pe0)
        .lfib
        .install(vpn_label, Nhlfe { op: LabelOp::Pop, out_iface: LOCAL_IFACE });
    let report = pn.verify();
    assert!(report.has_code(codes::LBL_COLLISION), "{report}");
}

#[test]
fn reserved_label_on_the_wire_is_a_php_violation() {
    let mut pn = testbed();
    let p1 = pn.backbone_node(1);
    // Swapping to label 3 (implicit null) would put a reserved label on
    // the wire instead of signalling it.
    pn.net
        .node_mut::<CoreRouter>(p1)
        .lfib
        .install(9_000, Nhlfe { op: LabelOp::Swap(3), out_iface: 1 });
    let report = pn.verify();
    assert!(report.has_code(codes::LBL_PHP), "{report}");
}

#[test]
fn cross_vpn_import_is_a_leak_until_declared() {
    let mut pn = testbed();
    let acme = VpnId(0);
    let globex = VpnId(1);
    // Leak: acme's VRF on PE0 imports globex's route target (100 + id).
    pn.add_import_target(0, acme, RouteTarget(101));
    let report = pn.verify();
    assert!(report.has_code(codes::VRF_LEAK), "{report}");
    assert!(!report.is_clean());

    // The same coupling is informational once the extranet is declared.
    pn.declare_extranet(acme, globex);
    let report = pn.verify();
    assert!(!report.has_code(codes::VRF_LEAK), "{report}");
    assert!(report.has_code(codes::VRF_EXTRANET), "{report}");
    assert!(report.is_clean(), "{report}");
}

#[test]
fn dropped_import_partitions_the_vpn() {
    let mut pn = testbed();
    let acme = VpnId(0);
    pn.remove_import_target(1, acme, RouteTarget(100));
    let report = pn.verify();
    assert!(report.has_code(codes::VRF_PARTITION), "{report}");
}

#[test]
fn import_of_an_unexported_target_is_useless() {
    let mut pn = testbed();
    pn.add_import_target(0, VpnId(0), RouteTarget(999));
    let report = pn.verify();
    assert!(report.has_code(codes::VRF_USELESS_IMPORT), "{report}");
}

#[test]
fn folding_ef_onto_best_effort_is_flagged() {
    let mut pn = testbed();
    let pe0 = pn.pe_node(0);
    pn.net.node_mut::<PeRouter>(pe0).exp_map.set_exp(Dscp::EF, 0);
    let report = pn.verify();
    assert!(report.has_code(codes::QOS_EXP_MAP), "{report}");
}

#[test]
fn ef_overcommit_fails_admission() {
    let mut pn = testbed();
    // 80 Mb/s of committed EF against 100 Mb/s links exceeds EF_SHARE.
    pn.commit_ef_contract("overcommitted voice", 80_000_000);
    let report = pn.verify();
    assert!(report.has_code(codes::QOS_EF_ADMISSION), "{report}");

    // Within the share it admits cleanly.
    let mut pn = testbed();
    pn.commit_ef_contract("sane voice", 10_000_000);
    assert!(pn.verify().is_clean());
}

/// Between a fiber cut and its detection the routers still forward into
/// the cut link. The stack walks cross live links only, so every FTN and
/// VRF route whose stack crosses the cut dangles (`V-LBL-001`) until the
/// routers detect the cut and repair around it.
#[test]
fn a_cut_link_dangles_every_stack_across_it_until_detection() {
    // A square 0-1-2-3 with PEs at nodes 0 and 2, one VPN, a site on each.
    let mut topo = Topology::new(4);
    let attrs = LinkAttrs { cost: 1, capacity_bps: 100_000_000 };
    for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
        topo.add_link(u, v, attrs);
    }
    let mut pn = BackboneBuilder::new(topo, vec![0, 2]).build();
    let acme = pn.new_vpn("acme");
    pn.add_site(acme, 0, pfx("10.1.0.0/16"), None);
    pn.add_site(acme, 1, pfx("10.2.0.0/16"), None);
    pn.run_for(0);
    pn.verify().assert_clean("before the cut");
    // Link 0 (0-1) is the first hop of PE0's LSP to PE1.
    assert_eq!(pn.lsp_path(0, 1), Some(vec![0, 1, 2]));
    pn.fail_link(0);
    let report = pn.verify();
    let found: Vec<_> =
        report.diagnostics().iter().map(|d| (d.code, d.location.as_str())).collect();
    let dangling = |loc| (codes::LBL_DANGLING, loc);
    assert_eq!(
        found,
        [
            dangling("PE0 FTN PE0 Fec(1)"),
            dangling("P1 FTN P1 Fec(0)"),
            dangling("PE1 FTN PE1 Fec(0)"),
            dangling("PE0 FTN PE0 vrf acme 10.2.0.0/16"),
            dangling("PE1 FTN PE1 vrf acme 10.1.0.0/16"),
        ],
        "{report}"
    );
    pn.run_for(SEC);
    pn.verify().assert_clean("after detection and repair");
}
