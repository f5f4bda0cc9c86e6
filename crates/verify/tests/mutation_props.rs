//! Property tests: starting from a provably clean model, any single
//! random mutation of one field must produce a non-empty report whose
//! diagnostics belong to the matching code class.

mod common;

use common::{Node, Plane};
use netsim_mpls::lfib::{LabelOp, Nhlfe, LOCAL_IFACE};
use netsim_qos::RedParams;
use netsim_verify::{lint_red_profile, verify_isolation, StackWalk, VerifyReport, VrfPolicy};
use proptest::prelude::*;

const VPN_LABEL: u32 = 1 << 17;

/// A clean line backbone `0 — 1 — … — n-1`: one LSP from node 0 to node
/// n-1 (no PHP: the egress pops), terminated by a VPN label dispatch.
fn clean_line(n: usize) -> Plane {
    assert!(n >= 3);
    let tunnel = |i: usize| 100 + i as u32; // label node i expects
    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        let mut neighbors = Vec::new();
        if i > 0 {
            neighbors.push(Some(i - 1));
        }
        if i + 1 < n {
            neighbors.push(Some(i + 1));
        }
        let toward_next = usize::from(i > 0); // iface index of node i+1
        let mut ilm = Vec::new();
        if i > 0 && i + 1 < n {
            ilm.push((
                tunnel(i),
                Nhlfe { op: LabelOp::Swap(tunnel(i + 1)), out_iface: toward_next },
            ));
        } else if i + 1 == n {
            ilm.push((tunnel(i), Nhlfe { op: LabelOp::Pop, out_iface: LOCAL_IFACE }));
        }
        let local_labels = if i + 1 == n { vec![VPN_LABEL] } else { Vec::new() };
        nodes.push(Node { name: format!("N{i}"), neighbors, ilm, local_labels });
    }
    let walks = vec![StackWalk {
        origin: 0,
        fec: "site".to_string(),
        push: vec![VPN_LABEL, tunnel(1)],
        out_iface: 0,
        egress: n - 1,
    }];
    Plane { nodes, walks, ..Plane::default() }
}

/// Clean policy set: `vpns` VPNs × 2 VRFs each, one RT per VPN.
fn clean_vrfs(vpns: usize) -> Vec<VrfPolicy> {
    (0..vpns)
        .flat_map(|v| {
            (0..2).map(move |pe| VrfPolicy {
                name: format!("PE{pe}:vpn{v}"),
                vpn: v,
                imports: vec![100 + v as u64],
                exports: vec![100 + v as u64],
            })
        })
        .collect()
}

fn label_codes(report: &VerifyReport) -> bool {
    !report.diagnostics().is_empty()
        && report.diagnostics().iter().all(|d| d.code.starts_with("V-LBL-"))
}

proptest! {
    #[test]
    fn clean_line_stays_clean(n in 3usize..8) {
        let report = clean_line(n).verify();
        prop_assert!(report.is_clean());
        prop_assert_eq!(report.diagnostics().len(), 0);
    }

    #[test]
    fn removing_any_ilm_entry_is_detected(n in 3usize..8, pick in 0usize..32) {
        let mut plane = clean_line(n);
        // Every node from 1..n carries exactly the one entry on the path.
        let victim = 1 + pick % (n - 1);
        plane.nodes[victim].ilm.clear();
        let report = plane.verify();
        prop_assert!(label_codes(&report), "{}", report);
    }

    #[test]
    fn rewriting_any_swap_label_is_detected(
        n in 4usize..8,
        pick in 0usize..32,
        junk in (1u32 << 18)..(1u32 << 19),
    ) {
        let mut plane = clean_line(n);
        let victim = 1 + pick % (n - 2); // a swapping midpoint
        let (_, nhlfe) = &mut plane.nodes[victim].ilm[0];
        nhlfe.op = LabelOp::Swap(junk); // nobody allocated `junk`
        let report = plane.verify();
        prop_assert!(label_codes(&report), "{}", report);
    }

    #[test]
    fn corrupting_any_out_iface_is_detected(
        n in 4usize..8,
        pick in 0usize..32,
        junk in 7usize..64,
    ) {
        let mut plane = clean_line(n);
        let victim = 1 + pick % (n - 2);
        plane.nodes[victim].ilm[0].1.out_iface = junk; // degree ≤ 2
        let report = plane.verify();
        prop_assert!(label_codes(&report), "{}", report);
    }

    #[test]
    fn looping_any_midpoint_back_is_detected(n in 4usize..8, pick in 0usize..32) {
        let mut plane = clean_line(n);
        let victim = 1 + pick % (n - 2);
        // Send the path label back toward the previous node instead of on.
        let prev_label = 100 + victim as u32 - 1;
        plane.nodes[victim].ilm[0].1 = Nhlfe { op: LabelOp::Swap(prev_label), out_iface: 0 };
        let report = plane.verify();
        prop_assert!(label_codes(&report), "{}", report);
    }

    #[test]
    fn clean_vrf_policies_stay_clean(vpns in 1usize..6) {
        let mut report = VerifyReport::new();
        verify_isolation(&clean_vrfs(vpns), &[], &mut report);
        prop_assert!(report.is_clean());
        prop_assert_eq!(report.diagnostics().len(), 0);
    }

    #[test]
    fn any_single_rt_mutation_is_detected(
        vpns in 2usize..6,
        pick in 0usize..32,
        mode in 0u8..3,
    ) {
        let mut vrfs = clean_vrfs(vpns);
        let victim = pick % vrfs.len();
        match mode {
            // Lost import: the victim can no longer hear its own VPN.
            0 => vrfs[victim].imports.clear(),
            // Cross-VPN import: leaks a neighbouring VPN in.
            1 => {
                let other = (vrfs[victim].vpn + 1) % vpns;
                vrfs[victim].imports.push(100 + other as u64);
            }
            // Import of a target nobody exports.
            _ => vrfs[victim].imports.push(9_999),
        }
        let mut report = VerifyReport::new();
        verify_isolation(&vrfs, &[], &mut report);
        prop_assert!(!report.diagnostics().is_empty(), "{}", report);
        prop_assert!(
            report.diagnostics().iter().all(|d| d.code.starts_with("V-VRF-")),
            "{}", report
        );
    }

    #[test]
    fn disordered_red_thresholds_are_detected(
        min in 1_000usize..100_000,
        max in 1_000usize..100_000,
        cap in 1_000usize..100_000,
    ) {
        prop_assume!(min >= max || max > cap); // keep only broken configs
        // `RedParams::new` refuses inverted thresholds, so mutate the
        // fields the way a buggy config loader would.
        let mut params = RedParams::new(1, 2);
        params.min_th_bytes = min as f64;
        params.max_th_bytes = max as f64;
        let mut report = VerifyReport::new();
        lint_red_profile(&params, cap, "prop", &mut report);
        prop_assert!(!report.diagnostics().is_empty(), "{}", report);
        prop_assert!(
            report.diagnostics().iter().all(|d| d.code == netsim_verify::codes::QOS_WRED_ORDER),
            "{}", report
        );
    }
}
