//! The TE pass over hand-built planes: admitted trunks that verify clean,
//! and one corruption of the trunk record or its LSPs per diagnostic code.

mod common;

use common::{Node, Plane};
use netsim_mpls::lfib::{LabelOp, Nhlfe};
use netsim_mpls::FtnEntry;
use netsim_routing::{LinkAttrs, Topology};
use netsim_verify::{codes, TePlane, Trunk};

const MBPS: u64 = 1_000_000;

/// A line PE0 — P1 — PE2 of 100 Mb/s links with one trunk PE0→PE2 per
/// demand. Trunk `i` rides its own PHP LSP: PE0 pushes label `17 + i`,
/// which P1 pops onto the link to PE2.
fn line_with_trunks(demands: &[u64]) -> Plane {
    let mut topo = Topology::new(3);
    let attrs = LinkAttrs { cost: 1, capacity_bps: 100 * MBPS };
    topo.add_link(0, 1, attrs);
    topo.add_link(1, 2, attrs);
    let labels = (17..).take(demands.len());
    let p1_ilm = labels.clone().map(|l| (l, Nhlfe { op: LabelOp::Pop, out_iface: 1 })).collect();
    let trunks = labels
        .zip(demands)
        .map(|(l, &demand_bps)| Trunk {
            src: 0,
            dst: 2,
            demand_bps,
            path: vec![0, 1, 2],
            ftn: FtnEntry { push: Some(l), out_iface: 0 },
        })
        .collect();
    Plane {
        nodes: vec![
            Node { name: "PE0".into(), neighbors: vec![Some(1)], ..Node::default() },
            Node {
                name: "P1".into(),
                neighbors: vec![Some(0), Some(2)],
                ilm: p1_ilm,
                ..Node::default()
            },
            Node { name: "PE2".into(), neighbors: vec![Some(1)], ..Node::default() },
        ],
        topo,
        trunks,
        ..Plane::default()
    }
}

#[test]
fn admitted_trunks_verify_clean() {
    let plane = line_with_trunks(&[40 * MBPS, 30 * MBPS]);
    assert_eq!(plane.reservations(), [70 * MBPS, 70 * MBPS]);
    let r = plane.verify();
    assert!(r.is_clean(), "{r}");
    assert_eq!(r.diagnostics().len(), 0, "{r}");
}

#[test]
fn oversubscribed_link_is_caught() {
    let r = line_with_trunks(&[90 * MBPS, 50 * MBPS]).verify();
    assert!(r.has_code(codes::TE_OVERSUB), "{r}");
    assert_eq!(r.diagnostics().len(), 2, "one per link: {r}");
}

/// A trunk no path could carry even on an empty network oversubscribes
/// every link of the path it records.
#[test]
fn unsatisfiable_trunk_is_caught() {
    let r = line_with_trunks(&[150 * MBPS]).verify();
    let found: Vec<_> = r.diagnostics().iter().map(|d| (d.code, d.location.as_str())).collect();
    assert_eq!(
        found,
        [(codes::TE_OVERSUB, "link 0-1"), (codes::TE_OVERSUB, "link 1-2")],
        "both links of its path: {r}"
    );
}

/// Each corruption leaves trunk 1's FTN off the path its record names.
#[test]
fn a_trunk_whose_lsp_misses_its_path_is_caught() {
    let lost: fn(&mut Plane) = |p| {
        p.nodes[1].ilm.remove(1);
    };
    let turned_back: fn(&mut Plane) = |p| p.nodes[1].ilm[1].1.out_iface = 0;
    let other_record: fn(&mut Plane) = |p| {
        p.trunks[1].path = vec![0, 1];
        p.trunks[1].dst = 1;
    };
    for corrupt in [lost, turned_back, other_record] {
        let mut plane = line_with_trunks(&[40 * MBPS, 30 * MBPS]);
        corrupt(&mut plane);
        let r = plane.verify();
        assert!(r.has_code(codes::TE_PATH), "{r}");
        assert_eq!(r.diagnostics().len(), 1, "only trunk 1: {r}");
    }
}

/// A recorded path whose consecutive nodes share no link reserves nothing
/// on that hop; the walk, which follows links, cannot match it.
#[test]
fn a_trunk_path_between_unlinked_nodes_is_caught() {
    let mut plane = line_with_trunks(&[40 * MBPS]);
    plane.trunks[0].path = vec![0, 2];
    assert_eq!(plane.reservations(), [0, 0]);
    let r = plane.verify();
    let found: Vec<_> = r.diagnostics().iter().map(|d| (d.code, d.location.as_str())).collect();
    assert_eq!(found, [(codes::TE_PATH, "trunk 0")], "{r}");
}
