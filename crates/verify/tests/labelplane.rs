//! The label pass over hand-built planes: one clean line, and one
//! misconfiguration per diagnostic code.

mod common;

use common::{Node, Plane};
use netsim_mpls::lfib::{LabelOp, Nhlfe, LOCAL_IFACE};
use netsim_verify::{codes, StackWalk};

/// A 3-node line PE0—P1—PE2 with one LSP PE0→PE2 (no PHP) and a VPN
/// label terminating at PE2.
fn clean_plane() -> Plane {
    Plane {
        nodes: vec![
            Node { name: "PE0".into(), neighbors: vec![Some(1)], ..Node::default() },
            Node {
                name: "P1".into(),
                neighbors: vec![Some(0), Some(2)],
                ilm: vec![(17, Nhlfe { op: LabelOp::Swap(18), out_iface: 1 })],
                local_labels: vec![],
            },
            Node {
                name: "PE2".into(),
                neighbors: vec![Some(1)],
                ilm: vec![(18, Nhlfe { op: LabelOp::Pop, out_iface: LOCAL_IFACE })],
                local_labels: vec![1 << 17],
            },
        ],
        walks: vec![StackWalk {
            origin: 0,
            fec: "vpn/10.2.0.0/16".into(),
            push: vec![1 << 17, 17],
            out_iface: 0,
            egress: 2,
        }],
        ..Plane::default()
    }
}

#[test]
fn clean_plane_is_clean() {
    let r = clean_plane().verify();
    assert!(r.is_clean(), "{r}");
    assert_eq!(r.diagnostics().len(), 0, "{r}");
}

#[test]
fn missing_ilm_is_a_black_hole() {
    let mut plane = clean_plane();
    plane.nodes[2].ilm.clear();
    let r = plane.verify();
    assert!(r.has_code(codes::LBL_BLACKHOLE), "{r}");
}

#[test]
fn swap_to_unbound_label_dangles_downstream() {
    let mut plane = clean_plane();
    plane.nodes[1].ilm[0].1 = Nhlfe { op: LabelOp::Swap(999), out_iface: 1 };
    let r = plane.verify();
    assert!(r.has_code(codes::LBL_BLACKHOLE), "{r}");
}

#[test]
fn bad_interface_is_dangling() {
    let mut plane = clean_plane();
    plane.nodes[1].ilm[0].1.out_iface = 7;
    let r = plane.verify();
    assert!(r.has_code(codes::LBL_DANGLING), "{r}");
}

#[test]
fn vpn_label_in_lfib_collides() {
    let mut plane = clean_plane();
    plane.nodes[2].ilm.push((1 << 17, Nhlfe { op: LabelOp::Pop, out_iface: LOCAL_IFACE }));
    let r = plane.verify();
    assert!(r.has_code(codes::LBL_COLLISION), "{r}");
}

#[test]
fn two_node_swap_cycle_is_a_loop() {
    let plane = Plane {
        nodes: vec![
            Node {
                name: "A".into(),
                neighbors: vec![Some(1)],
                ilm: vec![(20, Nhlfe { op: LabelOp::Swap(21), out_iface: 0 })],
                local_labels: vec![],
            },
            Node {
                name: "B".into(),
                neighbors: vec![Some(0)],
                ilm: vec![(21, Nhlfe { op: LabelOp::Swap(20), out_iface: 0 })],
                local_labels: vec![],
            },
        ],
        ..Plane::default()
    };
    let r = plane.verify();
    assert!(r.has_code(codes::LBL_LOOP), "{r}");
}

#[test]
fn reserved_label_on_wire_is_php_inconsistency() {
    let mut plane = clean_plane();
    plane.nodes[1].ilm[0].1 = Nhlfe { op: LabelOp::Swap(3), out_iface: 1 };
    let r = plane.verify();
    assert!(r.has_code(codes::LBL_PHP), "{r}");
}

#[test]
fn misdelivery_is_flagged() {
    let mut plane = clean_plane();
    plane.walks[0].egress = 1;
    let r = plane.verify();
    assert!(r.has_code(codes::LBL_BLACKHOLE), "{r}");
}

#[test]
fn php_delivery_with_empty_stack_is_clean() {
    // PE0 adjacent to PE1, PHP: empty push, delivery at the neighbor.
    let plane = Plane {
        nodes: vec![
            Node { name: "PE0".into(), neighbors: vec![Some(1)], ..Node::default() },
            Node { name: "PE1".into(), neighbors: vec![Some(0)], ..Node::default() },
        ],
        walks: vec![StackWalk {
            origin: 0,
            fec: "FEC(1)".into(),
            push: vec![],
            out_iface: 0,
            egress: 1,
        }],
        ..Plane::default()
    };
    let r = plane.verify();
    assert!(r.is_clean(), "{r}");
}
