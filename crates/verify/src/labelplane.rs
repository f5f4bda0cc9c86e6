//! Pass 1: label-plane integrity.
//!
//! The model is the installed forwarding state itself: per-router ILM
//! tables (label → NHLFE), the interface adjacency, locally terminated
//! labels (the PE's VPN dispatch space), and the set of ingress FTN
//! stacks. The pass cross-references them the way a packet would:
//!
//! * every swap/push target must resolve to an ILM entry (or local
//!   dispatch) at the interface's far end — otherwise `V-LBL-003`;
//! * reserved labels must never be written to the wire — `V-LBL-005`;
//! * one label claimed by both the LFIB and the VPN dispatch table of a
//!   router is ambiguous — `V-LBL-002`;
//! * the cross-router swap graph must be acyclic — `V-LBL-004`;
//! * every FTN walk must unwind its stack exactly at the node the
//!   control plane advertised — otherwise `V-LBL-001`/`V-LBL-003`.

use crate::diag::{codes, Severity, VerifyReport};
use netsim_mpls::lfib::{LabelOp, Nhlfe, LOCAL_IFACE};
use netsim_mpls::walk::{LabelTables, Stop};
use netsim_net::mpls::{MAX_LABEL, MIN_UNRESERVED_LABEL};

/// One router's label-plane state.
#[derive(Clone, Debug, Default)]
pub struct LabelNode {
    /// Display name, e.g. `PE0` or `P3`.
    pub name: String,
    /// `neighbors[iface]` is the node index at the far end of `iface`
    /// (`None` for interfaces that do not lead to another LSR, e.g.
    /// customer-facing ports).
    pub neighbors: Vec<Option<usize>>,
    /// Installed ILM entries: (incoming label, NHLFE).
    pub ilm: Vec<(u32, Nhlfe)>,
    /// Labels this node terminates locally (e.g. the PE's VPN labels).
    pub local_labels: Vec<u32>,
}

/// An ingress label stack to walk: an LDP FTN or a VPN route's
/// (VPN label + tunnel) stack.
#[derive(Clone, Debug)]
pub struct StackWalk {
    /// Node the stack is imposed at.
    pub origin: usize,
    /// What the stack is for (goes into diagnostic locations).
    pub fec: String,
    /// Labels to push, bottom first (last entry ends up outermost).
    pub push: Vec<u32>,
    /// First-hop interface at the origin.
    pub out_iface: usize,
    /// Node where the stack must fully unwind (the advertised egress).
    pub expect_delivery: Option<usize>,
}

/// The whole backbone's label plane.
#[derive(Clone, Debug, Default)]
pub struct LabelPlane {
    /// Per-router state, indexed by node id.
    pub nodes: Vec<LabelNode>,
    /// All ingress stacks to validate.
    pub walks: Vec<StackWalk>,
}

fn lookup(node: &LabelNode, label: u32) -> Option<&Nhlfe> {
    node.ilm.iter().find(|(l, _)| *l == label).map(|(_, n)| n)
}

fn reachable_label(node: &LabelNode, label: u32) -> bool {
    lookup(node, label).is_some() || node.local_labels.contains(&label)
}

/// Checks a label value that is about to be written to the wire.
fn check_wire_label(plane_node: &str, what: &str, label: u32, report: &mut VerifyReport) -> bool {
    if label > MAX_LABEL {
        report.push(
            codes::LBL_DANGLING,
            Severity::Error,
            format!("{plane_node} {what}"),
            format!("label {label} exceeds the 20-bit label space"),
        );
        return false;
    }
    if label < MIN_UNRESERVED_LABEL {
        report.push(
            codes::LBL_PHP,
            Severity::Error,
            format!("{plane_node} {what}"),
            format!(
                "reserved label {label} would appear on the wire \
                 (implicit/explicit null must be signalled, not forwarded)"
            ),
        );
        return false;
    }
    true
}

/// Static per-entry checks: interface validity, wire-label validity,
/// next-hop ILM presence, local collisions.
fn check_entries(plane: &LabelPlane, report: &mut VerifyReport) {
    for (u, node) in plane.nodes.iter().enumerate() {
        for &l in &node.local_labels {
            if lookup(node, l).is_some() {
                report.push(
                    codes::LBL_COLLISION,
                    Severity::Error,
                    format!("{} label {l}", node.name),
                    "label claimed by both the LFIB and the VPN dispatch table".to_string(),
                );
            }
        }
        for &(in_label, nhlfe) in &node.ilm {
            let loc = format!("{} ILM {in_label}", node.name);
            let out_label = match nhlfe.op {
                LabelOp::Swap(out) => Some(out),
                LabelOp::SwapPush { swap, push } => {
                    check_wire_label(&node.name, &format!("ILM {in_label} swap"), swap, report);
                    Some(push)
                }
                LabelOp::Pop => None,
            };
            if nhlfe.out_iface == LOCAL_IFACE {
                if out_label.is_some() {
                    report.push(
                        codes::LBL_DANGLING,
                        Severity::Error,
                        loc,
                        "swap entry targets the local-delivery interface".to_string(),
                    );
                }
                continue;
            }
            let Some(Some(v)) = node.neighbors.get(nhlfe.out_iface).copied() else {
                report.push(
                    codes::LBL_DANGLING,
                    Severity::Error,
                    loc,
                    format!("out_iface {} has no LSR attached", nhlfe.out_iface),
                );
                continue;
            };
            if let Some(out) = out_label {
                if !check_wire_label(&node.name, &format!("ILM {in_label}"), out, report) {
                    continue;
                }
                let next = &plane.nodes[v];
                if !reachable_label(next, out) {
                    report.push(
                        codes::LBL_BLACKHOLE,
                        Severity::Error,
                        loc,
                        format!(
                            "outgoing label {out} has no ILM entry at next hop {} (hop {u}→{v})",
                            next.name
                        ),
                    );
                }
            }
        }
    }
}

/// Cycle detection over the cross-router `(node, label)` swap graph.
fn check_loops(plane: &LabelPlane, report: &mut VerifyReport) {
    // States and edges: (u, l) --Swap(out)/SwapPush{push}--> (v, out|push).
    let mut states: Vec<(usize, u32)> = Vec::new();
    let mut index = std::collections::HashMap::new();
    for (u, node) in plane.nodes.iter().enumerate() {
        for &(l, _) in &node.ilm {
            index.insert((u, l), states.len());
            states.push((u, l));
        }
    }
    let next_state = |&(u, l): &(usize, u32)| -> Option<usize> {
        let node = &plane.nodes[u];
        let nhlfe = lookup(node, l)?;
        let out = match nhlfe.op {
            LabelOp::Swap(out) => out,
            LabelOp::SwapPush { push, .. } => push,
            LabelOp::Pop => return None,
        };
        let v = (*node.neighbors.get(nhlfe.out_iface)?)?;
        index.get(&(v, out)).copied()
    };
    // Iterative three-color DFS.
    let mut color = vec![0u8; states.len()]; // 0 white, 1 gray, 2 black
    for start in 0..states.len() {
        if color[start] != 0 {
            continue;
        }
        let mut stack = vec![(start, false)];
        while let Some((s, processed)) = stack.pop() {
            if processed {
                color[s] = 2;
                continue;
            }
            if color[s] == 2 {
                continue;
            }
            color[s] = 1;
            stack.push((s, true));
            if let Some(t) = next_state(&states[s]) {
                if color[t] == 1 {
                    let (u, l) = states[t];
                    report.push(
                        codes::LBL_LOOP,
                        Severity::Error,
                        format!("{} label {l}", plane.nodes[u].name),
                        "label-switched path loops back on itself".to_string(),
                    );
                } else if color[t] == 0 {
                    stack.push((t, false));
                }
            }
        }
    }
}

impl LabelTables for LabelPlane {
    fn far_end(&self, node: usize, iface: usize) -> Option<usize> {
        self.nodes[node].neighbors.get(iface).copied().flatten()
    }
    fn nhlfe(&self, node: usize, label: u32) -> Option<Nhlfe> {
        lookup(&self.nodes[node], label).copied()
    }
    fn dispatches(&self, node: usize, label: u32) -> bool {
        self.nodes[node].local_labels.contains(&label)
    }
}

/// Walks one ingress stack and reports where it stops short of the
/// advertised egress.
fn check_walk(plane: &LabelPlane, walk: &StackWalk, report: &mut VerifyReport) {
    let origin = &plane.nodes[walk.origin];
    for &l in &walk.push {
        if !check_wire_label(&origin.name, &format!("FTN {} push", walk.fec), l, report) {
            return;
        }
    }
    let name = |u: usize| &plane.nodes[u].name;
    let stop =
        netsim_mpls::walk::walk(plane, plane.nodes.len(), walk.origin, &walk.push, walk.out_iface)
            .stop;
    let (code, message) = match stop {
        Stop::Delivered(at) => match walk.expect_delivery {
            Some(expect) if expect != at => (
                codes::LBL_BLACKHOLE,
                format!("stack unwound at {} but the advertised egress is node {expect}", name(at)),
            ),
            _ => return,
        },
        Stop::NoLink(node, iface) => {
            (codes::LBL_DANGLING, format!("interface {iface} at {} leads nowhere", name(node)))
        }
        Stop::NoIlm(node, label) => (
            codes::LBL_BLACKHOLE,
            format!("no ILM entry for label {label} at {} — traffic black-holes", name(node)),
        ),
        Stop::Dispatched(node, label, left) => (
            codes::LBL_BLACKHOLE,
            format!(
                "VPN label {label} dispatched at {} with {left} labels still stacked",
                name(node)
            ),
        ),
        Stop::HopLimit(limit) => {
            (codes::LBL_LOOP, format!("walk exceeded {limit} hops without delivery (label loop)"))
        }
    };
    report.push(code, Severity::Error, format!("{} FTN {}", origin.name, walk.fec), message);
}

/// Runs the full label-plane pass over a model.
pub fn verify_label_plane(plane: &LabelPlane, report: &mut VerifyReport) {
    check_entries(plane, report);
    check_loops(plane, report);
    for walk in &plane.walks {
        check_walk(plane, walk, report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-node line PE0—P1—PE2 with one LSP PE0→PE2 (no PHP) and a VPN
    /// label terminating at PE2.
    fn clean_plane() -> LabelPlane {
        LabelPlane {
            nodes: vec![
                LabelNode {
                    name: "PE0".into(),
                    neighbors: vec![Some(1)],
                    ilm: vec![],
                    local_labels: vec![],
                },
                LabelNode {
                    name: "P1".into(),
                    neighbors: vec![Some(0), Some(2)],
                    ilm: vec![(17, Nhlfe { op: LabelOp::Swap(18), out_iface: 1 })],
                    local_labels: vec![],
                },
                LabelNode {
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
                expect_delivery: Some(2),
            }],
        }
    }

    #[test]
    fn clean_plane_is_clean() {
        let mut r = VerifyReport::new();
        verify_label_plane(&clean_plane(), &mut r);
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.diagnostics().len(), 0, "{r}");
    }

    #[test]
    fn missing_ilm_is_a_black_hole() {
        let mut plane = clean_plane();
        plane.nodes[2].ilm.clear();
        let mut r = VerifyReport::new();
        verify_label_plane(&plane, &mut r);
        assert!(r.has_code(codes::LBL_BLACKHOLE), "{r}");
    }

    #[test]
    fn swap_to_unbound_label_dangles_downstream() {
        let mut plane = clean_plane();
        plane.nodes[1].ilm[0].1 = Nhlfe { op: LabelOp::Swap(999), out_iface: 1 };
        let mut r = VerifyReport::new();
        verify_label_plane(&plane, &mut r);
        assert!(r.has_code(codes::LBL_BLACKHOLE), "{r}");
    }

    #[test]
    fn bad_interface_is_dangling() {
        let mut plane = clean_plane();
        plane.nodes[1].ilm[0].1.out_iface = 7;
        let mut r = VerifyReport::new();
        verify_label_plane(&plane, &mut r);
        assert!(r.has_code(codes::LBL_DANGLING), "{r}");
    }

    #[test]
    fn vpn_label_in_lfib_collides() {
        let mut plane = clean_plane();
        plane.nodes[2].ilm.push((1 << 17, Nhlfe { op: LabelOp::Pop, out_iface: LOCAL_IFACE }));
        let mut r = VerifyReport::new();
        verify_label_plane(&plane, &mut r);
        assert!(r.has_code(codes::LBL_COLLISION), "{r}");
    }

    #[test]
    fn two_node_swap_cycle_is_a_loop() {
        let plane = LabelPlane {
            nodes: vec![
                LabelNode {
                    name: "A".into(),
                    neighbors: vec![Some(1)],
                    ilm: vec![(20, Nhlfe { op: LabelOp::Swap(21), out_iface: 0 })],
                    local_labels: vec![],
                },
                LabelNode {
                    name: "B".into(),
                    neighbors: vec![Some(0)],
                    ilm: vec![(21, Nhlfe { op: LabelOp::Swap(20), out_iface: 0 })],
                    local_labels: vec![],
                },
            ],
            walks: vec![],
        };
        let mut r = VerifyReport::new();
        verify_label_plane(&plane, &mut r);
        assert!(r.has_code(codes::LBL_LOOP), "{r}");
    }

    #[test]
    fn reserved_label_on_wire_is_php_inconsistency() {
        let mut plane = clean_plane();
        plane.nodes[1].ilm[0].1 = Nhlfe { op: LabelOp::Swap(3), out_iface: 1 };
        let mut r = VerifyReport::new();
        verify_label_plane(&plane, &mut r);
        assert!(r.has_code(codes::LBL_PHP), "{r}");
    }

    #[test]
    fn misdelivery_is_flagged() {
        let mut plane = clean_plane();
        plane.walks[0].expect_delivery = Some(1);
        let mut r = VerifyReport::new();
        verify_label_plane(&plane, &mut r);
        assert!(r.has_code(codes::LBL_BLACKHOLE), "{r}");
    }

    #[test]
    fn php_delivery_with_empty_stack_is_clean() {
        // PE0 adjacent to PE1, PHP: empty push, delivery at the neighbor.
        let plane = LabelPlane {
            nodes: vec![
                LabelNode {
                    name: "PE0".into(),
                    neighbors: vec![Some(1)],
                    ilm: vec![],
                    local_labels: vec![],
                },
                LabelNode {
                    name: "PE1".into(),
                    neighbors: vec![Some(0)],
                    ilm: vec![],
                    local_labels: vec![],
                },
            ],
            walks: vec![StackWalk {
                origin: 0,
                fec: "FEC(1)".into(),
                push: vec![],
                out_iface: 0,
                expect_delivery: Some(1),
            }],
        };
        let mut r = VerifyReport::new();
        verify_label_plane(&plane, &mut r);
        assert!(r.is_clean(), "{r}");
    }
}
