//! Pass 1: label-plane integrity.
//!
//! The pass reads the installed forwarding state itself, through
//! [`LabelPlane`]: per-router ILM tables (label → NHLFE), the interface
//! adjacency and link state, the labels a PE dispatches locally (its VPN
//! labels), plus the set of ingress stacks to walk. It cross-references
//! them the way a packet would:
//!
//! * every swap/push target must resolve to an ILM entry (or local
//!   dispatch) at the interface's far end — otherwise `V-LBL-003`;
//! * reserved labels must never be written to the wire — `V-LBL-005`;
//! * an ILM label that the router also dispatches locally is
//!   ambiguous — `V-LBL-002`;
//! * the cross-router swap graph must be acyclic — `V-LBL-004`;
//! * every stack walk must unwind its stack exactly at the node the
//!   control plane advertised — otherwise `V-LBL-001`/`V-LBL-003`.
//!
//! The per-entry checks read what is installed whatever the link state:
//! an idle entry over a cut link (a bypass, say) is not an error. The
//! stack walks follow the links that are up, as traffic does, so an
//! ingress stack that crosses a cut link is `V-LBL-001` until the control
//! plane moves it.

use std::collections::HashSet;

use crate::diag::{codes, Severity, VerifyReport};
use netsim_mpls::lfib::{LabelOp, Nhlfe, LOCAL_IFACE};
use netsim_mpls::walk::{walk, LabelTables, Stop};
use netsim_net::mpls::{MAX_LABEL, MIN_UNRESERVED_LABEL};

/// The label plane the pass reads: the [`LabelTables`] a stack walk
/// reads, plus what only this pass needs.
pub trait LabelPlane: LabelTables {
    /// `node`'s name in diagnostics, e.g. `PE0` or `P3`.
    fn node_name(&self, node: usize) -> String;
    /// `node`'s installed ILM entries: (incoming label, NHLFE).
    fn ilm(&self, node: usize) -> impl Iterator<Item = (u32, Nhlfe)> + '_;
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

/// Checks a label value that is about to be written to the wire; `loc`
/// names where, for a diagnostic.
fn check_wire_label(label: u32, loc: impl FnOnce() -> String, report: &mut VerifyReport) -> bool {
    if label > MAX_LABEL {
        report.push(
            codes::LBL_DANGLING,
            Severity::Error,
            loc(),
            format!("label {label} exceeds the 20-bit label space"),
        );
        return false;
    }
    if label < MIN_UNRESERVED_LABEL {
        report.push(
            codes::LBL_PHP,
            Severity::Error,
            loc(),
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
fn check_entries(plane: &impl LabelPlane, report: &mut VerifyReport) {
    for u in 0..plane.node_count() {
        for (in_label, nhlfe) in plane.ilm(u) {
            let loc = || format!("{} ILM {in_label}", plane.node_name(u));
            if plane.dispatches(u, in_label) {
                report.push(
                    codes::LBL_COLLISION,
                    Severity::Error,
                    format!("{} label {in_label}", plane.node_name(u)),
                    "label claimed by both the LFIB and the VPN dispatch table".to_string(),
                );
            }
            let out_label = match nhlfe.op {
                LabelOp::Swap(out) => Some(out),
                LabelOp::SwapPush { swap, push } => {
                    check_wire_label(swap, || format!("{} swap", loc()), report);
                    Some(push)
                }
                LabelOp::Pop => None,
            };
            if nhlfe.out_iface == LOCAL_IFACE {
                if out_label.is_some() {
                    report.push(
                        codes::LBL_DANGLING,
                        Severity::Error,
                        loc(),
                        "swap entry targets the local-delivery interface".to_string(),
                    );
                }
                continue;
            }
            let Some(v) = plane.far_end(u, nhlfe.out_iface) else {
                report.push(
                    codes::LBL_DANGLING,
                    Severity::Error,
                    loc(),
                    format!("out_iface {} has no LSR attached", nhlfe.out_iface),
                );
                continue;
            };
            if let Some(out) = out_label {
                if !check_wire_label(out, loc, report) {
                    continue;
                }
                if plane.nhlfe(v, out).is_none() && !plane.dispatches(v, out) {
                    report.push(
                        codes::LBL_BLACKHOLE,
                        Severity::Error,
                        loc(),
                        format!(
                            "outgoing label {out} has no ILM entry at next hop {} (hop {u}→{v})",
                            plane.node_name(v)
                        ),
                    );
                }
            }
        }
    }
}

/// Cycle detection over the cross-router `(node, label)` swap graph. Each
/// ILM entry leads to at most one next entry, so the pass follows each
/// chain once and reports the first entry that a chain reaches twice.
fn check_loops(plane: &impl LabelPlane, report: &mut VerifyReport) {
    // (u, l) --Swap(out)/SwapPush{push}--> (v, out|push), when v has an
    // ILM entry for it.
    let next = |(u, l): (usize, u32)| -> Option<(usize, u32)> {
        let nhlfe = plane.nhlfe(u, l)?;
        let out = match nhlfe.op {
            LabelOp::Swap(out) => out,
            LabelOp::SwapPush { push, .. } => push,
            LabelOp::Pop => return None,
        };
        let v = plane.far_end(u, nhlfe.out_iface)?;
        plane.nhlfe(v, out).map(|_| (v, out))
    };
    let mut done = HashSet::new();
    for u in 0..plane.node_count() {
        for (l, _) in plane.ilm(u) {
            let mut chain = Vec::new();
            let mut at = Some((u, l));
            while let Some(s) = at.filter(|s| !done.contains(s)) {
                if chain.contains(&s) {
                    report.push(
                        codes::LBL_LOOP,
                        Severity::Error,
                        format!("{} label {}", plane.node_name(s.0), s.1),
                        "label-switched path loops back on itself".to_string(),
                    );
                    break;
                }
                chain.push(s);
                at = next(s);
            }
            done.extend(chain);
        }
    }
}

/// Walks one ingress stack over the live links and reports where it stops
/// short of the advertised egress.
fn check_walk(plane: &impl LabelPlane, stack: &StackWalk, report: &mut VerifyReport) {
    let loc = || format!("{} FTN {}", plane.node_name(stack.origin), stack.fec);
    for &l in &stack.push {
        if !check_wire_label(l, || format!("{} push", loc()), report) {
            return;
        }
    }
    let name = |u: usize| plane.node_name(u);
    let (code, message) = match walk(plane, stack.origin, &stack.push, stack.out_iface).stop {
        Stop::Delivered(at) => match stack.expect_delivery {
            Some(expect) if expect != at => (
                codes::LBL_BLACKHOLE,
                format!("stack unwound at {} but the advertised egress is node {expect}", name(at)),
            ),
            _ => return,
        },
        Stop::NoLink(node, iface) => {
            let why =
                if plane.far_end(node, iface).is_some() { "is down" } else { "leads nowhere" };
            (codes::LBL_DANGLING, format!("interface {iface} at {} {why}", name(node)))
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
    report.push(code, Severity::Error, loc(), message);
}

/// Runs the full label-plane pass: the per-entry and loop checks over
/// every node's installed ILM, then one walk per ingress stack in `walks`.
pub fn verify_label_plane(plane: &impl LabelPlane, walks: &[StackWalk], report: &mut VerifyReport) {
    check_entries(plane, report);
    check_loops(plane, report);
    for stack in walks {
        check_walk(plane, stack, report);
    }
}
