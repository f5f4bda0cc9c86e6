//! Label-stack walks: where does a pushed stack unwind?
//!
//! The paper separates VPN traffic by the label stack a packet carries
//! (§3–§4): a PE pushes a VPN label under a tunnel label, the backbone
//! swaps the tunnel label hop by hop, and the far PE dispatches the VPN
//! label into a VRF. Every static check of that — the verifier's stack
//! walks, a live network's LSP paths, LDP's own tests — asks where one
//! stack goes, so [`walk`] answers it once, over any [`LabelTables`].
//!
//! The walk takes the [`Step`] a packet takes, bypass included, through
//! the same [`Step::apply`] as [`crate::Lfib::forward`], and crosses only
//! links that are up. [`LOCAL_IFACE`] means "stay here and look up the
//! exposed label", as a router re-enters its own pipeline.

use crate::lfib::{FtnEntry, Nhlfe, Step, LOCAL_IFACE};

/// The label-switching state a walk reads, one node at a time.
pub trait LabelTables {
    /// How many LSRs the tables hold, numbered from 0.
    fn node_count(&self) -> usize;
    /// The LSR attached at `node`'s interface `iface`, whether its link is
    /// up or not; `None` when no LSR is attached there.
    fn far_end(&self, node: usize, iface: usize) -> Option<usize>;
    /// Whether the link at `node`'s interface `iface` is up. Tables
    /// without link state keep the default: every link is up.
    fn link_up(&self, _node: usize, _iface: usize) -> bool {
        true
    }
    /// `node`'s NHLFE for incoming `label`, if it has an ILM entry.
    fn nhlfe(&self, node: usize, label: u32) -> Option<Nhlfe>;
    /// The bypass in force at `node`'s interface `iface`
    /// ([`crate::Lfib::bypass`]); none by default.
    fn bypass(&self, _node: usize, _iface: usize) -> Option<FtnEntry> {
        None
    }
    /// Whether `node` dispatches `label` locally (a PE's VPN label).
    fn dispatches(&self, node: usize, label: u32) -> bool;
}

/// Where a walk stopped, and at which node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stop {
    /// The stack fully unwound at this node.
    Delivered(usize),
    /// `(node, iface)`: no LSR is attached at the interface, or its link
    /// is down.
    NoLink(usize, usize),
    /// `(node, label)`: the node neither holds an ILM entry for the label
    /// nor dispatches it.
    NoIlm(usize, u32),
    /// `(node, label, left)`: the node dispatched the label locally with
    /// `left` labels still stacked under it.
    Dispatched(usize, u32, usize),
    /// The walk took this many hops without unwinding (a label loop).
    HopLimit(usize),
}

/// A finished walk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Walk {
    /// The nodes visited, origin first, one entry per link crossed.
    pub path: Vec<usize>,
    /// Where the walk stopped.
    pub stop: Stop,
    /// Each `(node, iface)` whose bypass the stack rode: the point of
    /// local repair and the protected interface, in walk order.
    pub bypassed: Vec<(usize, usize)>,
}

impl Walk {
    /// The path, when the stack unwound at `egress`.
    pub fn path_to(self, egress: usize) -> Option<Vec<usize>> {
        (self.stop == Stop::Delivered(egress)).then_some(self.path)
    }
}

/// Follows the stack `push` (bottom first, last entry outermost) imposed at
/// `origin` and sent out `out_iface`, hop by hop through `tables`, until it
/// unwinds or breaks. It crosses only links that are up, so it follows
/// the live state, and it stops with [`Stop::HopLimit`] after
/// `8 * node_count + 16` steps.
pub fn walk(tables: &impl LabelTables, origin: usize, push: &[u32], out_iface: usize) -> Walk {
    let limit = tables.node_count() * 8 + 16;
    let mut stack = push.to_vec();
    let mut path = vec![origin];
    let mut bypassed = Vec::new();
    let (mut at, mut iface) = (origin, out_iface);
    // The ingress rides the bypass in force on its first hop, as a PE does.
    if let Some(bypass) = tables.bypass(origin, out_iface) {
        bypassed.push((origin, out_iface));
        iface = bypass.impose(&mut stack);
    }
    let stop = 'walk: {
        for _ in 0..limit {
            if iface != LOCAL_IFACE {
                let next = tables.far_end(at, iface).filter(|_| tables.link_up(at, iface));
                let Some(next) = next else { break 'walk Stop::NoLink(at, iface) };
                at = next;
                path.push(at);
            }
            // Unlabelled arrival: the node IP-forwards, so delivery is here.
            let Some(&top) = stack.last() else { break 'walk Stop::Delivered(at) };
            let Some(nhlfe) = tables.nhlfe(at, top) else {
                if !tables.dispatches(at, top) {
                    break 'walk Stop::NoIlm(at, top);
                }
                stack.pop();
                break 'walk match stack.len() {
                    0 => Stop::Delivered(at),
                    left => Stop::Dispatched(at, top, left),
                };
            };
            let bypass = tables.bypass(at, nhlfe.out_iface);
            bypassed.extend(bypass.map(|_| (at, nhlfe.out_iface)));
            iface = Step { nhlfe, bypass }.apply(&mut stack);
            if stack.is_empty() && iface == LOCAL_IFACE {
                break 'walk Stop::Delivered(at);
            }
        }
        Stop::HopLimit(limit)
    };
    Walk { path, stop, bypassed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lfib::LabelOp;
    use std::collections::HashMap;

    /// Hand-built tables: `links[u][iface]` is the far end, `down` lists
    /// dead (node, iface) pairs, `vpn` the locally dispatched labels,
    /// `protection` the bypass installed on a (node, iface) and `marked`
    /// the (node, iface) pairs a failure detector has declared down.
    #[derive(Default)]
    struct Tables {
        links: Vec<Vec<usize>>,
        down: Vec<(usize, usize)>,
        ilm: HashMap<(usize, u32), Nhlfe>,
        vpn: Vec<(usize, u32)>,
        protection: HashMap<(usize, usize), FtnEntry>,
        marked: Vec<(usize, usize)>,
    }

    impl LabelTables for Tables {
        fn node_count(&self) -> usize {
            self.links.len()
        }
        fn far_end(&self, node: usize, iface: usize) -> Option<usize> {
            self.links[node].get(iface).copied()
        }
        fn link_up(&self, node: usize, iface: usize) -> bool {
            !self.down.contains(&(node, iface))
        }
        fn nhlfe(&self, node: usize, label: u32) -> Option<Nhlfe> {
            self.ilm.get(&(node, label)).copied()
        }
        fn bypass(&self, node: usize, iface: usize) -> Option<FtnEntry> {
            self.protection
                .get(&(node, iface))
                .copied()
                .filter(|_| self.marked.contains(&(node, iface)))
        }
        fn dispatches(&self, node: usize, label: u32) -> bool {
            self.vpn.contains(&(node, label))
        }
    }

    impl Tables {
        /// A line 0 — 1 — … — n−1: iface 0 leads left, the last iface right
        /// (node 0's only iface leads right).
        fn line(n: usize) -> Self {
            let links = (0..n)
                .map(|u| {
                    let mut adj = Vec::new();
                    if u > 0 {
                        adj.push(u - 1);
                    }
                    if u + 1 < n {
                        adj.push(u + 1);
                    }
                    adj
                })
                .collect();
            Tables { links, ..Tables::default() }
        }

        fn install(&mut self, node: usize, label: u32, op: LabelOp, out_iface: usize) {
            self.ilm.insert((node, label), Nhlfe { op, out_iface });
        }
    }

    const VPN: u32 = 1 << 17;

    /// Ingress PE 0, P 1, egress PE 2, tunnel label 20 → 21.
    fn tunnel(php: bool) -> Tables {
        let mut t = Tables::line(3);
        if php {
            t.install(1, 20, LabelOp::Pop, 1);
        } else {
            t.install(1, 20, LabelOp::Swap(21), 1);
            t.install(2, 21, LabelOp::Pop, LOCAL_IFACE);
        }
        t.vpn.push((2, VPN));
        t
    }

    #[test]
    fn php_and_non_php_egress_unwind_at_the_far_pe() {
        for php in [true, false] {
            let t = tunnel(php);
            let w = walk(&t, 0, &[20], 0);
            assert_eq!(
                w,
                Walk { path: vec![0, 1, 2], stop: Stop::Delivered(2), bypassed: vec![] },
                "php {php}"
            );
            // With a VPN label underneath, the far PE dispatches it.
            let w = walk(&t, 0, &[VPN, 20], 0);
            assert_eq!(w.stop, Stop::Delivered(2), "php {php}");
            assert_eq!(w.path_to(2), Some(vec![0, 1, 2]));
            // An unknown label exposed at the egress black-holes there.
            assert_eq!(walk(&t, 0, &[7, 20], 0).stop, Stop::NoIlm(2, 7));
        }
        // Adjacent PEs under PHP: nothing to push, delivery at the neighbour.
        let t = Tables::line(2);
        assert_eq!(walk(&t, 0, &[], 0).path_to(1), Some(vec![0, 1]));
    }

    /// Option-B stitching: two domains joined at ASBRs 2 and 3. PE 0 pushes
    /// [X, tunA]; P 1 pops tunA (PHP); ASBR 2 swaps X → Y onto the inter-AS
    /// link; ASBR 3 swaps Y → Lb and pushes domain B's tunnel label; P 4
    /// pops it (PHP); PE 5 dispatches Lb.
    #[test]
    fn swap_push_nests_a_tunnel_and_unwinds_at_the_far_pe() {
        const TUN_A: u32 = 16;
        const X: u32 = 30;
        const Y: u32 = 40;
        const TUN_B: u32 = 17;
        const LB: u32 = VPN + 1;
        let mut t = Tables::line(6);
        t.install(1, TUN_A, LabelOp::Pop, 1);
        t.install(2, X, LabelOp::Swap(Y), 1);
        t.install(3, Y, LabelOp::SwapPush { swap: LB, push: TUN_B }, 1);
        t.install(4, TUN_B, LabelOp::Pop, 1);
        t.vpn.push((5, LB));
        let w = walk(&t, 0, &[X, TUN_A], 0);
        assert_eq!(w, Walk { path: (0..6).collect(), stop: Stop::Delivered(5), bypassed: vec![] });
        // Without the pushed tunnel label, P 4 sees Lb and has no entry.
        t.install(3, Y, LabelOp::Swap(LB), 1);
        assert_eq!(walk(&t, 0, &[X, TUN_A], 0).stop, Stop::NoIlm(4, LB));
    }

    #[test]
    fn vpn_label_dispatched_with_labels_left_is_reported() {
        // The egress dispatches the VPN label while a stray label sits under it.
        let t = tunnel(true);
        let w = walk(&t, 0, &[99, VPN, 20], 0);
        assert_eq!(w.stop, Stop::Dispatched(2, VPN, 1));
        assert_eq!(w.path_to(2), None);
    }

    #[test]
    fn a_dead_link_stops_the_walk_where_it_was() {
        let mut t = tunnel(false);
        t.down.push((1, 1));
        let w = walk(&t, 0, &[20], 0);
        assert_eq!(w, Walk { path: vec![0, 1], stop: Stop::NoLink(1, 1), bypassed: vec![] });
        // An interface with no LSR behind it stops the same way.
        assert_eq!(walk(&t, 0, &[20], 5).stop, Stop::NoLink(0, 5));
    }

    #[test]
    fn a_swap_loop_hits_the_hop_limit() {
        let mut t = Tables::line(2);
        t.install(1, 20, LabelOp::Swap(21), 0);
        t.install(0, 21, LabelOp::Swap(20), 0);
        let w = walk(&t, 0, &[20], 0);
        assert_eq!(w.stop, Stop::HopLimit(2 * 8 + 16));
        assert_eq!(w.path.len(), 2 * 8 + 16 + 1);
    }

    const BYPASS: u32 = 30;

    /// The tunnel of [`tunnel`] with a detour 1 — 3 — 2 beside its link
    /// 1 — 2 (node 1's iface 1): P 1 protects that iface with a bypass
    /// 1-3-2 whose label 30 node 3 pops (PHP). The link is cut and node 1
    /// has detected it.
    fn protected_tunnel(php: bool) -> Tables {
        let mut t = tunnel(php);
        t.links[1].push(3);
        t.links[2].push(3);
        t.links.push(vec![1, 2]);
        t.install(3, BYPASS, LabelOp::Pop, 1);
        t.protection.insert((1, 1), FtnEntry { push: Some(BYPASS), out_iface: 2 });
        t.down.push((1, 1));
        t.marked.push((1, 1));
        t
    }

    #[test]
    fn a_swap_onto_a_bypass_unwinds_at_the_merge_point() {
        let mut t = protected_tunnel(false);
        // P 1 swaps 20 → 21 and pushes 30 over it; P 3 pops 30, so PE 2
        // sees the 21 it expected, pops it and dispatches the VPN label.
        let w = walk(&t, 0, &[VPN, 20], 0);
        let rode =
            Walk { path: vec![0, 1, 3, 2], stop: Stop::Delivered(2), bypassed: vec![(1, 1)] };
        assert_eq!(w, rode);
        // A repaired link still carries nothing until node 1 detects it.
        t.down.clear();
        assert_eq!(walk(&t, 0, &[VPN, 20], 0), rode);
        // Before detection the stack dies on the cut link, as packets do.
        t.down.push((1, 1));
        t.marked.clear();
        let w = walk(&t, 0, &[VPN, 20], 0);
        assert_eq!(w, Walk { path: vec![0, 1], stop: Stop::NoLink(1, 1), bypassed: vec![] });
    }

    #[test]
    fn a_php_pop_onto_a_bypass_wraps_the_bare_stack() {
        let t = protected_tunnel(true);
        // P 1 pops the tunnel label and wraps what is left (nothing, or the
        // VPN label) in the bypass label, which P 3 pops in turn.
        for push in [&[20][..], &[VPN, 20]] {
            let w = walk(&t, 0, push, 0);
            assert_eq!(w.bypassed, [(1, 1)], "{push:?}");
            assert_eq!(w.path_to(2), Some(vec![0, 1, 3, 2]), "{push:?}");
        }
    }

    #[test]
    fn the_origin_rides_the_bypass_on_its_first_hop() {
        let t = protected_tunnel(false);
        // Node 1's own FTN toward 2 pushes 21 out the protected iface.
        let w = walk(&t, 1, &[VPN, 21], 1);
        assert_eq!(
            w,
            Walk { path: vec![1, 3, 2], stop: Stop::Delivered(2), bypassed: vec![(1, 1)] }
        );
    }

    #[test]
    fn a_bypass_over_a_dead_link_stops_there() {
        let mut t = protected_tunnel(false);
        t.down.push((1, 2));
        let w = walk(&t, 0, &[VPN, 20], 0);
        assert_eq!(w, Walk { path: vec![0, 1], stop: Stop::NoLink(1, 2), bypassed: vec![(1, 1)] });
        assert_eq!(walk(&t, 1, &[21], 1).stop, Stop::NoLink(1, 2));
    }
}
