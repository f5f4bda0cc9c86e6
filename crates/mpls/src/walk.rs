//! Label-stack walks: where does a pushed stack unwind?
//!
//! The paper separates VPN traffic by the label stack a packet carries
//! (§3–§4): a PE pushes a VPN label under a tunnel label, the backbone
//! swaps the tunnel label hop by hop, and the far PE dispatches the VPN
//! label into a VRF. Every static check of that — the verifier's stack
//! walks, a live network's LSP paths, LDP's own tests — asks where one
//! stack goes, so [`walk`] answers it once, over any [`LabelTables`].
//!
//! The walk follows installed state over the links that are up, without
//! rewriting a packet (that is [`crate::Lfib::forward`]'s job).
//! [`LOCAL_IFACE`] means "stay here and look up the exposed label", as a
//! router re-enters its own pipeline.

use crate::lfib::{LabelOp, Nhlfe, LOCAL_IFACE};

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
    let mut at = origin;
    let mut iface = out_iface;
    let stop = 'walk: {
        for _ in 0..limit {
            if iface != LOCAL_IFACE {
                let next = tables.far_end(at, iface).filter(|_| tables.link_up(at, iface));
                let Some(next) = next else {
                    break 'walk Stop::NoLink(at, iface);
                };
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
            match nhlfe.op {
                LabelOp::Swap(out) => *stack.last_mut().expect("non-empty") = out,
                LabelOp::SwapPush { swap, push } => {
                    *stack.last_mut().expect("non-empty") = swap;
                    stack.push(push);
                }
                LabelOp::Pop => {
                    stack.pop();
                }
            }
            iface = nhlfe.out_iface;
            if stack.is_empty() && iface == LOCAL_IFACE {
                break 'walk Stop::Delivered(at);
            }
        }
        Stop::HopLimit(limit)
    };
    Walk { path, stop }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Hand-built tables: `links[u][iface]` is the far end, `down` lists
    /// dead (node, iface) pairs, `vpn` the locally dispatched labels.
    #[derive(Default)]
    struct Tables {
        links: Vec<Vec<usize>>,
        down: Vec<(usize, usize)>,
        ilm: HashMap<(usize, u32), Nhlfe>,
        vpn: Vec<(usize, u32)>,
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
            assert_eq!(w, Walk { path: vec![0, 1, 2], stop: Stop::Delivered(2) }, "php {php}");
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
        assert_eq!(w, Walk { path: (0..6).collect(), stop: Stop::Delivered(5) });
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
        assert_eq!(w, Walk { path: vec![0, 1], stop: Stop::NoLink(1, 1) });
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
}
