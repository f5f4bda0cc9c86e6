//! LDP emulation: downstream-unsolicited label distribution in synchronous
//! rounds, with every Label Mapping message counted.
//!
//! The paper's §4: "The ISP's routing system distributes this information by
//! piggybacking labels in the routing protocol updates or by using a label
//! distribution protocol." This module is that label distribution protocol
//! for the *tunnel* LSPs (PE-to-PE transport); the VPN route labels ride the
//! BGP emulation in `netsim-routing`.
//!
//! The run is a fixpoint over rounds: the egress of each FEC advertises a
//! binding; each LSR, on hearing a binding from its IGP next hop toward the
//! FEC, allocates a local label, installs ILM/FTN state, and re-advertises
//! (ordered control mode). Liberal retention: bindings from non-next-hop
//! neighbors are remembered (and counted) but not installed.
//!
//! A provider network's routers run the same protocol as per-router
//! deltas from a cold start, which replay these rounds. [`LdpDomain`] is
//! the reference they are checked against: `mplsvpn-core`'s
//! `bring_up_matches_the_global_ldp_run` test and this crate's proptests
//! compare with [`LdpDomain::run`]. No model code runs it.

use std::collections::HashMap;

use crate::label::LabelSpace;
use crate::lfib::{FtnEntry, LabelOp, Lfib, Nhlfe, LOCAL_IFACE};
use crate::walk::LabelTables;
use netsim_net::mpls::IMPLICIT_NULL;

/// A forwarding equivalence class. In this emulator a FEC identifies the
/// egress LSR's loopback (one tunnel LSP per egress PE), but the value is
/// opaque to LDP.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Fec(pub u32);

/// LDP behaviour switches.
#[derive(Clone, Copy, Debug)]
pub struct LdpConfig {
    /// Penultimate-hop popping: the egress advertises implicit-null so the
    /// hop before it pops the label (saves one lookup at the egress).
    pub php: bool,
}

impl Default for LdpConfig {
    fn default() -> Self {
        LdpConfig { php: true }
    }
}

/// Per-LSR LDP state after convergence.
#[derive(Debug, Default)]
pub struct LdpNodeState {
    /// The node's label space.
    pub space: LabelSpace,
    /// Installed label-switching table.
    pub lfib: Lfib,
    /// Local binding per FEC (implicit-null at a PHP egress).
    pub bindings: HashMap<Fec, u32>,
    /// Ingress map: FEC → label to push + egress interface.
    pub ftn: HashMap<Fec, FtnEntry>,
    /// Bindings heard per (FEC, neighbor) — liberal retention.
    pub received: HashMap<(Fec, usize), u32>,
}

/// A converged LDP domain plus its convergence cost metrics.
#[derive(Debug)]
pub struct LdpDomain {
    /// The adjacency the run was given: `adjacency[u][i]` is the node at
    /// `u`'s interface `i`.
    pub adjacency: Vec<Vec<usize>>,
    /// Per-node state, indexed by node id.
    pub nodes: Vec<LdpNodeState>,
    /// Label Mapping messages exchanged during convergence.
    pub messages: u64,
}

struct Mapping {
    from: usize,
    to: usize,
    fec: Fec,
    label: u32,
}

impl LdpDomain {
    /// Runs LDP to convergence.
    ///
    /// * `adjacency[u]` lists `u`'s neighbors; the position of `v` in that
    ///   list is the interface index `u` uses to reach `v`.
    /// * `fecs` maps each FEC to its egress node.
    /// * `next_hop(u, egress)` gives `u`'s IGP next hop toward `egress`
    ///   (`None` at the egress itself or when unreachable).
    pub fn run(
        adjacency: &[Vec<usize>],
        fecs: &[(Fec, usize)],
        next_hop: &dyn Fn(usize, usize) -> Option<usize>,
        cfg: LdpConfig,
    ) -> LdpDomain {
        let n = adjacency.len();
        let mut nodes: Vec<LdpNodeState> = (0..n).map(|_| LdpNodeState::default()).collect();
        let mut egress_of: HashMap<Fec, usize> = HashMap::new();
        let mut messages = 0u64;
        let mut rounds = 0u32;

        let mut queue: Vec<Mapping> = Vec::new();

        // Round 0: each egress originates its binding.
        for &(fec, egress) in fecs {
            assert!(egress < n, "egress {egress} out of range");
            let prev = egress_of.insert(fec, egress);
            assert!(prev.is_none() || prev == Some(egress), "duplicate FEC with different egress");
            let local = if cfg.php {
                IMPLICIT_NULL
            } else {
                let l = nodes[egress].space.allocate();
                nodes[egress].lfib.install(l, Nhlfe { op: LabelOp::Pop, out_iface: LOCAL_IFACE });
                l
            };
            nodes[egress].bindings.insert(fec, local);
            for &nb in &adjacency[egress] {
                queue.push(Mapping { from: egress, to: nb, fec, label: local });
                messages += 1;
            }
        }

        // Rounds 1..: deliver, install, re-advertise until quiescent.
        while !queue.is_empty() {
            rounds += 1;
            assert!(rounds as usize <= n + 2, "LDP failed to converge — inconsistent next_hop?");
            let mut next_queue: Vec<Mapping> = Vec::new();
            for m in queue.drain(..) {
                let node = &mut nodes[m.to];
                node.received.insert((m.fec, m.from), m.label);
                let egress = egress_of[&m.fec];
                if m.to == egress {
                    continue; // the egress ignores upstream bindings
                }
                if next_hop(m.to, egress) != Some(m.from) {
                    continue; // liberal retention only
                }
                let out_iface = adjacency[m.to]
                    .iter()
                    .position(|&v| v == m.from)
                    .expect("mapping sender must be a neighbor");
                let op =
                    if m.label == IMPLICIT_NULL { LabelOp::Pop } else { LabelOp::Swap(m.label) };
                let push = (m.label != IMPLICIT_NULL).then_some(m.label);
                node.ftn.insert(m.fec, FtnEntry { push, out_iface });
                match node.bindings.get(&m.fec) {
                    Some(&local) => {
                        // Next-hop binding changed: refresh the ILM only.
                        node.lfib.install(local, Nhlfe { op, out_iface });
                    }
                    None => {
                        let local = node.space.allocate();
                        node.bindings.insert(m.fec, local);
                        node.lfib.install(local, Nhlfe { op, out_iface });
                        for &nb in &adjacency[m.to] {
                            next_queue.push(Mapping {
                                from: m.to,
                                to: nb,
                                fec: m.fec,
                                label: local,
                            });
                            messages += 1;
                        }
                    }
                }
            }
            queue = next_queue;
        }

        LdpDomain { adjacency: adjacency.to_vec(), nodes, messages }
    }
}

/// A converged domain as label tables: every link is up, and no node
/// dispatches a label locally.
impl LabelTables for LdpDomain {
    fn node_count(&self) -> usize {
        self.nodes.len()
    }
    fn far_end(&self, node: usize, iface: usize) -> Option<usize> {
        self.adjacency[node].get(iface).copied()
    }
    fn nhlfe(&self, node: usize, label: u32) -> Option<Nhlfe> {
        self.nodes[node].lfib.lookup(label).copied()
    }
    fn dispatches(&self, _: usize, _: u32) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::walk;

    /// The node path of `fec`'s LSP from `ingress`, when it unwinds at
    /// `egress`.
    fn lsp(d: &LdpDomain, ingress: usize, fec: Fec, egress: usize) -> Option<Vec<usize>> {
        let ftn = d.nodes[ingress].ftn.get(&fec)?;
        walk(d, ingress, ftn.push.as_slice(), ftn.out_iface).path_to(egress)
    }

    /// Hop-count next-hop on an adjacency list via BFS (deterministic:
    /// lowest neighbor id wins ties).
    pub(crate) fn bfs_next_hop(
        adjacency: &[Vec<usize>],
    ) -> impl Fn(usize, usize) -> Option<usize> + '_ {
        move |from: usize, to: usize| {
            if from == to {
                return None;
            }
            // BFS from `to`, tracking distance; next hop = neighbor of
            // `from` minimizing (distance, id).
            let n = adjacency.len();
            let mut dist = vec![usize::MAX; n];
            dist[to] = 0;
            let mut q = std::collections::VecDeque::from([to]);
            while let Some(u) = q.pop_front() {
                for &v in &adjacency[u] {
                    if dist[v] == usize::MAX {
                        dist[v] = dist[u] + 1;
                        q.push_back(v);
                    }
                }
            }
            adjacency[from]
                .iter()
                .copied()
                .filter(|&v| dist[v] != usize::MAX)
                .min_by_key(|&v| (dist[v], v))
                .filter(|_| dist[from] != usize::MAX)
        }
    }

    fn chain(n: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| {
                let mut adj = Vec::new();
                if i > 0 {
                    adj.push(i - 1);
                }
                if i + 1 < n {
                    adj.push(i + 1);
                }
                adj
            })
            .collect()
    }

    #[test]
    fn chain_converges_and_forwards_php() {
        let adj = chain(5);
        let nh = bfs_next_hop(&adj);
        let d = LdpDomain::run(&adj, &[(Fec(0), 4)], &nh, LdpConfig { php: true });
        // Every non-egress node walks to the egress.
        for ingress in 0..4 {
            assert_eq!(lsp(&d, ingress, Fec(0), 4), Some((ingress..=4).collect::<Vec<_>>()));
        }
        // PHP: egress allocated no label; nodes 1..=3 allocated one each,
        // plus node 0 (ingress also re-advertises).
        assert_eq!(d.nodes[4].space.live(), 0);
        assert!((0..4).all(|u| d.nodes[u].space.live() == 1));
    }

    #[test]
    fn chain_non_php_has_egress_label() {
        let adj = chain(3);
        let nh = bfs_next_hop(&adj);
        let d = LdpDomain::run(&adj, &[(Fec(0), 2)], &nh, LdpConfig { php: false });
        assert_eq!(d.nodes[2].space.live(), 1, "egress allocates an explicit label");
        assert_eq!(lsp(&d, 0, Fec(0), 2), Some(vec![0, 1, 2]));
        // The penultimate hop swaps (not pops) under non-PHP.
        let local1 = d.nodes[1].bindings[&Fec(0)];
        assert!(matches!(d.nodes[1].lfib.lookup(local1).unwrap().op, LabelOp::Swap(_)));
    }

    #[test]
    fn full_mesh_fecs_state_scales_linearly_per_node() {
        // 6-node ring, one FEC per node (the T1 comparison point: per-PE
        // state grows O(N), not O(N²)).
        let n = 6;
        let adj: Vec<Vec<usize>> = (0..n).map(|i| vec![(i + n - 1) % n, (i + 1) % n]).collect();
        let nh = bfs_next_hop(&adj);
        let fecs: Vec<(Fec, usize)> = (0..n).map(|i| (Fec(i as u32), i)).collect();
        let d = LdpDomain::run(&adj, &fecs, &nh, LdpConfig::default());
        for u in 0..n {
            // Each node binds every FEC except where it's penultimate-free.
            assert!(d.nodes[u].bindings.len() <= n);
            assert!(d.nodes[u].lfib.len() < n, "per-node ILM is O(N)");
            // Every node can reach every FEC.
            for f in 0..n {
                if f != u {
                    let path = lsp(&d, u, Fec(f as u32), f).expect("reachable");
                    assert_eq!(*path.last().unwrap(), f);
                    assert_eq!(path[0], u);
                }
            }
        }
        assert!(d.messages > 0);
    }

    #[test]
    fn star_topology_hub_carries_all_lsps() {
        // Node 0 is the hub; 1..=4 are leaves.
        let mut adj = vec![vec![1, 2, 3, 4]];
        for _ in 1..=4 {
            adj.push(vec![0]);
        }
        let nh = bfs_next_hop(&adj);
        let fecs: Vec<(Fec, usize)> = (1..=4).map(|i| (Fec(i as u32), i)).collect();
        let d = LdpDomain::run(&adj, &fecs, &nh, LdpConfig { php: false });
        for src in 1..=4usize {
            for dst in 1..=4usize {
                if src != dst {
                    assert_eq!(lsp(&d, src, Fec(dst as u32), dst), Some(vec![src, 0, dst]));
                }
            }
        }
        // The hub holds a binding for each of the 4 FECs.
        assert_eq!(d.nodes[0].bindings.len(), 4);
    }

    #[test]
    fn unreachable_fec_installs_nothing() {
        // Two disconnected components: {0,1} and {2}.
        let adj = vec![vec![1], vec![0], vec![]];
        let nh = bfs_next_hop(&adj);
        let d = LdpDomain::run(&adj, &[(Fec(9), 2)], &nh, LdpConfig::default());
        assert!(lsp(&d, 0, Fec(9), 2).is_none());
        assert!(!d.nodes[0].ftn.contains_key(&Fec(9)));
    }

    #[test]
    fn messages_grow_with_topology_size() {
        let small = {
            let adj = chain(4);
            let nh = bfs_next_hop(&adj);
            let fecs: Vec<_> = (0..4).map(|i| (Fec(i as u32), i)).collect();
            LdpDomain::run(&adj, &fecs, &nh, LdpConfig::default()).messages
        };
        let large = {
            let adj = chain(16);
            let nh = bfs_next_hop(&adj);
            let fecs: Vec<_> = (0..16).map(|i| (Fec(i as u32), i)).collect();
            LdpDomain::run(&adj, &fecs, &nh, LdpConfig::default()).messages
        };
        assert!(large > small * 4, "messages must scale with N and FEC count");
    }
}
