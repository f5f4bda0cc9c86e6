//! The LDP reference: downstream-unsolicited label distribution in
//! synchronous rounds, with every Label Mapping message counted.
//!
//! The paper's §4 has the ISP distribute tunnel labels "by using a label
//! distribution protocol". The model's one LDP is the per-router delta
//! engine, `NodeControl` in `mplsvpn-core`; this run is what tests check
//! it against. It is a fixpoint over rounds: the egress of each FEC
//! advertises a binding; each LSR, on hearing a binding from its IGP next
//! hop toward the FEC, allocates a local label, installs ILM/FTN state,
//! and re-advertises (ordered control mode). Liberal retention: bindings
//! from non-next-hop neighbors are counted but not installed.
//!
//! Included by `netsim-mpls`'s `tests/props.rs` and by `mplsvpn-core`'s
//! `tests/bring_up.rs`.

use std::collections::HashMap;

use netsim_mpls::lfib::{FtnEntry, LabelOp, Lfib, Nhlfe, LOCAL_IFACE};
use netsim_mpls::walk::LabelTables;
use netsim_mpls::LabelSpace;
use netsim_net::mpls::IMPLICIT_NULL;

/// A forwarding equivalence class. A FEC identifies the egress LSR's
/// loopback (one tunnel LSP per egress PE), but the value is opaque to
/// LDP.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct Fec(pub u32);

/// LDP behaviour switches.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LdpConfig {
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
pub(crate) struct LdpNodeState {
    /// The node's label space.
    pub space: LabelSpace,
    /// Installed label-switching table.
    pub lfib: Lfib,
    /// Local binding per FEC (implicit-null at a PHP egress).
    pub bindings: HashMap<Fec, u32>,
    /// Ingress map: FEC → label to push + egress interface.
    pub ftn: HashMap<Fec, FtnEntry>,
}

/// A converged LDP domain plus its convergence cost metrics.
#[derive(Debug)]
pub(crate) struct LdpDomain {
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
    pub(crate) fn run(
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
