//! Tests of the MPLS substrate: the LDP reference run on fixed and random
//! connected graphs, and LFIB invariants.

#[path = "common/ldp_reference.rs"]
mod ldp_reference;

use ldp_reference::{Fec, LdpConfig, LdpDomain};
use netsim_mpls::lfib::{LabelOp, Nhlfe};
use netsim_mpls::walk::walk;
use netsim_mpls::Lfib;
use proptest::prelude::*;

/// Generates a random connected undirected graph as an adjacency list:
/// a random spanning tree plus extra edges.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    (2..max_n)
        .prop_flat_map(|n| {
            let tree = proptest::collection::vec(any::<u64>(), n - 1);
            let extra = proptest::collection::vec((0..n, 0..n), 0..n);
            (Just(n), tree, extra)
        })
        .prop_map(|(n, tree, extra)| {
            let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
            let add = |adj: &mut Vec<Vec<usize>>, u: usize, v: usize| {
                if u != v && !adj[u].contains(&v) {
                    adj[u].push(v);
                    adj[v].push(u);
                }
            };
            for (i, r) in tree.iter().enumerate() {
                let u = i + 1;
                let v = (*r as usize) % u;
                add(&mut adj, u, v);
            }
            for (u, v) in extra {
                add(&mut adj, u, v);
            }
            adj
        })
}

/// The node path of `fec`'s LSP from `ingress`, when it unwinds at
/// `egress`.
fn lsp(d: &LdpDomain, ingress: usize, fec: Fec, egress: usize) -> Option<Vec<usize>> {
    let ftn = d.nodes[ingress].ftn.get(&fec)?;
    walk(d, ingress, ftn.push.as_slice(), ftn.out_iface).path_to(egress)
}

/// Hop-count next hop over an adjacency list via BFS (deterministic:
/// the lowest neighbor id wins ties).
fn bfs_next_hop(adj: &[Vec<usize>]) -> impl Fn(usize, usize) -> Option<usize> + '_ {
    move |from, to| {
        if from == to {
            return None;
        }
        let n = adj.len();
        let mut dist = vec![usize::MAX; n];
        dist[to] = 0;
        let mut q = std::collections::VecDeque::from([to]);
        while let Some(u) = q.pop_front() {
            for &v in &adj[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    q.push_back(v);
                }
            }
        }
        adj[from].iter().copied().filter(|&v| dist[v] != usize::MAX).min_by_key(|&v| (dist[v], v))
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
        assert!(d.nodes[u].lfib.iter().count() < n, "per-node ILM is O(N)");
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
    let messages = |n: usize| {
        let adj = chain(n);
        let nh = bfs_next_hop(&adj);
        let fecs: Vec<_> = (0..n).map(|i| (Fec(i as u32), i)).collect();
        LdpDomain::run(&adj, &fecs, &nh, LdpConfig::default()).messages
    };
    let (small, large) = (messages(4), messages(16));
    assert!(large > small * 4, "messages must scale with N and FEC count");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On any connected graph, LDP converges and every (ingress, FEC) pair
    /// forwards to the right egress along a loop-free path, under both PHP
    /// settings.
    #[test]
    fn ldp_correct_on_random_graphs(adj in arb_graph(12), php in any::<bool>()) {
        let n = adj.len();
        let fecs: Vec<(Fec, usize)> = (0..n).map(|i| (Fec(i as u32), i)).collect();
        let nh = bfs_next_hop(&adj);
        let d = LdpDomain::run(&adj, &fecs, &nh, LdpConfig { php });
        for ingress in 0..n {
            for f in 0..n {
                if ingress == f {
                    continue;
                }
                let path = lsp(&d, ingress, Fec(f as u32), f);
                let path = path.expect("every FEC reachable on a connected graph");
                prop_assert_eq!(path[0], ingress);
                prop_assert_eq!(*path.last().unwrap(), f);
                // Loop-free.
                let mut seen = std::collections::HashSet::new();
                prop_assert!(path.iter().all(|&u| seen.insert(u)), "loop in {path:?}");
                // Hop-optimal (BFS metric).
                let mut dist = vec![usize::MAX; n];
                dist[f] = 0;
                let mut q = std::collections::VecDeque::from([f]);
                while let Some(u) = q.pop_front() {
                    for &v in &adj[u] {
                        if dist[v] == usize::MAX {
                            dist[v] = dist[u] + 1;
                            q.push_back(v);
                        }
                    }
                }
                prop_assert_eq!(path.len() - 1, dist[ingress], "path {:?} not shortest", path);
            }
        }
        // State sanity: per-node bindings ≤ FEC count; with PHP every
        // egress holds no label for its own FEC.
        for u in 0..n {
            prop_assert!(d.nodes[u].bindings.len() <= n);
        }
        if php {
            for (fec, egress) in &fecs {
                let b = d.nodes[*egress].bindings.get(fec).copied();
                prop_assert_eq!(b, Some(netsim_net::mpls::IMPLICIT_NULL));
            }
        }
    }

    /// Message count is monotone in FEC count on a fixed graph.
    #[test]
    fn ldp_messages_monotone_in_fecs(adj in arb_graph(10)) {
        let n = adj.len();
        let nh = bfs_next_hop(&adj);
        let run = |k: usize| {
            let fecs: Vec<(Fec, usize)> = (0..k).map(|i| (Fec(i as u32), i)).collect();
            LdpDomain::run(&adj, &fecs, &nh, LdpConfig::default()).messages
        };
        let m1 = run(1);
        let mn = run(n);
        prop_assert!(mn >= m1);
    }

    /// LFIB forward over arbitrary swap entries preserves EXP and
    /// decrements TTL by exactly one.
    #[test]
    fn lfib_swap_invariants(in_label in 16u32..4096, out_label in 16u32..4096, exp in 0u8..8, ttl in 2u8..255) {
        use netsim_net::{Layer, MplsLabel, Packet};
        use netsim_net::addr::ip;
        let mut lfib = Lfib::new();
        lfib.install(in_label, Nhlfe { op: LabelOp::Swap(out_label), out_iface: 1 });
        let mut p = Packet::udp(ip("1.1.1.1"), ip("2.2.2.2"), 1, 2, netsim_net::Dscp::BE, 10);
        p.push_outer(Layer::Mpls(MplsLabel::new(in_label, exp, ttl)));
        let before_len = p.wire_len();
        let v = lfib.forward(&mut p);
        prop_assert_eq!(v, netsim_mpls::lfib::LfibVerdict::Forward { out_iface: 1 });
        let top = p.top_label().unwrap();
        prop_assert_eq!(top.label, out_label);
        prop_assert_eq!(top.exp, exp);
        prop_assert_eq!(top.ttl, ttl - 1);
        prop_assert_eq!(p.wire_len(), before_len, "swap never changes size");
    }
}
