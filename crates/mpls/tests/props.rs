//! Property-based tests for the MPLS substrate: LDP correctness on random
//! connected graphs and LFIB invariants.

use netsim_mpls::ldp::{Fec, LdpConfig, LdpDomain};
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

/// Deterministic BFS next-hop over an adjacency list.
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
                let path = d.nodes[ingress].ftn.get(&Fec(f as u32)).and_then(|ftn| {
                    walk(&d, ingress, ftn.push.as_slice(), ftn.out_iface).path_to(f)
                });
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
