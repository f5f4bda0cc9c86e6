//! Link-state interior routing: SPF computation.
//!
//! The paper's §2.2 observes that "routing protocols like OSPF used to build
//! routing tables do not exchange QoS information" — the IGP here computes
//! pure min-cost paths (experiment Q3 contrasts that against CSPF from
//! `netsim-te`, which *does* see resources).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::topology::Topology;

/// The SPF result rooted at one node.
#[derive(Clone, Debug, Default)]
pub struct SpfTree {
    /// Root node.
    pub root: usize,
    /// Total cost to each node (`u64::MAX` = unreachable).
    pub dist: Vec<u64>,
    /// First hop (neighbor of the root) toward each node; `None` for the
    /// root itself and unreachable nodes. Among equal-cost first hops it is
    /// the smallest id, making runs deterministic.
    pub next_hop: Vec<Option<usize>>,
    /// Dijkstra frontier: empty between runs, kept for its storage.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl SpfTree {
    /// Dijkstra from `root` over the links where `usable(link_id)` holds, in place: the
    /// buffers are reused whatever the previous root or filter, so a warm run allocates nothing.
    ///
    /// Only the smallest first hop is kept. A strict improvement through `u` sets `v`'s
    /// first hop to `u`'s (to `v` itself when `u` is the root); an equal-cost one keeps
    /// the smaller of the two. The minimum of a union of first-hop sets is the minimum of
    /// their minima, and every link cost is at least 1, so `u`'s first hop is final when
    /// `u` leaves the heap: the result is the lowest id of the full ECMP set.
    ///
    /// `usable` is generic so that the per-edge test inlines.
    pub fn recompute(&mut self, topo: &Topology, root: usize, usable: impl Fn(usize) -> bool) {
        let n = topo.node_count();
        self.root = root;
        self.dist.clear();
        self.dist.resize(n, u64::MAX);
        self.next_hop.clear();
        self.next_hop.resize(n, None);
        self.dist[root] = 0;
        // (cost, node) min-heap; ties resolve by node id (deterministic).
        self.heap.reserve(n);
        self.heap.push(Reverse((0, root)));
        while let Some(Reverse((d, u))) = self.heap.pop() {
            if d > self.dist[u] {
                continue;
            }
            for (v, attrs, _) in topo.neighbors(u).filter(|&(_, _, link)| usable(link)) {
                let nd = d.saturating_add(attrs.cost);
                let through = if u == root { Some(v) } else { self.next_hop[u] };
                if nd < self.dist[v] {
                    self.dist[v] = nd;
                    self.next_hop[v] = through;
                    self.heap.push(Reverse((nd, v)));
                } else if nd == self.dist[v] && nd != u64::MAX {
                    self.next_hop[v] = self.next_hop[v].min(through);
                }
            }
        }
    }

    /// Whether `dst` is reachable from the root.
    pub fn reachable(&self, dst: usize) -> bool {
        self.dist[dst] != u64::MAX
    }

    /// Incremental-SPF admission test: could the state change of `link`
    /// (`down` = failure, otherwise repair) alter this tree? A link
    /// failure matters only if the link lay on *some* shortest path from
    /// the root — i.e. it is tight in one direction
    /// (`dist[a] + cost == dist[b]` or vice versa). A repair matters only
    /// if the restored link offers a path at least as good as what either
    /// endpoint already has (`dist[a] + cost <= dist[b]` or vice versa;
    /// equality included, since an equal-cost path can lower the first hop).
    /// When the test returns false the tree is provably unaffected and
    /// the full Dijkstra rerun can be skipped.
    pub fn affected_by(&self, topo: &Topology, link: usize, down: bool) -> bool {
        let (a, b, attrs) = topo.link(link);
        let (da, db) = (self.dist[a], self.dist[b]);
        if down {
            (da != u64::MAX && da.saturating_add(attrs.cost) == db)
                || (db != u64::MAX && db.saturating_add(attrs.cost) == da)
        } else {
            (da != u64::MAX && da.saturating_add(attrs.cost) <= db)
                || (db != u64::MAX && db.saturating_add(attrs.cost) <= da)
        }
    }
}

/// The link-state IGP over a topology, converged globally: one SPF tree
/// per node.
#[derive(Clone, Debug)]
pub struct Igp {
    trees: Vec<SpfTree>,
}

impl Igp {
    /// Runs SPF from every node.
    pub fn converge(topo: &Topology) -> Igp {
        Self::converge_filtered(topo, |_| true)
    }

    /// Like [`Igp::converge`], but links for which `usable(link_id)` is
    /// false are ignored — the reconvergence path after a link failure.
    pub fn converge_filtered(topo: &Topology, usable: impl Fn(usize) -> bool) -> Igp {
        Igp { trees: (0..topo.node_count()).map(|r| spf_filtered(topo, r, &usable)).collect() }
    }

    /// The SPF tree rooted at `node`.
    pub fn tree(&self, node: usize) -> &SpfTree {
        &self.trees[node]
    }

    /// First hop on the min-cost path `from → to` (deterministic ECMP
    /// tie-break: lowest neighbor id).
    pub fn next_hop(&self, from: usize, to: usize) -> Option<usize> {
        if from == to {
            None
        } else {
            self.trees[from].next_hop[to]
        }
    }

    /// Total cost of the min-cost path, if reachable.
    pub fn path_cost(&self, from: usize, to: usize) -> Option<u64> {
        let d = self.trees[from].dist[to];
        (d != u64::MAX).then_some(d)
    }

    /// The full min-cost node path `from → … → to`, if reachable.
    pub fn path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        if !self.trees[from].reachable(to) {
            return None;
        }
        let mut path = vec![from];
        let mut at = from;
        while at != to {
            at = self.next_hop(at, to)?;
            path.push(at);
            if path.len() > self.trees.len() {
                return None; // inconsistent trees would loop; fail loudly
            }
        }
        Some(path)
    }
}

/// Dijkstra from `root` with deterministic tie-breaking: the lowest-id
/// first hop among equal-cost paths.
pub fn spf(topo: &Topology, root: usize) -> SpfTree {
    spf_filtered(topo, root, |_| true)
}

/// [`spf`] restricted to links for which `usable(link_id)` holds; see [`SpfTree::recompute`].
pub fn spf_filtered(topo: &Topology, root: usize, usable: impl Fn(usize) -> bool) -> SpfTree {
    let mut tree = SpfTree::default();
    tree.recompute(topo, root, usable);
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkAttrs;

    fn attrs(cost: u64) -> LinkAttrs {
        LinkAttrs { cost, capacity_bps: 1 }
    }

    /// The classic "fish": 0-1 cheap direct path vs longer detour.
    fn diamond() -> Topology {
        let mut t = Topology::new(4);
        t.add_link(0, 1, attrs(1));
        t.add_link(1, 3, attrs(1));
        t.add_link(0, 2, attrs(1));
        t.add_link(2, 3, attrs(5));
        t
    }

    #[test]
    fn spf_prefers_min_cost() {
        let igp = Igp::converge(&diamond());
        assert_eq!(igp.path(0, 3), Some(vec![0, 1, 3]));
        assert_eq!(igp.path_cost(0, 3), Some(2));
        assert_eq!(igp.next_hop(0, 3), Some(1));
        assert_eq!(igp.next_hop(3, 0), Some(1));
    }

    #[test]
    fn equal_cost_paths_collected_deterministically() {
        let mut t = Topology::new(4);
        t.add_link(0, 1, attrs(1));
        t.add_link(0, 2, attrs(1));
        t.add_link(1, 3, attrs(1));
        t.add_link(2, 3, attrs(1));
        let igp = Igp::converge(&t);
        // Deterministic single choice among first hops {1, 2}: smallest id.
        assert_eq!(igp.next_hop(0, 3), Some(1));
        assert_eq!(igp.path_cost(0, 3), Some(2));
    }

    #[test]
    fn unreachable_nodes() {
        let mut t = Topology::new(3);
        t.add_link(0, 1, attrs(1));
        let igp = Igp::converge(&t);
        assert!(!igp.tree(0).reachable(2));
        assert_eq!(igp.path(0, 2), None);
        assert_eq!(igp.next_hop(0, 2), None);
        assert_eq!(igp.path_cost(0, 2), None);
    }

    #[test]
    fn self_paths_are_trivial() {
        let igp = Igp::converge(&diamond());
        assert_eq!(igp.path(2, 2), Some(vec![2]));
        assert_eq!(igp.next_hop(2, 2), None);
        assert_eq!(igp.path_cost(2, 2), Some(0));
    }

    #[test]
    fn costs_are_symmetric_on_undirected_graph() {
        let t = Topology::ring(7, attrs(3));
        let igp = Igp::converge(&t);
        for a in 0..7 {
            for b in 0..7 {
                assert_eq!(igp.path_cost(a, b), igp.path_cost(b, a));
            }
        }
    }

    #[test]
    fn affected_by_skips_irrelevant_links() {
        // diamond: links 0:(0-1,c1) 1:(1-3,c1) 2:(0-2,c1) 3:(2-3,c5).
        let t = diamond();
        let tree = spf(&t, 0);
        // The shortest path 0→3 runs over links 0 and 1: cutting either
        // affects the tree.
        assert!(tree.affected_by(&t, 0, true));
        assert!(tree.affected_by(&t, 1, true));
        // Link 3 (2-3, cost 5) is on no shortest path from 0: dist[2]=1,
        // dist[3]=2, 1+5 != 2 — a failure there cannot change the tree.
        assert!(!tree.affected_by(&t, 3, true));

        // After cutting link 1 the detour is in use; repairing link 1
        // (offering 0→3 at cost 2 < 6) affects the tree, while
        // "repairing" the already-loose link 3 at its current cost does:
        // dist[2]=1, 1+5=6 == dist[3]=6 → equality recomputes.
        let cut = spf_filtered(&t, 0, |l| l != 1);
        assert_eq!(cut.dist[3], 6);
        assert!(cut.affected_by(&t, 1, false));
        assert!(cut.affected_by(&t, 3, false));
    }

    #[test]
    fn affected_by_handles_unreachable_endpoints() {
        let mut t = Topology::new(3);
        t.add_link(0, 1, attrs(1)); // link 0
        t.add_link(1, 2, attrs(1)); // link 1
                                    // Tree computed with link 1 dead: node 2 unreachable.
        let tree = spf_filtered(&t, 0, |l| l != 1);
        assert!(!tree.reachable(2));
        // Failing the already-unusable far link cannot affect the tree…
        assert!(!tree.affected_by(&t, 1, true));
        // …but repairing it (reaching node 2 at all) must.
        assert!(tree.affected_by(&t, 1, false));
    }

    #[test]
    fn paths_follow_next_hops_consistently() {
        // Random-ish fixed topology; every path must terminate and match
        // its advertised cost.
        let mut t = Topology::new(8);
        let edges = [
            (0, 1, 2),
            (1, 2, 2),
            (2, 3, 1),
            (3, 4, 4),
            (4, 5, 1),
            (5, 6, 2),
            (6, 7, 1),
            (7, 0, 3),
            (1, 5, 7),
            (2, 6, 1),
        ];
        for (u, v, c) in edges {
            t.add_link(u, v, attrs(c));
        }
        let igp = Igp::converge(&t);
        for a in 0..8 {
            for b in 0..8 {
                let p = igp.path(a, b).expect("connected graph");
                assert_eq!(p[0], a);
                assert_eq!(*p.last().unwrap(), b);
                let mut cost = 0;
                for w in p.windows(2) {
                    cost += edges
                        .iter()
                        .filter(|&&(x, y, _)| (x, y) == (w[0], w[1]) || (y, x) == (w[0], w[1]))
                        .map(|&(_, _, c)| c)
                        .min()
                        .unwrap();
                }
                assert_eq!(Some(cost), igp.path_cost(a, b), "{a}->{b} via {p:?}");
            }
        }
    }
}
