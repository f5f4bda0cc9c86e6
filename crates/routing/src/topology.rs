//! The weighted backbone graph shared by IGP, LDP, and TE.

/// Attributes of one (undirected) backbone link.
#[derive(Clone, Copy, Debug)]
pub struct LinkAttrs {
    /// IGP metric (cost).
    pub cost: u64,
    /// Physical capacity in bits/s (used by TE and by the simulator
    /// builder when materializing the link).
    pub capacity_bps: u64,
}

impl Default for LinkAttrs {
    fn default() -> Self {
        LinkAttrs { cost: 1, capacity_bps: 1_000_000_000 }
    }
}

#[derive(Clone, Copy, Debug)]
struct Edge {
    peer: usize,
    attrs: LinkAttrs,
    /// Global link index (both directions share it).
    link: usize,
}

/// An undirected weighted multigraph over dense node ids.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    adj: Vec<Vec<Edge>>,
    links: Vec<(usize, usize, LinkAttrs)>,
}

impl Topology {
    /// Creates a topology with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Topology { adj: vec![Vec::new(); n], links: Vec::new() }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self) -> usize {
        self.adj.push(Vec::new());
        self.adj.len() - 1
    }

    /// Adds an undirected link, returning its id.
    ///
    /// # Panics
    /// Panics on out-of-range nodes or a self-loop.
    pub fn add_link(&mut self, u: usize, v: usize, attrs: LinkAttrs) -> usize {
        assert!(u < self.adj.len() && v < self.adj.len(), "unknown node");
        assert_ne!(u, v, "self-loops are not allowed");
        let id = self.links.len();
        self.links.push((u, v, attrs));
        self.adj[u].push(Edge { peer: v, attrs, link: id });
        self.adj[v].push(Edge { peer: u, attrs, link: id });
        id
    }

    /// The endpoints and attributes of link `id`.
    pub fn link(&self, id: usize) -> (usize, usize, LinkAttrs) {
        self.links[id]
    }

    /// Iterates `(peer, attrs, link_id)` over `u`'s incident links, in
    /// insertion order (the order defines `u`'s interface numbering).
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = (usize, LinkAttrs, usize)> + '_ {
        self.adj[u].iter().map(|e| (e.peer, e.attrs, e.link))
    }

    /// The id of the first link between `u` and `v`, in `u`'s interface
    /// order; `None` when they are not adjacent.
    pub fn link_between(&self, u: usize, v: usize) -> Option<usize> {
        self.adj[u].iter().find(|e| e.peer == v).map(|e| e.link)
    }

    /// Degree of node `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// The interface index (position in `u`'s neighbor list) of the first
    /// link from `u` to `v`.
    ///
    /// # Panics
    /// Panics if `v` is not adjacent to `u`.
    pub fn iface_toward(&self, u: usize, v: usize) -> usize {
        self.adj[u]
            .iter()
            .position(|e| e.peer == v)
            .unwrap_or_else(|| panic!("{v} is not adjacent to {u}"))
    }

    /// Builds a ring of `n` nodes (convenience for tests/experiments).
    pub fn ring(n: usize, attrs: LinkAttrs) -> Self {
        let mut t = Topology::new(n);
        for i in 0..n {
            t.add_link(i, (i + 1) % n, attrs);
        }
        t
    }

    /// Builds a full mesh of `n` nodes.
    pub fn full_mesh(n: usize, attrs: LinkAttrs) -> Self {
        let mut t = Topology::new(n);
        for i in 0..n {
            for j in i + 1..n {
                t.add_link(i, j, attrs);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_bookkeeping() {
        let mut t = Topology::new(3);
        let l0 = t.add_link(0, 1, LinkAttrs { cost: 5, capacity_bps: 10 });
        let l1 = t.add_link(1, 2, LinkAttrs::default());
        assert_eq!((l0, l1), (0, 1));
        assert_eq!(t.link_count(), 2);
        assert_eq!(t.degree(1), 2);
        assert_eq!(t.iface_toward(0, 1), 0);
        assert_eq!(t.iface_toward(1, 0), 0);
        assert_eq!(t.iface_toward(1, 2), 1);
        let (u, v, a) = t.link(0);
        assert_eq!((u, v, a.cost), (0, 1, 5));
        assert_eq!((t.link_between(2, 1), t.link_between(0, 2)), (Some(1), None));
    }

    /// `BackboneBuilder::build` numbers each router's interfaces in
    /// `neighbors` order, and the control planes find a peer's interface
    /// with `iface_toward`: the two must agree.
    #[test]
    fn neighbor_order_is_iface_order() {
        let mut t = Topology::new(3);
        t.add_link(0, 2, LinkAttrs::default());
        t.add_link(0, 1, LinkAttrs::default());
        let peers: Vec<usize> = t.neighbors(0).map(|(v, _, _)| v).collect();
        assert_eq!(peers, [2, 1]);
        for (i, &v) in peers.iter().enumerate() {
            assert_eq!(t.iface_toward(0, v), i);
        }
    }

    #[test]
    fn ring_and_mesh_shapes() {
        let r = Topology::ring(5, LinkAttrs::default());
        assert_eq!(r.link_count(), 5);
        assert!((0..5).all(|i| r.degree(i) == 2));
        let m = Topology::full_mesh(5, LinkAttrs::default());
        assert_eq!(m.link_count(), 10);
        assert!((0..5).all(|i| m.degree(i) == 4));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        Topology::new(2).add_link(1, 1, LinkAttrs::default());
    }
}
