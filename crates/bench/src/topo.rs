//! Reference topologies used by the experiments.

use netsim_routing::{LinkAttrs, Topology};

fn attrs(cost: u64, mbps: u64) -> LinkAttrs {
    LinkAttrs { cost, capacity_bps: mbps * 1_000_000 }
}

/// A line backbone `PE — P… — PE` with `hops` P routers in between.
/// Returns `(topology, pe nodes)`. Backbone links at `mbps`.
pub fn line(hops: usize, mbps: u64) -> (Topology, Vec<usize>) {
    let n = hops + 2;
    let mut t = Topology::new(n);
    for i in 0..n - 1 {
        t.add_link(i, i + 1, attrs(1, mbps));
    }
    (t, vec![0, n - 1])
}

/// The dumbbell used by the QoS experiments: two PEs, two P routers, and a
/// single bottleneck link between the P routers.
///
/// ```text
/// PE0 ── P1 ══ P2 ── PE3      (access 10×, bottleneck 1×)
/// ```
pub fn dumbbell(bottleneck_mbps: u64) -> (Topology, Vec<usize>) {
    let mut t = Topology::new(4);
    t.add_link(0, 1, attrs(1, bottleneck_mbps * 10));
    t.add_link(1, 2, attrs(1, bottleneck_mbps)); // link 1: the bottleneck
    t.add_link(2, 3, attrs(1, bottleneck_mbps * 10));
    (t, vec![0, 3])
}

/// Topology link id of the dumbbell bottleneck.
pub const DUMBBELL_BOTTLENECK: usize = 1;

/// The TE "fish": a short two-hop path and a long three-hop path between
/// the same PEs, all links `mbps`.
///
/// ```text
///        ┌─ P1 ─┐
/// PE0 ───┤      ├─── PE4
///        └ P2─P3┘
/// ```
pub fn fish(mbps: u64) -> (Topology, Vec<usize>) {
    let mut t = Topology::new(5);
    t.add_link(0, 1, attrs(1, mbps)); // 0: short a
    t.add_link(1, 4, attrs(1, mbps)); // 1: short b
    t.add_link(0, 2, attrs(1, mbps)); // 2: long a
    t.add_link(2, 3, attrs(1, mbps)); // 3: long b
    t.add_link(3, 4, attrs(1, mbps)); // 4: long c
    (t, vec![0, 4])
}

/// Links on the fish's short path.
pub const FISH_SHORT: [usize; 2] = [0, 1];
/// Links on the fish's long path.
pub const FISH_LONG: [usize; 3] = [2, 3, 4];

/// A small national backbone: `pe_count` PEs hanging off a `core` ring of
/// P routers. Returns `(topology, pe nodes)`.
pub fn national(core: usize, pe_count: usize, core_mbps: u64) -> (Topology, Vec<usize>) {
    assert!(core >= 3, "ring needs 3+ nodes");
    let mut t = Topology::new(core);
    for i in 0..core {
        t.add_link(i, (i + 1) % core, attrs(1, core_mbps));
    }
    let mut pes = Vec::with_capacity(pe_count);
    for k in 0..pe_count {
        let pe = t.add_node();
        t.add_link(pe, k % core, attrs(1, core_mbps));
        pes.push(pe);
    }
    (t, pes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_routing::Igp;

    #[test]
    fn line_shape() {
        let (t, pes) = line(2, 100);
        assert_eq!(t.node_count(), 4);
        assert_eq!(pes, vec![0, 3]);
        let igp = Igp::converge(&t);
        assert_eq!(igp.path(0, 3).unwrap().len(), 4);
    }

    #[test]
    fn fish_paths() {
        let (t, pes) = fish(10);
        let igp = Igp::converge(&t);
        assert_eq!(igp.path(pes[0], pes[1]), Some(vec![0, 1, 4]), "IGP picks the short path");
        assert_eq!(t.link_count(), 5);
    }

    #[test]
    fn national_connects_everyone() {
        let (t, pes) = national(4, 8, 622);
        assert_eq!(pes.len(), 8);
        let igp = Igp::converge(&t);
        for &a in &pes {
            for &b in &pes {
                assert!(igp.path(a, b).is_some());
            }
        }
    }
}
