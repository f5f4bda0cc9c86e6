//! Fast-reroute link protection: SRLG bookkeeping for bypass paths.
//!
//! The paper's §5 promise is that MPLS lets the operator "avoid congested,
//! constrained or disabled links"; plain re-optimization only does that
//! *after* global reconvergence. Fast reroute closes the gap: for every
//! protected link `u → v`, a *bypass* route from `u` to the merge point
//! `v` is precomputed, excluding the protected link and every link
//! sharing a risk group (SRLG) with it: `ProviderNetwork::protect_all_links`
//! (in `mplsvpn-core`) runs [`crate::cspf_path`] over the links for which
//! [`SrlgMap::share_risk`] with the protected link is false. When `u`
//! detects the link down, it pushes the bypass label over the label it
//! would have sent and forwards on — the merge point sees exactly the
//! traffic it expected, just one detour later.

/// Shared-risk link group membership: links riding the same conduit or
/// fiber fail together, so a backup must avoid the whole group, not just
/// the protected link.
#[derive(Clone, Debug, Default)]
pub struct SrlgMap {
    /// groups[link] = the risk-group ids the link belongs to.
    groups: Vec<Vec<u32>>,
}

impl SrlgMap {
    /// Creates an empty map for `link_count` links (no shared risks).
    pub fn new(link_count: usize) -> Self {
        SrlgMap { groups: vec![Vec::new(); link_count] }
    }

    /// Adds `link` to risk group `group`.
    pub fn assign(&mut self, link: usize, group: u32) {
        if !self.groups[link].contains(&group) {
            self.groups[link].push(group);
        }
    }

    /// The risk groups `link` belongs to.
    fn groups_of(&self, link: usize) -> &[u32] {
        self.groups.get(link).map_or(&[], Vec::as_slice)
    }

    /// Whether two links share fate: the same link, or a common risk group.
    pub fn share_risk(&self, a: usize, b: usize) -> bool {
        a == b || self.groups_of(a).iter().any(|g| self.groups_of(b).contains(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cspf::cspf_path;
    use netsim_routing::{LinkAttrs, Topology};

    /// The fish: short path 0-1-4 (links 0,1), long path 0-2-3-4 (2,3,4).
    fn fish() -> Topology {
        let mut t = Topology::new(5);
        let attrs = LinkAttrs { cost: 1, capacity_bps: 10_000_000 };
        for (u, v) in [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)] {
            t.add_link(u, v, attrs);
        }
        t
    }

    #[test]
    fn exclusion_routes_around_the_protected_link() {
        let t = fish();
        let srlg = SrlgMap::new(t.link_count());
        // Protecting 1→4 (link 1): bypass must reach 4 the long way round.
        let p = cspf_path(&t, 1, 4, &|l| !srlg.share_risk(l, 1)).unwrap();
        assert_eq!(p, vec![1, 0, 2, 3, 4]);
    }

    #[test]
    fn srlg_peers_are_excluded_with_the_protected_link() {
        let t = fish();
        let mut srlg = SrlgMap::new(t.link_count());
        // Links 1 (1→4) and 4 (3→4) ride the same conduit into node 4.
        srlg.assign(1, 9);
        srlg.assign(4, 9);
        assert!(srlg.share_risk(1, 4));
        assert!(!srlg.share_risk(1, 3));
        // With the whole group down, node 4 is unreachable from 1.
        assert_eq!(cspf_path(&t, 1, 4, &|l| !srlg.share_risk(l, 1)), None);
    }

    #[test]
    fn usable_filter_composes_with_exclusion() {
        let t = fish();
        let srlg = SrlgMap::new(t.link_count());
        // Protect link 1, and link 3 is administratively unusable.
        assert_eq!(cspf_path(&t, 1, 4, &|l| l != 3 && !srlg.share_risk(l, 1)), None);
    }
}
