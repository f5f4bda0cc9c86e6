//! Traffic-engineering trunks on a running provider network.
//!
//! The paper's §5 has TE (constraint-based routing) steer traffic "to
//! avoid congested, constrained or disabled links". A trunk is one record
//! on the [`ProviderNetwork`]: its endpoints, its demand, the node path it
//! reserves and the ingress FTN of the explicit LSP installed along that
//! path, the RSVP-TE view of an LSP and its reservation as one piece of
//! state.
//!
//! * [`ProviderNetwork::admit_trunk`] runs [`cspf_path`] over the live
//!   topology, on the links that are up and have room for the demand,
//!   installs the LSP and records the trunk.
//! * A link's reservation is derived from the record each time it is
//!   read ([`TePlane::reservations`]); no counter can drift from it.
//! * [`ProviderNetwork::verify`] runs the TE pass
//!   ([`netsim_verify::verify_te`]) over the record through [`TePlane`],
//!   which walks every trunk's FTN with the one stack walk.
//!
//! The reference [`ProviderNetwork::reconverge`] erases every explicit
//! LSP, so it clears the record too. Trunks are never released,
//! re-signalled or made before broken.

use netsim_routing::{cspf_path, Topology};
use netsim_sim::LinkId;
use netsim_verify::{TePlane, Trunk};

use crate::network::ProviderNetwork;

impl ProviderNetwork {
    /// Admits a trunk of `demand_bps` from backbone node `src` to `dst`:
    /// CSPF over the links that are up and have `capacity − reserved ≥
    /// demand`, an explicit LSP along the path it finds
    /// ([`ProviderNetwork::install_explicit_lsp`]), and a record of both.
    /// Returns the recorded trunk, whose `ftn` a route can be pinned to
    /// ([`ProviderNetwork::pin_prefix_to_tunnel`]), or `None` when no
    /// feasible path exists.
    ///
    /// # Panics
    /// Panics when `src == dst`, as an explicit route of one node does.
    pub fn admit_trunk(&mut self, src: usize, dst: usize, demand_bps: u64) -> Option<Trunk> {
        let reserved = self.reservations();
        let usable = |l: usize| {
            self.net.link_enabled(LinkId(l))
                && self.topo.link(l).2.capacity_bps.saturating_sub(reserved[l]) >= demand_bps
        };
        let path = cspf_path(&self.topo, src, dst, usable)?;
        let ftn = self.install_explicit_lsp(&path);
        let trunk = Trunk { src, dst, demand_bps, path, ftn };
        self.trunks.push(trunk.clone());
        Some(trunk)
    }

    /// The nodes a trunk's LSP visits, walked from its FTN through the
    /// live LFIBs over the links that are up; `None` when the walk does
    /// not unwind at the trunk's egress.
    pub fn trunk_lsp_path(&self, trunk: &Trunk) -> Option<Vec<usize>> {
        self.walk_ftn(trunk.src, &trunk.ftn).path_to(trunk.dst)
    }
}

/// The trunk record as the TE pass reads it.
impl TePlane for ProviderNetwork {
    fn topology(&self) -> &Topology {
        &self.topo
    }
    fn trunks(&self) -> &[Trunk] {
        &self.trunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::BackboneBuilder;
    use netsim_mpls::lfib::{LabelOp, Nhlfe};
    use netsim_routing::LinkAttrs;
    use netsim_verify::codes;

    const MBPS: u64 = 1_000_000;

    /// The fish: short path 0-1-4 (links 0, 1), long path 0-2-3-4 (links
    /// 2, 3, 4), every link 10 Mb/s; PEs at 0 and 4.
    fn fish() -> ProviderNetwork {
        let mut t = Topology::new(5);
        let attrs = LinkAttrs { cost: 1, capacity_bps: 10 * MBPS };
        for (u, v) in [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)] {
            t.add_link(u, v, attrs);
        }
        BackboneBuilder::new(t, vec![0, 4]).build()
    }

    #[test]
    fn cspf_detours_the_second_trunk_and_refuses_a_third() {
        let mut pn = fish();
        let t1 = pn.admit_trunk(0, 4, 7 * MBPS).expect("trunk 1 fits");
        let t2 = pn.admit_trunk(0, 4, 7 * MBPS).expect("trunk 2 detours");
        assert_eq!(t1.path, [0, 1, 4]);
        assert_eq!(t2.path, [0, 2, 3, 4]);
        assert_eq!(pn.admit_trunk(0, 4, 7 * MBPS), None, "no path has 7 Mb/s left");
        assert_eq!(pn.reservations(), [7 * MBPS; 5]);
        // A small trunk still fits beside either.
        assert_eq!(pn.admit_trunk(0, 4, 3 * MBPS).map(|t| t.path), Some(vec![0, 1, 4]));
        assert_eq!(pn.trunks().len(), 3, "a refused trunk leaves no record");
        for t in [&t1, &t2] {
            assert_eq!(pn.trunk_lsp_path(t).as_ref(), Some(&t.path));
        }
        pn.verify().assert_clean("three admitted trunks");
    }

    #[test]
    fn a_cut_link_is_never_admitted() {
        let mut pn = fish();
        pn.fail_link(1);
        let t = pn.admit_trunk(0, 4, MBPS).expect("the long path is up");
        assert_eq!(t.path, [0, 2, 3, 4]);
        pn.fail_link(3);
        assert_eq!(pn.admit_trunk(0, 4, MBPS), None, "both paths are cut");
    }

    #[test]
    fn reconverge_clears_the_trunks_with_their_lsps() {
        let mut pn = fish();
        pn.admit_trunk(0, 4, 7 * MBPS).unwrap();
        pn.verify().assert_clean("one trunk");
        pn.reconverge();
        assert!(pn.trunks().is_empty());
        assert_eq!(pn.reservations(), [0; 5]);
        pn.verify().assert_clean("trunk record cleared with its LSP");
    }

    #[test]
    fn a_trunk_over_a_cut_link_is_flagged() {
        let mut pn = fish();
        pn.admit_trunk(0, 4, 7 * MBPS).unwrap();
        pn.fail_link(1);
        let r = pn.verify();
        assert!(r.has_code(codes::TE_PATH), "{r}");
        pn.repair_link(1);
        pn.verify().assert_clean("the trunk's link is back");
    }

    /// Trunk 2's label at P2 is re-pointed onto an LSP 2-0-1-4: its FTN
    /// still reaches PE4, but not along the path it reserved.
    #[test]
    fn a_trunk_whose_lsp_rides_another_path_is_flagged() {
        let mut pn = fish();
        pn.admit_trunk(0, 4, 7 * MBPS).unwrap();
        let t2 = pn.admit_trunk(0, 4, 7 * MBPS).unwrap();
        let detour = pn.install_explicit_lsp(&[2, 0, 1, 4]);
        let at_p2 = t2.ftn.push.expect("P2 is no egress, so the ingress pushes a label");
        let onto_detour = Nhlfe {
            op: LabelOp::Swap(detour.push.expect("P0 is no egress")),
            out_iface: detour.out_iface,
        };
        pn.with_control(2, |_, tables, _| tables.lfib.install(at_p2, onto_detour));
        assert_eq!(pn.trunk_lsp_path(&t2), Some(vec![0, 2, 0, 1, 4]));
        let r = pn.verify();
        assert!(r.has_code(codes::TE_PATH), "{r}");
        assert_eq!(r.diagnostics().len(), 1, "{r}");
    }
}
