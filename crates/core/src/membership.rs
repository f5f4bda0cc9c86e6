//! Membership dynamics: what it costs to add the N-th site (experiment M1).
//!
//! The paper's §4.1: "Members can join and leave the VPN service network
//! and those changes need to be known by all remaining members." In the
//! MPLS/BGP model a join touches one PE and costs one MP-BGP update per
//! remote member PE; in the overlay model it costs N−1 new circuit pairs,
//! each provisioned hop by hop.

use netsim_net::{Ip, Prefix};
use netsim_routing::{LinkAttrs, Topology};
use netsim_sim::MSEC;

use crate::control::{ControlMode, PROTO_BGP};
use crate::network::BackboneBuilder;
use crate::overlay::{OverlayNetwork, OverlaySiteId};

/// Cost of one site join.
#[derive(Clone, Copy, Debug)]
pub struct JoinCost {
    /// Devices whose configuration/tables had to be touched.
    pub devices_touched: u64,
    /// Control messages exchanged to restore full reachability.
    pub control_messages: u64,
    /// New circuits provisioned (overlay only).
    pub new_circuits: u64,
}

/// The /24 block assigned to the i-th synthetic site.
pub fn site_prefix(i: usize) -> Prefix {
    Prefix::new(Ip(0x0A00_0000 | ((i as u32) << 8)), 24)
}

/// Joins `n_sites` sites (round-robin over `pe_count` PEs, full-mesh
/// backbone) to one VPN on a *running* [`crate::ProviderNetwork`] and
/// records each join's cost under `mode`.
///
/// Each entry pairs the join's [`JoinCost`], whose `control_messages` are
/// the MP-BGP packets its updates put on the wire (the BGP entry of
/// [`crate::CtrlStats::pkts_by_proto`], counted per hop), with the MP-BGP
/// deltas the join originated: one per remote member PE, flat in the
/// number of *sites*. Both counts are the same under either transport:
/// each delta is an update packet, on the wire under
/// [`ControlMode::InBand`] and handed on at once under
/// [`ControlMode::Oracle`].
pub fn backbone_join_series(
    pe_count: usize,
    n_sites: usize,
    mode: ControlMode,
) -> Vec<(JoinCost, u64)> {
    let attrs = LinkAttrs { cost: 1, capacity_bps: 1_000_000_000 };
    let topo = Topology::full_mesh(pe_count, attrs);
    let pes: Vec<usize> = (0..pe_count).collect();
    let mut pn = BackboneBuilder::new(topo, pes).control_mode(mode).build();
    let vpn = pn.new_vpn("m1");
    let stats = |pn: &crate::ProviderNetwork| pn.control_stats().expect("control counters");
    let mut costs = Vec::with_capacity(n_sites);
    for i in 0..n_sites {
        let before = stats(&pn);
        pn.add_site(vpn, i % pe_count, site_prefix(i), None);
        // Let the updates land (one hop on a full mesh).
        pn.run_for(20 * MSEC);
        let after = stats(&pn);
        let cost = JoinCost {
            // The join reconfigures exactly one device: the homing PE.
            devices_touched: 1,
            control_messages: after.pkts_by_proto[PROTO_BGP] - before.pkts_by_proto[PROTO_BGP],
            new_circuits: 0,
        };
        costs.push((cost, after.bgp_originated - before.bgp_originated));
    }
    costs
}

/// Joins `attachments.len()` sites to an overlay VPN (site `i` homed on
/// switch `attachments[i]`), full-meshing each new site with all existing
/// ones, and records per-join costs.
pub fn overlay_join_series(topo: &Topology, attachments: &[usize]) -> Vec<JoinCost> {
    let mut ov = OverlayNetwork::build(topo.clone());
    let mut sites: Vec<OverlaySiteId> = Vec::new();
    let mut costs = Vec::with_capacity(attachments.len());
    for (i, &sw) in attachments.iter().enumerate() {
        let s = ov.add_site(sw, site_prefix(i));
        let ops_before = ov.provisioning_ops;
        let vcs_before = ov.vcs_provisioned;
        for &existing in &sites {
            ov.connect_sites(s, existing);
        }
        sites.push(s);
        costs.push(JoinCost {
            devices_touched: ov.provisioning_ops - ops_before,
            // Overlay "control messages" are the provisioning touches —
            // there is no routing protocol to do the work.
            control_messages: ov.provisioning_ops - ops_before,
            new_circuits: ov.vcs_provisioned - vcs_before,
        });
    }
    costs
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_routing::LinkAttrs;

    #[test]
    fn mpls_join_cost_is_flat() {
        let costs = backbone_join_series(4, 16, ControlMode::Oracle);
        assert_eq!(costs.len(), 16);
        // Every join touches one device and costs one update per remote
        // member PE.
        assert!(costs.iter().all(|(c, _)| c.devices_touched == 1));
        let late = costs[15].0.control_messages;
        let early = costs[1].0.control_messages;
        assert!(late <= early + 16, "join cost must not grow linearly: early={early} late={late}");
        assert!(costs.iter().all(|(c, _)| c.new_circuits == 0));
    }

    #[test]
    fn both_transports_cost_one_update_per_remote_pe() {
        let (pe_count, n) = (4, 12);
        for mode in [ControlMode::InBand, ControlMode::Oracle] {
            let costs = backbone_join_series(pe_count, n, mode);
            // Steady state (every PE already has the VRF): exactly one
            // MP-BGP update per remote member PE, regardless of table size.
            for (i, &(_, deltas)) in costs.iter().enumerate().skip(pe_count) {
                assert_eq!(
                    deltas,
                    (pe_count - 1) as u64,
                    "{mode:?} join {i} must cost one update per remote PE"
                );
            }
        }
    }

    /// The k-th join puts min(k, 3) MP-BGP packets on the wire: one
    /// update to each PE already holding the VPN's VRF, one hop each on
    /// the full mesh.
    #[test]
    fn kth_join_puts_one_packet_per_member_pe_on_the_wire() {
        for mode in [ControlMode::InBand, ControlMode::Oracle] {
            let pkts: Vec<u64> =
                backbone_join_series(4, 8, mode).iter().map(|(c, _)| c.control_messages).collect();
            assert_eq!(pkts, [0, 1, 2, 3, 3, 3, 3, 3], "{mode:?}");
        }
    }

    #[test]
    fn overlay_join_cost_grows_linearly() {
        let topo = Topology::ring(6, LinkAttrs { cost: 1, capacity_bps: 1_000_000_000 });
        let attachments: Vec<usize> = (0..12).map(|i| i % 6).collect();
        let costs = overlay_join_series(&topo, &attachments);
        // The k-th join provisions 2k unidirectional circuits.
        for (k, c) in costs.iter().enumerate() {
            assert_eq!(c.new_circuits, 2 * k as u64, "join {k}");
        }
        assert!(costs[11].devices_touched > costs[1].devices_touched * 5);
    }

    #[test]
    fn total_overlay_circuits_match_formula() {
        let topo = Topology::ring(4, LinkAttrs { cost: 1, capacity_bps: 1_000_000_000 });
        let attachments: Vec<usize> = (0..10).map(|i| i % 4).collect();
        let costs = overlay_join_series(&topo, &attachments);
        let total: u64 = costs.iter().map(|c| c.new_circuits).sum();
        // N(N-1)/2 pairs, ×2 directions.
        assert_eq!(total, 10 * 9);
    }

    #[test]
    fn site_prefixes_are_disjoint() {
        for i in 0..100 {
            for j in 0..100 {
                if i != j {
                    assert!(!site_prefix(i).overlaps(site_prefix(j)), "{i} vs {j}");
                }
            }
        }
    }
}
