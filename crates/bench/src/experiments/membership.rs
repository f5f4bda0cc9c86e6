//! **M1 — membership discovery and join/leave cost** (paper §4.1–4.2).
//!
//! "Members can join and leave the VPN service network and those changes
//! need to be known by all remaining members." The MPLS/BGP model pays one
//! PE touch and one MP-BGP update per remote member PE per join; the
//! overlay model pays N−1 new circuit pairs, provisioned device by device.
//!
//! The MPLS columns drive the joins through a *running* 4-PE backbone
//! ([`backbone_join_series`]). "mpls messages" is the MP-BGP packets the
//! join's updates put on the wire, counted per hop; the two columns after
//! it count the MP-BGP deltas each join originated under either transport:
//! update packets on the wire in-band, the same packets handed on at once
//! under the oracle. All three are flat.

use mplsvpn_core::membership::{backbone_join_series, overlay_join_series, JoinCost};
use mplsvpn_core::ControlMode;
use netsim_routing::{LinkAttrs, Topology};

use crate::table::Table;

/// Runs the in-band backbone and the overlay join series for `n` sites.
pub fn measure(n: usize) -> (Vec<(JoinCost, u64)>, Vec<JoinCost>) {
    let mpls = backbone_join_series(4, n, ControlMode::InBand);
    let topo = Topology::ring(6, LinkAttrs { cost: 1, capacity_bps: 622_000_000 });
    let attachments: Vec<usize> = (0..n).map(|i| i % 6).collect();
    let overlay = overlay_join_series(&topo, &attachments);
    (mpls, overlay)
}

/// Runs the experiment and renders the table.
pub fn run(quick: bool) -> String {
    let n = if quick { 8 } else { 16 };
    let (mpls, overlay) = measure(n);
    let oracle = backbone_join_series(4, n, ControlMode::Oracle);
    let mut t = Table::new(
        "M1: cost of the k-th site join — MPLS/BGP vs overlay full mesh",
        &[
            "join #",
            "mpls devices",
            "mpls messages",
            "in-band bgp pkts",
            "oracle deltas applied",
            "ovl devices",
            "ovl new circuits",
        ],
    );
    for k in 0..n {
        let (cost, inband) = &mpls[k];
        t.row(&[
            k.to_string(),
            cost.devices_touched.to_string(),
            cost.control_messages.to_string(),
            inband.to_string(),
            oracle[k].1.to_string(),
            overlay[k].devices_touched.to_string(),
            overlay[k].new_circuits.to_string(),
        ]);
    }
    let mut out = t.render();
    let total_ovl: u64 = overlay.iter().map(|c| c.new_circuits).sum();
    let total_mpls: u64 = mpls.iter().map(|(c, _)| c.control_messages).sum();
    out.push_str(&format!(
        "totals after {n} joins: overlay {total_ovl} unidirectional circuits \
         ({} pairs); MPLS {total_mpls} update messages, 0 circuits\n",
        total_ovl / 2
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_cost_flat_vs_linear() {
        let (mpls, overlay) = measure(12);
        // MPLS: constant device touches.
        assert!(mpls.iter().all(|(c, _)| c.devices_touched == 1));
        // Overlay: the 11th join provisions 22 circuits; the 1st join 2.
        assert_eq!(overlay[11].new_circuits, 22);
        assert_eq!(overlay[1].new_circuits, 2);
        // Message cost: MPLS stays bounded per join; overlay grows.
        assert!(overlay[11].devices_touched > mpls[11].0.control_messages);
    }
}
