//! **T1 — the virtual-circuit explosion** (paper §2.1).
//!
//! "A network with N points of service would create N(N−1)/2 virtual
//! circuits … In a network with 10 service points, this is manageable for
//! 45 virtual circuits. In a network with 200 service points (a
//! medium-sized VPN), about 20,000 virtual circuits would be required."
//!
//! Both models are *built*, not just counted: the overlay provisions every
//! PVC switch by switch on the P routers of a backbone built without PEs,
//! one LFIB entry per switch; the MPLS/BGP side brings up a
//! provider network, whose routers distribute the tunnel labels over LDP,
//! and adds every site to it, so its PEs distribute the VPN routes over
//! MP-BGP. Every column is read from the built devices: circuits, state,
//! sessions and the control packets sent.

use std::collections::BTreeSet;

use mplsvpn_core::membership::site_prefix;
use mplsvpn_core::overlay::OverlayNetwork;
use mplsvpn_core::router::VrfRoute;
use mplsvpn_core::{BackboneBuilder, PeRouter};

use crate::table::Table;
use crate::{parallel_sweep, topo};

/// Number of switches / PEs in the provider infrastructure.
const DEVICES: usize = 8;

/// Result of building one VPN of `n` sites in both models.
#[derive(Clone, Copy, Debug)]
pub struct ScalePoint {
    /// Sites in the VPN.
    pub n: usize,
    /// Overlay: bidirectional circuit pairs (the paper's headline number).
    overlay_circuits: u64,
    /// Overlay: total switch LFIB entries, one per switch per PVC.
    overlay_state: usize,
    /// Overlay: device-touch provisioning operations.
    overlay_ops: u64,
    /// Overlay: CE–CE routing adjacencies, one per circuit pair.
    overlay_sessions: usize,
    /// MPLS: MP-BGP updates the PEs originated to distribute all site
    /// routes.
    mpls_updates: u64,
    /// MPLS: worst per-PE VRF route count.
    mpls_max_pe_routes: usize,
    /// MPLS: tunnel LSP labels across the whole backbone (independent of
    /// the number of sites — it scales with PEs).
    mpls_tunnel_labels: u64,
    /// MPLS: LDP adjacencies plus the PE pairs that exchanged MP-BGP.
    mpls_sessions: u64,
}

/// Builds both models for an `n`-site VPN.
pub fn measure(n: usize) -> ScalePoint {
    // --- Overlay: ring of switches, sites round-robin, full mesh.
    let (ring, _) = topo::national(DEVICES, 0, 622);
    let mut ov = OverlayNetwork::build(ring);
    let sites: Vec<_> = (0..n).map(|i| ov.add_site(i % DEVICES, site_prefix(i))).collect();
    ov.full_mesh(&sites);

    // --- MPLS/BGP: PEs on a ring, brought up with their LDP tunnels, and
    // every site added to one VPN, its updates delivered.
    let (mtopo, pes) = topo::national(DEVICES, DEVICES, 622);
    let mut pn = BackboneBuilder::new(mtopo, pes).build();
    let vpn = pn.new_vpn("t1");
    for i in 0..n {
        pn.add_site(vpn, i % DEVICES, site_prefix(i), None);
    }
    pn.run_for(0);
    // Per PE router: its VRF routes, and the egress PEs of the remote ones.
    let (mut mpls_max_pe_routes, mut bgp_pairs) = (0, BTreeSet::new());
    for pe in 0..DEVICES {
        let vrfs = &pn.net.node_ref::<PeRouter>(pn.pe_node(pe)).vrfs;
        mpls_max_pe_routes = mpls_max_pe_routes.max(vrfs.iter().map(|v| v.fib.len()).sum());
        for (_, route) in vrfs.iter().flat_map(|v| v.fib.iter()) {
            if let VrfRoute::Remote { egress_pe, .. } = *route {
                bgp_pairs.insert((pe.min(egress_pe), pe.max(egress_pe)));
            }
        }
    }

    ScalePoint {
        n,
        overlay_circuits: ov.circuit_pairs(),
        overlay_state: ov.total_switch_state(),
        overlay_ops: ov.provisioning_ops,
        overlay_sessions: ov.ce_adjacencies(),
        mpls_updates: pn.control_stats().map_or(0, |s| s.bgp_originated),
        mpls_max_pe_routes,
        mpls_tunnel_labels: pn.live_labels(),
        mpls_sessions: pn.ldp_adjacencies() + bgp_pairs.len() as u64,
    }
}

/// Runs the sweep and renders the table.
pub fn run(quick: bool) -> String {
    let sizes: Vec<usize> = if quick { vec![10, 50, 100] } else { vec![10, 50, 100, 200, 500] };
    let points = parallel_sweep(sizes.iter().map(|&n| move || measure(n)).collect());

    let mut t = Table::new(
        "T1: overlay VC explosion vs MPLS VPN state (paper §2.1: 10 sites→45 VCs, 200→~20,000)",
        &[
            "sites",
            "ovl circuits",
            "ovl state",
            "ovl prov ops",
            "mpls updates",
            "mpls max PE routes",
            "mpls tun labels",
            "ovl sessions",
            "mpls sessions",
        ],
    );
    for p in &points {
        t.row(&[
            p.n.to_string(),
            p.overlay_circuits.to_string(),
            p.overlay_state.to_string(),
            p.overlay_ops.to_string(),
            p.mpls_updates.to_string(),
            p.mpls_max_pe_routes.to_string(),
            p.mpls_tunnel_labels.to_string(),
            p.overlay_sessions.to_string(),
            p.mpls_sessions.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_papers_numbers() {
        let p10 = measure(10);
        assert_eq!(p10.overlay_circuits, 45, "paper: 10 sites → 45 VCs");
        assert_eq!(p10.overlay_sessions, 45);
        let p200 = measure(200);
        assert_eq!(p200.overlay_circuits, 19_900, "paper: 200 sites → ~20,000 VCs");
    }

    /// The i-th site's join updates the min(i, 7) PEs that already hold
    /// the VPN's VRF (a PE's new VRF picks up the existing routes locally),
    /// so n sites cost Σ_{i<n} min(i, 7) updates.
    #[test]
    fn mpls_updates_are_the_packets_the_pes_originate() {
        assert_eq!(measure(10).mpls_updates, 42);
        assert_eq!(measure(50).mpls_updates, 322);
    }

    #[test]
    fn overlay_grows_quadratically_mpls_linearly() {
        let p50 = measure(50);
        let p100 = measure(100);
        // Circuits ×~4 when sites ×2.
        let circuit_ratio = p100.overlay_circuits as f64 / p50.overlay_circuits as f64;
        assert!(circuit_ratio > 3.5, "ratio {circuit_ratio}");
        // MPLS per-PE routes ×~2 when sites ×2.
        let route_ratio = p100.mpls_max_pe_routes as f64 / p50.mpls_max_pe_routes as f64;
        assert!(route_ratio < 2.5, "ratio {route_ratio}");
        // Tunnel labels don't depend on the number of sites at all.
        assert_eq!(p50.mpls_tunnel_labels, p100.mpls_tunnel_labels);
    }

    #[test]
    fn run_renders_rows() {
        let s = run(true);
        assert!(s.contains("45"), "{s}");
        assert!(s.lines().count() >= 6);
    }
}
