//! **S1 — per-flow IntServ/RSVP state vs per-class DiffServ** (paper §2.2).
//!
//! "Many carriers and users are uncomfortable with individually selectable
//! QoS … users question the size of the administration task. A more
//! manageable strategy would be simply assign a QoS level to an entire
//! VPN."
//!
//! The experiment admits N per-flow reservations across the national
//! backbone and tabulates the per-router soft state and refresh-message
//! load RSVP requires, against DiffServ's constant eight classes per
//! interface.

use mplsvpn_core::intserv::{diffserv_node_state, FlowId, FlowRequest, IntServDomain};
use netsim_routing::Igp;

use crate::table::{f2, Table};
use crate::topo;

/// One row of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct IntServPoint {
    /// Flows offered.
    pub flows: usize,
    /// Flows admitted (the rest hit admission control).
    pub admitted: usize,
    /// Largest per-router RSVP soft-state table.
    rsvp_max_state: u64,
    /// RSVP setup messages.
    rsvp_setup_msgs: u64,
    /// Steady-state RSVP refresh load, messages/second.
    rsvp_refresh_per_sec: f64,
    /// DiffServ state at the busiest router (constant).
    diffserv_state: u64,
}

/// Admits `n` 64 kb/s voice-like flows between round-robin PE pairs.
pub fn measure(n: usize) -> IntServPoint {
    let (t, pes) = topo::national(6, 8, 622);
    let igp = Igp::converge(&t);
    let mut d = IntServDomain::new(&t, &igp);
    let mut admitted = 0;
    for i in 0..n {
        let src = pes[i % pes.len()];
        let dst = pes[(i + 3) % pes.len()];
        if d.reserve(FlowRequest { id: FlowId(i as u64), src, dst, rate_bps: 64_000 }).is_ok() {
            admitted += 1;
        }
    }
    let diffserv_state = (0..t.node_count()).map(|u| diffserv_node_state(&t, u)).max().unwrap_or(0);
    IntServPoint {
        flows: n,
        admitted,
        rsvp_max_state: d.max_node_state(),
        rsvp_setup_msgs: d.messages,
        rsvp_refresh_per_sec: d.refresh_messages_per_sec(),
        diffserv_state,
    }
}

/// Runs the sweep and renders the table.
pub fn run(quick: bool) -> String {
    let sizes: Vec<usize> = if quick { vec![100, 1_000] } else { vec![100, 1_000, 10_000, 50_000] };
    let mut t = Table::new(
        "S1: per-flow RSVP/IntServ state vs per-class DiffServ (8-PE national backbone, 64 kb/s flows)",
        &[
            "flows",
            "admitted",
            "rsvp max state/router",
            "rsvp setup msgs",
            "rsvp refresh msg/s",
            "diffserv state/router",
        ],
    );
    for &n in &sizes {
        let p = measure(n);
        t.row(&[
            p.flows.to_string(),
            p.admitted.to_string(),
            p.rsvp_max_state.to_string(),
            p.rsvp_setup_msgs.to_string(),
            f2(p.rsvp_refresh_per_sec),
            p.diffserv_state.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rsvp_state_grows_linearly_diffserv_stays_flat() {
        let small = measure(100);
        let large = measure(1_000);
        assert_eq!(small.admitted, 100, "622 Mb/s fits 100 voice flows");
        assert_eq!(large.admitted, 1_000);
        let ratio = large.rsvp_max_state as f64 / small.rsvp_max_state as f64;
        assert!(ratio > 8.0, "per-flow state must scale with flows: {ratio}");
        assert_eq!(small.diffserv_state, large.diffserv_state, "per-class state is flat");
        assert!(large.rsvp_refresh_per_sec > 50.0, "soft state has a standing cost");
    }

    #[test]
    fn admission_control_engages_at_very_large_counts() {
        // 64 kb/s × enough flows eventually saturates 622 Mb/s links.
        let p = measure(200_000);
        assert!(p.admitted < p.flows, "admission control must refuse some");
        assert!(p.admitted > 0);
    }
}
