//! Fast-reroute orchestration on a running provider network.
//!
//! The control-plane pieces live elsewhere — [`netsim_routing::cspf_path`]
//! finds each bypass, [`netsim_mpls::Lfib`] holds per-interface bypass
//! entries, and the routers flip interfaces down when their BFD-style
//! detection timers fire. This module wires them together on a
//! [`ProviderNetwork`]:
//!
//! * [`ProviderNetwork::protect_all_links`] signals a bypass LSP around
//!   each backbone link (both directions) and installs it as the link's
//!   protection entry at each upstream router.
//! * [`ProviderNetwork::active_switchovers`] counts the failed-link
//!   directions whose upstream router has switched its bypass on.
//! * [`ProviderNetwork::execute_fault_plan`] replays a deterministic
//!   [`FaultPlan`] against the network.
//!
//! There is one failover model. Fast reroute is on where
//! `protect_all_links` installed a bypass, and the control plane always
//! converges around a failure. The two compose as RFC 8333 has it: the
//! upstream router (the point of local repair) switches onto the bypass
//! at detection, floods the failure at once and holds its own repair for
//! a local convergence delay, while every other router converges; then
//! the point of local repair converges too, and the bypass stays armed
//! but idle. A bypass is single-level protection: the bypass LSP itself
//! is never rerouted, and the reference [`ProviderNetwork::reconverge`],
//! which rebuilds every LFIB from scratch, erases all protection state.

use netsim_qos::Nanos;
use netsim_routing::cspf_path;
use netsim_sim::{FaultAction, FaultPlan, LinkId};

use crate::network::ProviderNetwork;

/// What happened while executing a [`FaultPlan`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultOutcome {
    /// Link cuts applied (idempotent re-cuts are still counted as plan
    /// events but are no-ops on the network).
    pub cuts: u64,
    /// Link repairs applied.
    pub repairs: u64,
    /// Directions of a link the plan took down that had a bypass installed
    /// when the cut landed — the switchovers that activate once detection
    /// fires. A cut of a link already down switches nothing.
    pub switchovers: u64,
}

impl ProviderNetwork {
    /// Signals a bypass LSP around backbone link `topo_link` in each
    /// direction and installs it as that direction's protection entry at
    /// the upstream router. The bypass excludes the protected link and
    /// avoids currently failed links. Returns how many directions could be
    /// protected (0–2; a link-disjoint detour does not always exist).
    fn protect_link(&mut self, topo_link: usize) -> usize {
        assert!(topo_link < self.topo.link_count(), "unknown backbone link {topo_link}");
        let (u, v, _) = self.topo.link(topo_link);
        let mut installed = 0;
        for (near, far) in [(u, v), (v, u)] {
            let usable = |l: usize| l != topo_link && self.net.link_enabled(LinkId(l));
            let Some(path) = cspf_path(&self.topo, near, far, usable) else {
                continue;
            };
            let ftn = self.install_explicit_lsp(&path);
            let iface = self.topo.iface_toward(near, far);
            self.with_control(near, |_, tables, _| tables.lfib.install_protection(iface, ftn));
            installed += 1;
        }
        installed
    }

    /// Protects every backbone link that has a viable link-disjoint
    /// detour. Returns the number of protected directions installed.
    pub fn protect_all_links(&mut self) -> usize {
        (0..self.topo.link_count()).map(|l| self.protect_link(l)).sum()
    }

    /// Failed-link directions whose upstream router currently has both a
    /// bypass installed and the interface marked down — the switchovers
    /// in force. The bypass carries the router's traffic until its local
    /// convergence delay ends; after that it stays armed for packets still
    /// sent toward the dead link.
    pub fn active_switchovers(&self) -> u64 {
        self.failed_links().into_iter().map(|l| self.protected_directions(l, true)).sum()
    }

    /// Directions of `topo_link` whose upstream router has a bypass
    /// installed, counting only those it has switched on (the interface
    /// marked down) when `active`.
    fn protected_directions(&self, topo_link: usize, active: bool) -> u64 {
        let (u, v, _) = self.topo.link(topo_link);
        let on = |(near, far)| {
            let (lfib, iface) = (self.backbone(near).0, self.topo.iface_toward(near, far));
            (if active { lfib.bypass(iface) } else { lfib.protection(iface) }).is_some()
        };
        [(u, v), (v, u)].into_iter().filter(|&d| on(d)).count() as u64
    }

    /// Replays `plan` against the network, advancing the simulator to
    /// each event's timestamp before applying it, and finally runs the
    /// simulator to `until`. The routers' own detection timers and control
    /// planes do the reacting. Events at or after `until` are ignored.
    /// Deterministic: the same plan and network seed replay identically.
    pub fn execute_fault_plan(&mut self, plan: &FaultPlan, until: Nanos) -> FaultOutcome {
        let mut out = FaultOutcome::default();
        for ev in plan.events().iter().take_while(|ev| ev.at < until) {
            self.net.run_until(ev.at);
            match ev.action {
                FaultAction::Cut => {
                    if self.fail_link(ev.link) {
                        out.switchovers += self.protected_directions(ev.link, false);
                    }
                    out.cuts += 1;
                }
                FaultAction::Repair => {
                    self.repair_link(ev.link);
                    out.repairs += 1;
                }
            }
        }
        self.net.run_until(until);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{BackboneBuilder, SiteId};
    use netsim_net::addr::pfx;
    use netsim_routing::{LinkAttrs, Topology};
    use netsim_sim::{FaultEvent, LinkId, Sink, SourceConfig, MSEC, SEC};

    /// The fish: PE0/PE4 at the ends, short path 0-1-4, long 0-2-3-4.
    fn fish() -> Topology {
        let mut t = Topology::new(5);
        let attrs = LinkAttrs { cost: 1, capacity_bps: 10_000_000 };
        for (u, v) in [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)] {
            t.add_link(u, v, attrs);
        }
        t
    }

    /// A fish backbone with one VPN and a site on each PE.
    fn fish_network(detect: Nanos) -> (ProviderNetwork, SiteId, SiteId) {
        let mut pn = BackboneBuilder::new(fish(), vec![0, 4]).detection(detect).build();
        let vpn = pn.new_vpn("acme");
        let a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
        let b = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
        (pn, a, b)
    }

    /// Starts a 100 pps CBR flow `a → b` carrying `count` packets and
    /// returns the sink node measuring it.
    fn start_flow(
        pn: &mut ProviderNetwork,
        a: SiteId,
        b: SiteId,
        count: u64,
    ) -> netsim_sim::NodeId {
        let sink = pn.attach_sink(b, pfx("10.2.0.0/16"));
        let cfg = SourceConfig::udp(1, pn.site_addr(a, 1), pn.site_addr(b, 9), 5000, 200);
        pn.attach_cbr_source(a, cfg, 10 * MSEC, Some(count));
        sink
    }

    #[test]
    fn protected_failure_keeps_traffic_flowing_after_detection() {
        let (mut pn, a, b) = fish_network(10 * MSEC);
        // Both directions of both short-path links get bypasses.
        assert_eq!(pn.protect_link(0), 2);
        assert_eq!(pn.protect_link(1), 2);

        let sink = start_flow(&mut pn, a, b, 300); // 3 s of traffic
        pn.run_for(SEC);
        pn.fail_link(1); // cut 1-4 mid-stream
        pn.run_for(3 * SEC);

        let f = pn.net.node_ref::<Sink>(sink).flow(1).unwrap();
        let lost = 300 - f.rx_packets;
        // Only the ~10 ms blind window between cut and detection loses
        // packets (100 pps → ~1).
        assert!(lost <= 3, "lost {lost} packets despite FRR protection");
        // Both directions of the cut link are in switchover state.
        assert_eq!(pn.active_switchovers(), 2);
    }

    #[test]
    fn unprotected_failure_loses_the_detection_window_then_converges() {
        let (mut pn, a, b) = fish_network(200 * MSEC);
        let sink = start_flow(&mut pn, a, b, 300);
        pn.run_for(SEC);
        pn.fail_link(1);
        pn.run_for(3 * SEC);
        let f = pn.net.node_ref::<Sink>(sink).flow(1).unwrap();
        let lost = 300 - f.rx_packets;
        // 200 ms of blackhole at 100 pps, then the long path carries the rest.
        assert!((19..=21).contains(&lost), "lost {lost}");
        assert_eq!(pn.active_switchovers(), 0, "nothing to switch over to");
    }

    /// The point of local repair converges last: while the hold runs its
    /// SPF view still uses the failed link and the bypass carries its
    /// traffic; once the hold has expired its view is a fresh
    /// recomputation's.
    #[test]
    fn point_of_local_repair_holds_its_repair_then_converges() {
        use crate::control::LOCAL_CONVERGENCE_DELAY;
        use netsim_routing::Igp;
        let (mut pn, _a, _b) = fish_network(10 * MSEC);
        pn.protect_link(1);
        let before = pn.effective_spf(1).clone();
        pn.fail_link(1); // P1 protects its link toward PE4
        pn.run_for(10 * MSEC + LOCAL_CONVERGENCE_DELAY - 1);
        let fresh = Igp::converge_filtered(&pn.topo, |l| l != 1);
        assert_eq!(pn.effective_spf(0).next_hop, fresh.tree(0).next_hop, "PE0 converged");
        assert_eq!(pn.effective_spf(1).next_hop, before.next_hop, "P1 still holds");
        assert_eq!(pn.active_switchovers(), 2);
        pn.run_for(1);
        let view = pn.effective_spf(1);
        assert_eq!((&view.dist, &view.next_hop), (&fresh.tree(1).dist, &fresh.tree(1).next_hop));
    }

    #[test]
    fn reconverge_wipes_active_switchovers() {
        let (mut pn, _a, _b) = fish_network(10 * MSEC);
        pn.protect_link(1);
        pn.fail_link(1);
        pn.run_for(50 * MSEC); // detection fires at 10 ms
        assert_eq!(pn.active_switchovers(), 2, "FRR carries both directions");
        pn.reconverge();
        // The reference recompute wiped protection state.
        assert_eq!(pn.active_switchovers(), 0);
    }

    #[test]
    fn fail_link_is_idempotent_and_fail_node_cuts_all_adjacencies() {
        let (mut pn, _a, _b) = fish_network(10 * MSEC);
        pn.fail_link(1);
        pn.fail_link(1); // no double-arm, no double-count
        assert_eq!(pn.failed_links(), vec![1]);
        pn.fail_node(4); // links 1 (already down) and 4
        assert_eq!(pn.failed_links(), vec![1, 4]);
        pn.repair_link(1);
        pn.repair_link(1);
        assert_eq!(pn.failed_links(), vec![4]);
    }

    #[test]
    fn fault_plan_replay_counts_switchovers_only_where_protected() {
        let plan = FaultPlan::new(vec![
            FaultEvent { at: 100 * MSEC, link: 1, action: FaultAction::Cut },
            FaultEvent { at: 400 * MSEC, link: 1, action: FaultAction::Repair },
        ]);

        let (mut frr, _a, _b) = fish_network(10 * MSEC);
        frr.protect_all_links();
        let out = frr.execute_fault_plan(&plan, SEC);
        assert_eq!((out.cuts, out.repairs, out.switchovers), (1, 1, 2));

        let (mut bare, _a, _b) = fish_network(10 * MSEC);
        let out = bare.execute_fault_plan(&plan, SEC);
        assert_eq!((out.cuts, out.repairs, out.switchovers), (1, 1, 0));
        // The repair's detection brought the link and the routes back.
        assert!(bare.net.link_enabled(LinkId(1)));
        assert_eq!(bare.lsp_path(0, 1), Some(vec![0, 1, 4]));
    }

    /// Two flaps of one protected link overlap: the second cut lands on a
    /// link already down and switches nothing over.
    #[test]
    fn a_recut_of_a_down_link_is_no_switchover() {
        let plan = FaultPlan::new(vec![
            FaultEvent { at: 100 * MSEC, link: 1, action: FaultAction::Cut },
            FaultEvent { at: 200 * MSEC, link: 1, action: FaultAction::Cut },
            FaultEvent { at: 300 * MSEC, link: 1, action: FaultAction::Repair },
            FaultEvent { at: 400 * MSEC, link: 1, action: FaultAction::Repair },
        ]);
        let (mut pn, _a, _b) = fish_network(10 * MSEC);
        pn.protect_all_links();
        let out = pn.execute_fault_plan(&plan, SEC);
        assert_eq!((out.cuts, out.repairs), (2, 2), "every plan event is counted");
        assert_eq!(out.switchovers, 2, "only the first cut switches the two directions");
    }

    /// From detection to the end of the point of local repair's hold the
    /// packets ride the bypass, and so do the verifier's stack walks: the
    /// stacks P1 and PE4 (PE ordinal 1) send into the cut are `V-LBL-006`
    /// information, not `V-LBL-001` errors, under both transports. Before
    /// detection they dangle, and after the hold no stack rides a bypass.
    /// In band, PE0's LSP rides P1's bypass until PE0 has reconverged; the
    /// oracle reconverges PE0 at detection.
    #[test]
    fn stacks_ride_the_bypass_from_detection_to_the_end_of_the_hold() {
        use crate::control::{ControlMode, LOCAL_CONVERGENCE_DELAY};
        use netsim_verify::codes;
        const DETECT: Nanos = 10 * MSEC;
        for mode in [ControlMode::Oracle, ControlMode::InBand] {
            let mut pn = BackboneBuilder::new(fish(), vec![0, 4])
                .detection(DETECT)
                .control_mode(mode)
                .build();
            let vpn = pn.new_vpn("acme");
            pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
            pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
            pn.run_to_quiescence();
            pn.protect_link(1);
            pn.verify().assert_clean("before the cut");
            pn.fail_link(1);
            let cut = pn.net.now();
            let r = pn.verify();
            assert!(r.has_code(codes::LBL_DANGLING) && !r.has_code(codes::LBL_BYPASS), "{r}");
            pn.run_for(DETECT);
            let (bypass, converged) = (vec![0, 1, 0, 2, 3, 4], vec![0, 2, 3, 4]);
            let mut reconverged = false;
            while pn.net.now() < cut + DETECT + LOCAL_CONVERGENCE_DELAY {
                let at = pn.net.now() - cut;
                let r = pn.verify();
                assert!(r.is_clean(), "{mode:?} at {at} ns: {r}");
                let rides: Vec<_> =
                    r.with_code(codes::LBL_BYPASS).map(|d| d.location.as_str()).collect();
                for loc in
                    ["P1 FTN P1 Fec(1)", "PE1 FTN PE1 Fec(0)", "PE1 FTN PE1 vrf acme 10.1.0.0/16"]
                {
                    assert!(rides.contains(&loc), "{mode:?} at {at} ns: {r}");
                }
                let path = pn.lsp_path(0, 1).unwrap_or_else(|| panic!("{mode:?} at {at} ns"));
                reconverged |= path == converged;
                assert_eq!(
                    &path,
                    if reconverged { &converged } else { &bypass },
                    "{mode:?} at {at} ns"
                );
                if at == DETECT {
                    assert_eq!(reconverged, mode == ControlMode::Oracle, "{at} ns");
                }
                pn.run_for(100_000);
            }
            assert!(reconverged, "{mode:?}");
            let r = pn.verify();
            assert!(r.is_clean() && !r.has_code(codes::LBL_BYPASS), "{mode:?} after the hold: {r}");
        }
    }
}
