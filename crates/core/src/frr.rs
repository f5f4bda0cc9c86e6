//! Fast-reroute orchestration on a running provider network.
//!
//! The control-plane pieces live elsewhere — [`netsim_te::frr`] computes
//! SRLG-disjoint bypass paths, [`netsim_mpls::Lfib`] holds per-interface
//! bypass entries, and the routers flip interfaces down when their
//! BFD-style detection timers fire. This module wires them together on a
//! [`ProviderNetwork`]:
//!
//! * [`ProviderNetwork::protect_all_links`] signals a bypass LSP around
//!   each backbone link (both directions) and installs it as the link's
//!   protection entry at each upstream router.
//! * [`ProviderNetwork::active_switchovers`] counts the failed-link
//!   directions whose traffic rides a bypass right now.
//! * [`ProviderNetwork::execute_fault_plan`] replays a deterministic
//!   [`FaultPlan`] against the network under either failover mode.
//!
//! A bypass is single-level protection: the bypass LSP itself is never
//! rerouted, and [`ProviderNetwork::reconverge`] — which rebuilds every
//! LFIB from scratch — erases all protection state. Re-protect after
//! re-optimizing.

use netsim_qos::Nanos;
use netsim_sim::{FaultAction, FaultPlan, LinkId};
use netsim_te::{cspf_path_excluding, SrlgMap};

use crate::control::ControlMode;
use crate::network::ProviderNetwork;

/// How the network reacts to a link failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailoverMode {
    /// No local protection: traffic blackholes until the control plane
    /// detects the failure and globally reconverges (IGP + LDP).
    GlobalReconverge,
    /// Fast reroute: upstream routers switch onto precomputed bypass
    /// LSPs as soon as detection fires; no global reconvergence.
    FastReroute,
}

/// What happened while executing a [`FaultPlan`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultOutcome {
    /// Link cuts applied (idempotent re-cuts are still counted as plan
    /// events but are no-ops on the network).
    pub cuts: u64,
    /// Link repairs applied.
    pub repairs: u64,
    /// Cut directions that had a bypass installed when the cut landed —
    /// the switchovers that activate once detection fires.
    pub switchovers: u64,
    /// Global reconvergences run (always 0 under
    /// [`FailoverMode::FastReroute`]).
    pub reconvergences: u64,
    /// IGP + LDP messages those reconvergences cost.
    pub control_messages: u64,
}

impl ProviderNetwork {
    /// Signals a bypass LSP around backbone link `topo_link` in each
    /// direction and installs it as that direction's protection entry at
    /// the upstream router. The bypass excludes the protected link and
    /// every link sharing a risk group with it, and avoids currently
    /// failed links. Returns how many directions could be protected
    /// (0–2; an SRLG-disjoint detour does not always exist).
    fn protect_link(&mut self, topo_link: usize, srlg: &SrlgMap) -> usize {
        assert!(topo_link < self.topo.link_count(), "unknown backbone link {topo_link}");
        let (u, v, _) = self.topo.link(topo_link);
        let mut installed = 0;
        for (near, far) in [(u, v), (v, u)] {
            let usable = |l: usize| self.net.link_enabled(LinkId(l));
            let Some(path) = cspf_path_excluding(&self.topo, near, far, srlg, topo_link, &usable)
            else {
                continue;
            };
            let ftn = self.install_explicit_lsp(&path);
            let iface = self.topo.iface_toward(near, far);
            self.backbone_mut(near).0.install_protection(iface, ftn);
            installed += 1;
        }
        installed
    }

    /// Protects every backbone link that has a viable SRLG-disjoint
    /// detour. Returns the number of protected directions installed.
    pub fn protect_all_links(&mut self, srlg: &SrlgMap) -> usize {
        (0..self.topo.link_count()).map(|l| self.protect_link(l, srlg)).sum()
    }

    /// Failed-link directions whose upstream router currently has both a
    /// bypass installed and the interface marked down — i.e. traffic is
    /// flowing over the bypass right now.
    pub fn active_switchovers(&mut self) -> u64 {
        let mut n = 0;
        for link in self.failed_links() {
            let (u, v, _) = self.topo.link(link);
            for (near, far) in [(u, v), (v, u)] {
                let iface = self.topo.iface_toward(near, far);
                let l = self.backbone(near).0;
                n += u64::from(l.iface_down(iface) && l.protection(iface).is_some());
            }
        }
        n
    }

    /// Cut directions of `topo_link` that currently have a bypass
    /// installed upstream (whether or not detection has fired yet).
    fn protected_directions(&mut self, topo_link: usize) -> u64 {
        let (u, v, _) = self.topo.link(topo_link);
        let mut n = 0;
        for (near, far) in [(u, v), (v, u)] {
            let iface = self.topo.iface_toward(near, far);
            n += u64::from(self.backbone(near).0.protection(iface).is_some());
        }
        n
    }

    /// Replays `plan` against the network, advancing the simulator to
    /// each event's timestamp before applying it, and finally runs the
    /// simulator to `until`. Under [`FailoverMode::GlobalReconverge`] a
    /// global reconvergence is scheduled one detection delay after every
    /// event (cut *and* repair) — the control plane's reaction; under
    /// [`FailoverMode::FastReroute`] the routers' own detection timers do
    /// all the work and no reconvergence runs. Events at or after `until`
    /// are ignored. Deterministic: the same plan, mode and network seed
    /// replay identically.
    pub fn execute_fault_plan(
        &mut self,
        plan: &FaultPlan,
        mode: FailoverMode,
        until: Nanos,
    ) -> FaultOutcome {
        enum Step {
            Cut(usize),
            Repair(usize),
            Reconverge,
        }
        let mut steps: Vec<(Nanos, Step)> = Vec::new();
        for ev in plan.events() {
            let step = match ev.action {
                FaultAction::Cut => Step::Cut(ev.link),
                FaultAction::Repair => Step::Repair(ev.link),
            };
            steps.push((ev.at, step));
            // Under in-band control the LSA flood *is* the reaction; the
            // oracle reconvergence only stands in for it in Oracle mode.
            if mode == FailoverMode::GlobalReconverge && self.control_mode() == ControlMode::Oracle
            {
                steps.push((ev.at + self.detect_ns, Step::Reconverge));
            }
        }
        // Stable: a cut stays ahead of a reconvergence landing at the
        // same instant.
        steps.sort_by_key(|&(t, _)| t);

        let mut out = FaultOutcome::default();
        for (t, step) in steps {
            if t >= until {
                break;
            }
            self.net.run_until(t);
            match step {
                Step::Cut(l) => {
                    out.switchovers += self.protected_directions(l);
                    self.fail_link(l);
                    out.cuts += 1;
                }
                Step::Repair(l) => {
                    self.repair_link(l);
                    out.repairs += 1;
                }
                Step::Reconverge => {
                    let s = self.reconverge();
                    out.control_messages += s.igp_lsa_messages + s.ldp_messages;
                    out.reconvergences += 1;
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
        let srlg = SrlgMap::new(pn.topo.link_count());
        // Both directions of both short-path links get bypasses.
        assert_eq!(pn.protect_link(0, &srlg), 2);
        assert_eq!(pn.protect_link(1, &srlg), 2);

        let sink = start_flow(&mut pn, a, b, 300); // 3 s of traffic
        pn.run_for(SEC);
        pn.fail_link(1); // cut 1-4 mid-stream; no reconvergence ever runs
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
    fn unprotected_failure_blackholes_until_reconvergence() {
        let (mut pn, a, b) = fish_network(10 * MSEC);
        let sink = start_flow(&mut pn, a, b, 300);
        pn.run_for(SEC);
        pn.fail_link(1);
        pn.run_for(3 * SEC);
        let f = pn.net.node_ref::<Sink>(sink).flow(1).unwrap();
        let lost = 300 - f.rx_packets;
        // ~2 s of blackhole at 100 pps: the whole tail is gone.
        assert!(lost > 150, "expected a blackhole, lost only {lost}");
    }

    #[test]
    fn reconverge_wipes_active_switchovers() {
        let (mut pn, _a, _b) = fish_network(10 * MSEC);
        let srlg = SrlgMap::new(pn.topo.link_count());
        pn.protect_link(1, &srlg);
        pn.fail_link(1);
        pn.run_for(50 * MSEC); // detection fires at 10 ms
        assert_eq!(pn.active_switchovers(), 2, "FRR carries both directions");
        assert!(pn.reconverge().igp_lsa_messages > 0);
        // Reconvergence wiped protection state.
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
    fn fault_plan_replay_is_mode_aware() {
        let plan = FaultPlan::new(vec![
            FaultEvent { at: 100 * MSEC, link: 1, action: FaultAction::Cut },
            FaultEvent { at: 400 * MSEC, link: 1, action: FaultAction::Repair },
        ]);

        let (mut frr, _a, _b) = fish_network(10 * MSEC);
        let srlg = SrlgMap::new(frr.topo.link_count());
        frr.protect_all_links(&srlg);
        let out = frr.execute_fault_plan(&plan, FailoverMode::FastReroute, SEC);
        assert_eq!((out.cuts, out.repairs), (1, 1));
        assert_eq!(out.switchovers, 2);
        assert_eq!(out.reconvergences, 0);

        let (mut global, _a, _b) = fish_network(10 * MSEC);
        let out = global.execute_fault_plan(&plan, FailoverMode::GlobalReconverge, SEC);
        assert_eq!((out.cuts, out.repairs), (1, 1));
        assert_eq!(out.switchovers, 0);
        assert_eq!(out.reconvergences, 2);
        assert!(out.control_messages > 0, "reconvergence costs messages");
        // After the repair-side reconvergence the link is usable again.
        assert!(global.net.link_enabled(LinkId(1)));
    }
}
