//! **R2 — fast reroute vs global reconvergence** (paper §3/§5).
//!
//! §5 argues MPLS lets operators "avoid congested, constrained or
//! disabled links"; R1 showed what a *disabled* link costs when the only
//! reaction is global reconvergence. R2 adds the missing mechanism: link
//! protection. Every backbone link gets a precomputed link-disjoint
//! bypass LSP; when the short path of the fish is cut mid-call, the
//! upstream router switches onto the bypass as soon as BFD detection
//! fires — no control-plane convergence in the loss path. The control
//! plane still converges around the cut in every arm; the upstream router
//! holds its own repair for a local convergence delay (RFC 8333) while the
//! bypass carries its traffic.
//!
//! The voice+data mix (Q1's, ~35% oversubscribed) crosses the fish for
//! 8 s; the cut lands at t = 2 s and the repair at t = 5 s. The table
//! compares a protected and an unprotected backbone on voice loss, the
//! implied blind window, and how many of the 8 voice flows still meet the
//! backbone voice SLA.

use mplsvpn_core::network::DsSched;
use mplsvpn_core::{BackboneBuilder, ControlMode, CoreQos, MetricsSnapshot, Sla};
use netsim_net::addr::pfx;
use netsim_qos::Nanos;
use netsim_sim::{FaultAction, FaultEvent, FaultPlan, LinkId, Sink, MSEC, SEC};

use crate::report::ExpReport;
use crate::table::{ms, Table};
use crate::{mix, topo};

/// Seconds of simulated traffic.
const RUN_SECS: u64 = 8;
/// When the short-path link is cut.
const CUT_AT: Nanos = 2 * SEC;
/// When it is repaired.
const REPAIR_AT: Nanos = 5 * SEC;
/// Mix RNG seed (also keys the determinism assertions).
const SEED: u64 = 7;

/// Outcome of one failover run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailoverResult {
    /// Whether every link had a bypass (fast reroute).
    pub protected: bool,
    /// Detection delay modelled, ns.
    pub detection_ns: Nanos,
    /// Voice packets sent across all 8 EF flows.
    voice_tx: u64,
    /// Voice packets lost across all 8 EF flows.
    voice_lost: u64,
    /// Blind window implied by the loss: aggregate voice runs at 400 pps,
    /// so each lost packet accounts for 2.5 ms of outage.
    loss_window_ns: Nanos,
    /// Voice flows (of 8) violating the backbone voice SLA.
    sla_violations: usize,
    /// Bypass switchovers activated by the cut.
    pub switchovers: u64,
    /// Control packets the routers sent since the network came up, under
    /// either transport: the MP-BGP packets that brought the VPN up, then
    /// the LSAs and LDP messages of the reaction.
    pub control_messages: u64,
    /// Worst LSA propagation+processing latency of the control plane, ns
    /// (0 in oracle arms — the oracle transport takes no simulated time).
    ctrl_propagation_ns: Nanos,
    /// CS6 control packets that crossed backbone links (EXP 6 in the
    /// per-class link counters; 0 in oracle arms).
    cs6_control_packets: u64,
}

/// Runs the cut/repair cycle, with every link `protected` by a bypass or
/// none, control messages carried by `control_mode` and the given
/// detection delay. Returns the outcome and the run's full metrics
/// snapshot — the cut shows up as `link_down_purge` drop-cause rows, the
/// bypass as LFIB `bypass_activations`.
///
/// Under [`ControlMode::InBand`] the failure is flooded as CS6 LSA packets
/// through the same (congested, Q1-mix) links the voice rides, and
/// routers repair their own FIB/LFIB state incrementally. The loss window
/// then includes a nonzero propagation component, and the control traffic
/// itself is visible in the per-class link counters. Under the oracle the
/// same messages take no time and cross no link, so both stay 0.
pub fn measure(
    protected: bool,
    control_mode: ControlMode,
    detection_ns: Nanos,
) -> (FailoverResult, MetricsSnapshot) {
    let (t, pes) = topo::fish(10);
    let mut pn = BackboneBuilder::new(t, pes)
        .core_qos(CoreQos::DiffServ { cap_bytes: 256 * 1024, sched: DsSched::Priority })
        .detection(detection_ns)
        .control_mode(control_mode)
        .build();
    let at_bring_up = pn.control_stats().expect("every network exposes control stats").pkts_sent;
    let vpn = pn.new_vpn("acme");
    let (pa, pb) = (pfx("10.1.0.0/16"), pfx("10.2.0.0/16"));
    let a = pn.add_site(vpn, 0, pa, None);
    let b = pn.add_site(vpn, 1, pb, None);
    // The VPN is up before the first call starts: the MP-BGP updates have
    // landed (at t = 0 under the oracle, a few ms later in band).
    pn.run_to_quiescence();
    let sink = pn.attach_sink(b, pb);
    let flows = mix::attach_mix(&mut pn.net, pn.sites[a.0].ce, pa, pb, 1, SEED, RUN_SECS * SEC);

    if protected {
        pn.protect_all_links();
    }
    pn.verify().assert_clean("failover experiment, pre-cut");

    let plan = FaultPlan::new(vec![
        FaultEvent { at: CUT_AT, link: topo::FISH_SHORT[1], action: FaultAction::Cut },
        FaultEvent { at: REPAIR_AT, link: topo::FISH_SHORT[1], action: FaultAction::Repair },
    ]);
    let out = pn.execute_fault_plan(&plan, (RUN_SECS + 1) * SEC);

    let sla = Sla::backbone_voice();
    let (mut voice_tx, mut voice_lost, mut sla_violations) = (0, 0, 0);
    for f in flows.iter().filter(|f| f.class == "EF") {
        let tx = mix::tx_packets(&pn.net, f);
        let stats = pn.net.node_ref::<Sink>(sink).flow(f.id).expect("voice flow reached sink");
        voice_tx += tx;
        voice_lost += tx - stats.rx_packets;
        if !sla.evaluate(stats, tx).met {
            sla_violations += 1;
        }
    }
    let ctrl = pn.control_stats().expect("every network exposes control stats");
    let cs6_control_packets: u64 = (0..pn.topo.link_count())
        .flat_map(|l| (0..2u8).map(move |d| (l, d)))
        .map(|(l, d)| pn.net.link_stats(LinkId(l), d).tx_by_class[6])
        .sum();
    let result = FailoverResult {
        protected,
        detection_ns,
        voice_tx,
        voice_lost,
        // 8 × 50 pps aggregate voice: one packet per 2.5 ms.
        loss_window_ns: voice_lost * 2_500_000,
        sla_violations,
        switchovers: out.switchovers,
        control_messages: ctrl.pkts_sent - at_bring_up,
        ctrl_propagation_ns: pn.control_convergence_ns().map_or(0, |(_, _, max)| max),
        cs6_control_packets,
    };
    let snap = pn.metrics_snapshot();
    (result, snap)
}

/// Detection delay used for the FRR rows: ~3 missed BFD hellos.
pub const FRR_DETECT: Nanos = 20 * MSEC;
/// Detection delay used for the global rows: ~3 missed IGP hellos.
pub const IGP_DETECT: Nanos = 200 * MSEC;

/// Runs the three arms and renders the table.
pub fn run(quick: bool) -> String {
    report(quick).table
}

/// [`run`]'s table plus the snapshot of its FRR run.
pub fn report(_quick: bool) -> ExpReport {
    use ControlMode::{InBand, Oracle};
    let mut t = Table::new(
        "R2: fish short-path cut at t=2s, repair at t=5s, under the Q1 voice+data mix",
        &[
            "failover mode",
            "detection ms",
            "voice lost (of tx)",
            "loss window ms",
            "SLA violations (of 8)",
            "switchovers",
            "control msgs",
            "ctrl prop ms",
            "CS6 pkts",
        ],
    );
    let mut row = |name: &str, r: &FailoverResult| {
        t.row(&[
            name.to_string(),
            ms(r.detection_ns),
            format!("{} (of {})", r.voice_lost, r.voice_tx),
            ms(r.loss_window_ns),
            r.sla_violations.to_string(),
            r.switchovers.to_string(),
            r.control_messages.to_string(),
            ms(r.ctrl_propagation_ns),
            r.cs6_control_packets.to_string(),
        ]);
    };
    row("global reconvergence (oracle)", &measure(false, Oracle, IGP_DETECT).0);
    row("global reconvergence (in-band)", &measure(false, InBand, IGP_DETECT).0);
    let (frr, snap) = measure(true, Oracle, FRR_DETECT);
    row("fast reroute", &frr);
    ExpReport { table: t.render(), snapshot: Some(snap) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frr_shrinks_the_loss_window_at_least_five_fold() {
        let global = measure(false, ControlMode::Oracle, IGP_DETECT).0;
        let frr = measure(true, ControlMode::Oracle, FRR_DETECT).0;
        assert!(global.voice_lost > 0, "the cut must hurt: {global:?}");
        assert!(
            frr.loss_window_ns * 5 <= global.loss_window_ns,
            "FRR must shrink the loss window ≥5×: frr={frr:?} global={global:?}"
        );
        assert!(frr.switchovers >= 1, "the cut must activate a bypass");
        assert_eq!(global.switchovers, 0, "nothing to switch over to");
        // The control plane converges around the cut in both arms.
        assert!(frr.control_messages > 0 && global.control_messages > 0);
    }

    #[test]
    fn frr_keeps_voice_within_sla_where_reconvergence_does_not() {
        let global = measure(false, ControlMode::Oracle, IGP_DETECT).0;
        let frr = measure(true, ControlMode::Oracle, FRR_DETECT).0;
        assert!(
            frr.sla_violations < global.sla_violations,
            "FRR must save SLAs: frr={} global={}",
            frr.sla_violations,
            global.sla_violations
        );
    }

    /// The flight recorder explains the outage: packets lost to the cut
    /// appear as `link_down_purge`, and the bypass LSP leaves
    /// `bypass_activations` in the protecting router's LFIB stats, under
    /// either transport: the point of local repair holds its own repair
    /// while the rest of the network converges.
    #[test]
    fn snapshot_attributes_the_cut_and_the_bypass() {
        for mode in [ControlMode::Oracle, ControlMode::InBand] {
            let (r, snap) = measure(true, mode, FRR_DETECT);
            assert!(r.switchovers >= 1);
            assert!(
                snap.drop_causes.iter().any(|(n, v)| n == "link_down_purge" && *v > 0),
                "the blind window's losses must be attributed ({mode:?}): {:?}",
                snap.drop_causes
            );
            let bypassed: u64 = snap
                .counters
                .iter()
                .filter(|(n, _)| n.ends_with(".lfib.bypass_activations"))
                .map(|&(_, v)| v)
                .sum();
            assert!(bypassed > 0, "protected traffic must show in LFIB stats ({mode:?})");
        }
    }

    /// The oracle transport moves the same messages without touching a
    /// link: no CS6 packet crosses one, and convergence takes no time.
    #[test]
    fn oracle_control_never_touches_a_link() {
        for protected in [false, true] {
            let r = measure(protected, ControlMode::Oracle, FRR_DETECT).0;
            assert!(r.control_messages > 0, "{r:?}");
            assert_eq!((r.cs6_control_packets, r.ctrl_propagation_ns), (0, 0), "{r:?}");
        }
    }

    /// The in-band arm pays a real, measurable propagation cost: its
    /// convergence latency is nonzero simulated time, and the LSA/LDP
    /// traffic that drove it is observable as CS6 (EXP 6) packets in the
    /// per-class link counters — riding the same queues as the voice.
    #[test]
    fn inband_reconvergence_has_nonzero_propagation_and_visible_cs6() {
        let r = measure(false, ControlMode::InBand, IGP_DETECT).0;
        assert!(r.ctrl_propagation_ns > 0, "convergence takes wire time: {r:?}");
        assert!(r.cs6_control_packets > 0, "control traffic rides EXP 6: {r:?}");
        assert!(r.control_messages >= r.cs6_control_packets);
        assert!(r.voice_lost > 0, "the blind window still hurts: {r:?}");
        // The network did recover: the repair restored the short path and
        // most of the 8 s call got through.
        assert!(r.voice_lost * 4 < r.voice_tx, "recovery happened: {r:?}");
    }

    #[test]
    fn inband_runs_are_seed_deterministic() {
        let run = || measure(false, ControlMode::InBand, IGP_DETECT).0;
        assert_eq!(run(), run());
    }

    #[test]
    fn failover_runs_are_seed_deterministic() {
        let a = measure(true, ControlMode::Oracle, FRR_DETECT).0;
        let b = measure(true, ControlMode::Oracle, FRR_DETECT).0;
        assert_eq!(a, b, "same seed, same plan, same result");
    }
}
