//! **R1 — disabled links and reconvergence** (paper §3/§5).
//!
//! §3: MPLS "makes \[networks\] easier to monitor, manage and operate.
//! Users can also control QoS and general traffic flow more precisely to
//! avoid congested, constrained or **disabled** links."
//!
//! A continuous voice flow crosses the fish backbone; at t = 2 s the short
//! path is cut. Packets drop until the failure is *detected* (the swept
//! parameter) and the control plane reconverges onto the long path; when
//! the link is repaired and the routers detect it, traffic returns. The
//! table reports lost packets, outage duration and the control messages
//! the two events cost, per detection delay. Control messages travel over
//! the zero-latency oracle transport, so convergence itself takes no
//! simulated time.

use mplsvpn_core::{BackboneBuilder, ProviderNetwork};
use netsim_net::addr::pfx;
use netsim_qos::Nanos;
use netsim_sim::{Sink, SourceConfig, MSEC, SEC};

use crate::table::{ms, Table};
use crate::topo;

/// Outcome of one failure/repair cycle.
#[derive(Clone, Debug)]
pub struct ResilienceResult {
    /// Detection delay modelled, ns.
    pub detection_ns: Nanos,
    /// Packets lost across the whole run.
    pub lost: u64,
    /// Measured outage: largest gap between consecutive arrivals, ns.
    outage_ns: Nanos,
    /// Control packets the routers sent reconverging (both events).
    reconvergence_messages: u64,
}

/// Runs one failure/repair cycle with the given detection delay.
pub fn measure(detection_ns: Nanos) -> ResilienceResult {
    let (t, pes) = topo::fish(10);
    let mut pn = BackboneBuilder::new(t, pes).detection(detection_ns).build();
    let vpn = pn.new_vpn("acme");
    let a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
    let b = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
    pn.verify().assert_clean("resilience experiment, pre-cut");
    let sink = pn.attach_sink(b, pfx("10.2.0.0/16"));
    // 200 pps voice-like flow for 8 s.
    let interval = 5 * MSEC;
    let total: u64 = 8 * SEC / interval;
    let cfg = SourceConfig::udp(1, pn.site_addr(a, 1), pn.site_addr(b, 1), 16400, 160);
    pn.attach_cbr_source(a, cfg, interval, Some(total));

    pn.run_for(2 * SEC);
    let sent = |pn: &ProviderNetwork| pn.control_stats().map_or(0, |c| c.pkts_sent);
    let sent_before = sent(&pn);
    pn.fail_link(topo::FISH_SHORT[1]); // cut the short path's second hop
    pn.run_for(2 * SEC);
    pn.repair_link(topo::FISH_SHORT[1]);
    pn.run_for(5 * SEC);

    let f = pn.net.node_ref::<Sink>(sink).flow(1).expect("flow survived");
    // Outage = the largest inter-arrival gap, reconstructed from loss runs:
    // with CBR at `interval`, N consecutive losses ⇒ gap (N+1)·interval.
    let lost = total - f.rx_packets;
    ResilienceResult {
        detection_ns,
        lost,
        outage_ns: (lost + 1) * interval,
        reconvergence_messages: sent(&pn) - sent_before,
    }
}

/// Runs the detection-delay sweep and renders the table.
pub fn run(quick: bool) -> String {
    let delays: Vec<Nanos> = if quick {
        vec![50 * MSEC, 500 * MSEC]
    } else {
        vec![0, 50 * MSEC, 200 * MSEC, 500 * MSEC, 1000 * MSEC]
    };
    let mut t = Table::new(
        "R1: link failure on the fish — loss vs failure-detection delay (cut at t=2s, repair at t=4s)",
        &["detection ms", "packets lost (of 1600)", "≈outage ms", "reconvergence msgs"],
    );
    for &d in &delays {
        let r = measure(d);
        t.row(&[
            ms(r.detection_ns),
            r.lost.to_string(),
            ms(r.outage_ns),
            r.reconvergence_messages.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_scales_with_detection_delay_and_service_recovers() {
        let fast = measure(50 * MSEC);
        let slow = measure(1000 * MSEC);
        // 200 pps: ~10 packets per 50 ms of blindness.
        assert!(fast.lost >= 5, "some loss during the outage: {fast:?}");
        assert!(
            slow.lost > fast.lost + 100,
            "longer detection must lose more: fast={} slow={}",
            fast.lost,
            slow.lost
        );
        // Both recover: losses bounded by the outage windows, not the run.
        assert!(slow.lost < 400, "service must recover after reconvergence: {slow:?}");
        assert!(fast.reconvergence_messages > 0);
    }

    #[test]
    fn instant_detection_loses_almost_nothing() {
        let r = measure(0);
        assert!(r.lost <= 3, "instant reconvergence: {r:?}");
    }
}
