//! **Q4 — SLAs across cooperative provider boundaries** (paper §5).
//!
//! "The progress these QoS-related standards have made will allow service
//! providers to extend SLAs from customer site to customer site and
//! eventually across cooperative service provider boundaries."
//!
//! A voice flow and a bulk flood cross two independently-operated MPLS
//! domains stitched at ASBRs (option-B label exchange). Both domains run
//! DiffServ on EXP; because the ASBR relabeling preserves EXP, the ingress
//! DSCP→EXP decision governs scheduling end to end, and the voice SLA holds
//! across the boundary.

use mplsvpn_core::interprovider::{DomainSpec, InterProviderVpn};
use mplsvpn_core::network::DsSched;
use mplsvpn_core::{CoreQos, Sla};
use netsim_net::addr::pfx;
use netsim_net::Dscp;
use netsim_qos::Nanos;
use netsim_routing::{LinkAttrs, Topology};
use netsim_sim::{CbrSource, Sink, SourceConfig, MSEC, SEC};

use crate::table::{ms, pct, Table};

fn domain(n: usize, pe: usize, asbr: usize, mbps: u64) -> DomainSpec {
    let mut t = Topology::new(n);
    for i in 0..n - 1 {
        t.add_link(i, i + 1, LinkAttrs { cost: 1, capacity_bps: mbps * 1_000_000 });
    }
    DomainSpec { topo: t, pe, asbr }
}

/// Per-flow outcome.
#[derive(Clone, Debug)]
pub struct Q4Flow {
    /// Flow label.
    pub name: &'static str,
    /// Loss fraction.
    pub loss: f64,
    /// Mean latency, ns.
    pub mean_ns: u64,
    /// p99 latency, ns.
    pub p99_ns: u64,
}

/// Runs the two-carrier scenario; returns flows, whether EXP survived the
/// boundary, and control message count.
pub fn measure(duration: Nanos, diffserv: bool) -> (Vec<Q4Flow>, bool, u64) {
    let qos = if diffserv {
        CoreQos::DiffServ { cap_bytes: 128 * 1024, sched: DsSched::Priority }
    } else {
        CoreQos::BestEffort { cap_bytes: 128 * 1024 }
    };
    let mut ip = InterProviderVpn::build(
        domain(3, 0, 2, 10),
        domain(3, 2, 0, 10),
        pfx("10.1.0.0/16"),
        pfx("10.2.0.0/16"),
        qos,
        MSEC,
        None,
    );
    ip.net.enable_trace();
    let sink = ip.attach_sink_b(pfx("10.2.0.0/16"));
    // Voice: EF, 75 kb/s. Bulk: BE flood at ~12 Mb/s across 10 Mb/s links.
    let voice =
        SourceConfig::udp(1, pfx("10.1.0.0/16").nth(3), pfx("10.2.0.0/16").nth(3), 16400, 160)
            .with_dscp(Dscp::EF);
    let bulk = SourceConfig::udp(2, pfx("10.1.0.0/16").nth(4), pfx("10.2.0.0/16").nth(4), 20, 1200);
    let voice_count = duration / (20 * MSEC);
    let bulk_interval = 600_000; // 1228 B wire / 0.6 ms ≈ 16.4 Mb/s
    let bulk_count = duration / bulk_interval;
    ip.net.attach_source(ip.ce_a, Box::new(CbrSource::new(voice, 20 * MSEC, Some(voice_count))));
    ip.net.attach_source(ip.ce_a, Box::new(CbrSource::new(bulk, bulk_interval, Some(bulk_count))));
    ip.net.run_until(duration + SEC);

    let s = ip.net.node_ref::<Sink>(sink);
    let flows = vec![
        Q4Flow {
            name: "voice (EF)",
            loss: s.flow(1).map(|f| f.loss(voice_count)).unwrap_or(1.0),
            mean_ns: s.flow(1).map(|f| f.latency.mean() as u64).unwrap_or(0),
            p99_ns: s.flow(1).map(|f| f.latency.quantile(0.99)).unwrap_or(0),
        },
        Q4Flow {
            name: "bulk (BE)",
            loss: s.flow(2).map(|f| f.loss(bulk_count)).unwrap_or(1.0),
            mean_ns: s.flow(2).map(|f| f.latency.mean() as u64).unwrap_or(0),
            p99_ns: s.flow(2).map(|f| f.latency.quantile(0.99)).unwrap_or(0),
        },
    ];
    // EXP preservation: every labeled hop of the voice flow must carry 5.
    let trace = ip.net.trace().expect("trace enabled");
    let exp_ok = trace.flow(1).iter().filter_map(|r| r.exp).all(|e| e == 5);
    (flows, exp_ok, ip.control_messages)
}

/// Runs both configurations and renders the table.
pub fn run(quick: bool) -> String {
    let duration = if quick { SEC } else { 5 * SEC };
    let mut out = String::new();
    for (name, ds) in
        [("both carriers best-effort", false), ("both carriers DiffServ-on-EXP", true)]
    {
        let (flows, exp_ok, msgs) = measure(duration, ds);
        let mut t = Table::new(
            format!("Q4 [{name}] — EXP preserved across ASBRs: {exp_ok}, control messages: {msgs}"),
            &["flow", "loss", "mean ms", "p99 ms", "backbone voice SLA (50ms)"],
        );
        for f in &flows {
            let sla = if f.name.starts_with("voice") {
                let s = Sla::backbone_voice();
                if f.loss <= s.max_loss
                    && f.mean_ns <= s.max_mean_latency_ns
                    && f.p99_ns <= s.max_p99_latency_ns
                {
                    "MET"
                } else {
                    "VIOLATED"
                }
                .to_string()
            } else {
                "-".into()
            };
            t.row(&[f.name.into(), pct(f.loss), ms(f.mean_ns), ms(f.p99_ns), sla]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sla_holds_across_carriers_only_with_diffserv() {
        let (be, exp_be, _) = measure(2 * SEC, false);
        let (ds, exp_ds, msgs) = measure(2 * SEC, true);
        assert!(exp_be && exp_ds, "EXP must survive the ASBRs in both runs");
        assert!(msgs > 0);
        let v_ds = &ds[0];
        assert!(v_ds.loss < 0.01, "ds voice loss {}", v_ds.loss);
        assert!(v_ds.p99_ns < 100 * MSEC, "ds voice p99 {}", v_ds.p99_ns);
        let v_be = &be[0];
        assert!(
            v_be.loss > 5.0 * v_ds.loss.max(1e-6) || v_be.p99_ns > 2 * v_ds.p99_ns,
            "best-effort should hurt voice across the boundary: be={v_be:?} ds={v_ds:?}"
        );
        // Bulk absorbs the overload under DiffServ.
        assert!(ds[1].loss > 0.05);
    }
}
