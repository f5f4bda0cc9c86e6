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

use mplsvpn_core::network::DsSched;
use mplsvpn_core::{BackboneBuilder, ControlMode, CoreQos, Sla};
use netsim_net::addr::pfx;
use netsim_net::Dscp;
use netsim_qos::Nanos;
use netsim_routing::{LinkAttrs, Topology};
use netsim_sim::{CbrSource, Sink, SourceConfig, MSEC, SEC};

use crate::table::{ms, pct, Table};

/// The two carriers: each a line of three nodes over 10 Mb/s links, with
/// the customer PE at one end and the ASBR at the other, A = 0-1-2 and
/// B = 3-4-5, joined ASBR to ASBR by a 100 Mb/s inter-AS link. PE
/// ordinals 0 (node 0) and 1 (node 5) home the sites; 2 and 3 are the
/// ASBRs. Returns the topology, the PEs and the domain of each node.
fn carriers() -> (Topology, Vec<usize>, Vec<usize>) {
    let mut t = Topology::new(6);
    let link = |mbps: u64| LinkAttrs { cost: 1, capacity_bps: mbps * 1_000_000 };
    for (u, v) in [(0, 1), (1, 2), (3, 4), (4, 5)] {
        t.add_link(u, v, link(10));
    }
    t.add_link(2, 3, link(100));
    (t, vec![0, 5, 2, 3], vec![0, 0, 0, 1, 1, 1])
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
    /// Whether the flow met the backbone voice SLA (`None`: it has no SLA).
    pub sla_met: Option<bool>,
}

/// Runs the two-carrier scenario with control messages carried by
/// `control`; returns flows, whether EXP survived the boundary, and the
/// control packets sent up to the first data packet (LDP bring-up in both
/// carriers and the MP-BGP exchange through the ASBRs).
pub fn measure(duration: Nanos, diffserv: bool, control: ControlMode) -> (Vec<Q4Flow>, bool, u64) {
    let qos = if diffserv {
        CoreQos::DiffServ { cap_bytes: 128 * 1024, sched: DsSched::Priority }
    } else {
        CoreQos::BestEffort { cap_bytes: 128 * 1024 }
    };
    let (topo, pes, domains) = carriers();
    let mut pn = BackboneBuilder::new(topo, pes)
        .domains(domains)
        .core_qos(qos)
        .control_mode(control)
        .build();
    let vpn = pn.new_vpn("carrier-vpn");
    let (pa, pb) = (pfx("10.1.0.0/16"), pfx("10.2.0.0/16"));
    let a = pn.add_site(vpn, 0, pa, None);
    let b = pn.add_site(vpn, 1, pb, None);
    pn.run_to_quiescence(); // the MP-BGP updates cross both carriers
    pn.verify().assert_clean("Q4 two-carrier network");
    let control_pkts = pn.control_stats().map_or(0, |c| c.pkts_sent);
    pn.net.enable_trace();
    let sink = pn.attach_sink(b, pb);
    // Voice: EF, 75 kb/s. Bulk: BE flood at ~12 Mb/s across 10 Mb/s links.
    let voice = SourceConfig::udp(1, pa.nth(3), pb.nth(3), 16400, 160).with_dscp(Dscp::EF);
    let bulk = SourceConfig::udp(2, pa.nth(4), pb.nth(4), 20, 1200);
    let voice_count = duration / (20 * MSEC);
    let bulk_interval = 600_000; // 1228 B wire / 0.6 ms ≈ 16.4 Mb/s
    let bulk_count = duration / bulk_interval;
    let ce_a = pn.sites[a.0].ce;
    pn.net.attach_source(ce_a, Box::new(CbrSource::new(voice, 20 * MSEC, Some(voice_count))));
    pn.net.attach_source(ce_a, Box::new(CbrSource::new(bulk, bulk_interval, Some(bulk_count))));
    pn.run_for(duration + SEC);

    let s = pn.net.node_ref::<Sink>(sink);
    let flow = |name, id, sent, sla: Option<Sla>| Q4Flow {
        name,
        loss: s.flow(id).map_or(1.0, |f| f.loss(sent)),
        mean_ns: s.flow(id).map_or(0, |f| f.latency.mean() as u64),
        p99_ns: s.flow(id).map_or(0, |f| f.latency.quantile(0.99)),
        sla_met: sla.map(|sla| s.flow(id).is_some_and(|f| sla.evaluate(f, sent).met)),
    };
    let flows = vec![
        flow("voice (EF)", 1, voice_count, Some(Sla::backbone_voice())),
        flow("bulk (BE)", 2, bulk_count, None),
    ];
    // EXP preservation: every labeled hop of the voice flow must carry 5.
    let trace = pn.net.trace().expect("trace enabled");
    let exp_ok = trace.flow(1).iter().filter_map(|r| r.exp).all(|e| e == 5);
    (flows, exp_ok, control_pkts)
}

/// Runs both configurations and renders the table.
pub fn run(quick: bool) -> String {
    let duration = if quick { SEC } else { 5 * SEC };
    let mut out = String::new();
    for (name, ds) in
        [("both carriers best-effort", false), ("both carriers DiffServ-on-EXP", true)]
    {
        let (flows, exp_ok, msgs) = measure(duration, ds, ControlMode::Oracle);
        let mut t = Table::new(
            format!("Q4 [{name}] — EXP preserved across ASBRs: {exp_ok}, control messages: {msgs}"),
            &["flow", "loss", "mean ms", "p99 ms", "backbone voice SLA (50ms)"],
        );
        for f in &flows {
            let sla = f.sla_met.map_or("-", |met| if met { "MET" } else { "VIOLATED" });
            t.row(&[f.name.into(), pct(f.loss), ms(f.mean_ns), ms(f.p99_ns), sla.into()]);
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
        let (be, exp_be, _) = measure(2 * SEC, false, ControlMode::Oracle);
        let (ds, exp_ds, msgs) = measure(2 * SEC, true, ControlMode::Oracle);
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

    /// In band, the MP-BGP exchange rides the links, and the ASBRs'
    /// relabeling still preserves EXP; the exchange costs the same packets
    /// under either transport.
    #[test]
    fn exp_survives_the_asbrs_under_both_transports() {
        let (_, exp_oracle, oracle) = measure(SEC, true, ControlMode::Oracle);
        let (flows, exp_in_band, in_band) = measure(SEC, true, ControlMode::InBand);
        assert!(exp_oracle && exp_in_band, "EXP must survive the ASBRs");
        assert_eq!(in_band, oracle, "control packets");
        assert!(flows[0].loss < 0.01, "in-band voice loss {}", flows[0].loss);
    }
}
