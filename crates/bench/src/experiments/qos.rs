//! **Q1 — guaranteed performance on a congested backbone** (paper §3.1/§5).
//!
//! The canonical mix (voice EF, video AF41, data AF21, bulk BE — ~13.5 Mb/s
//! offered) crosses a 10 Mb/s bottleneck. Four core configurations are
//! compared: plain FIFO (the "best-effort IP" strawman of §2.2) and
//! DiffServ-over-MPLS with strict priority, WFQ, or DRR scheduling on the
//! EXP bits (the ablation DESIGN.md calls out). The paper's claim: with
//! DSCP→EXP mapping and EXP scheduling, "flows that are of higher priority"
//! see "a consistent level of service" regardless of the bulk overload.

use mplsvpn_core::network::DsSched;
use mplsvpn_core::{BackboneBuilder, CoreQos, MetricsSnapshot, Sla};
use netsim_net::addr::pfx;
use netsim_net::Dscp;
use netsim_qos::Nanos;
use netsim_sim::{FlowStats, NodeId, Sink, MSEC, SEC};

use crate::mix::{attach_mix, tx_packets, FlowDesc};
use crate::report::ExpReport;
use crate::table::{f2, ms, pct, Table};
use crate::topo;

/// Aggregated per-class measurement.
#[derive(Clone, Debug)]
pub struct ClassRow {
    /// Class name ("EF", "AF41", …).
    pub class: &'static str,
    /// Packets offered by all flows of the class.
    pub tx: u64,
    /// Packets delivered.
    pub rx: u64,
    /// Mean one-way latency, ns.
    pub mean_ns: u64,
    /// Worst p99 latency across the class's flows, ns.
    pub p99_ns: u64,
    /// Worst jitter across the class's flows, ns.
    pub jitter_ns: f64,
    /// Loss fraction.
    pub loss: f64,
}

/// Merges sink stats per class.
pub fn class_rows(net: &netsim_sim::Network, sink: NodeId, flows: &[FlowDesc]) -> Vec<ClassRow> {
    let sink_ref = net.node_ref::<Sink>(sink);
    let classes = ["EF", "AF41", "AF21", "BE"];
    classes
        .iter()
        .map(|&class| {
            let members: Vec<&FlowDesc> = flows.iter().filter(|f| f.class == class).collect();
            let mut tx = 0;
            let mut rx = 0;
            let mut lat = netsim_sim::Histogram::new();
            let mut jitter: f64 = 0.0;
            for f in &members {
                tx += tx_packets(net, f);
                if let Some(st) = sink_ref.flow(f.id) {
                    rx += st.rx_packets;
                    lat.merge(&st.latency);
                    jitter = jitter.max(st.jitter_ns);
                }
            }
            let p99 = members
                .iter()
                .filter_map(|f| sink_ref.flow(f.id))
                .map(|st: &FlowStats| st.latency.quantile(0.99))
                .max()
                .unwrap_or(0);
            ClassRow {
                class,
                tx,
                rx,
                mean_ns: lat.mean() as u64,
                p99_ns: p99,
                jitter_ns: jitter,
                loss: if tx == 0 { 0.0 } else { 1.0 - rx.min(tx) as f64 / tx as f64 },
            }
        })
        .collect()
}

/// Runs the mix through one core configuration; returns per-class rows and
/// bottleneck utilization.
pub fn measure(qos: CoreQos, duration: Nanos, seed: u64) -> (Vec<ClassRow>, f64) {
    let (t, pes) = topo::dumbbell(10);
    let mut pn = BackboneBuilder::new(t, pes).core_qos(qos).seed(seed).build();
    let vpn = pn.new_vpn("acme");
    let (pa, pb) = (pfx("10.1.0.0/16"), pfx("10.2.0.0/16"));
    let a = pn.add_site(vpn, 0, pa, None);
    let b = pn.add_site(vpn, 1, pb, None);
    pn.run_for(0); // the MP-BGP updates land, then the VRFs verify
    pn.verify().assert_clean("qos experiment");
    let sink = pn.attach_sink(b, pb);
    let flows = attach_mix(&mut pn.net, pn.sites[a.0].ce, pa, pb, 1, seed, duration);
    pn.run_for(duration + SEC); // drain
    let rows = class_rows(&pn.net, sink, &flows);
    let util =
        pn.net.link_stats(netsim_sim::LinkId(topo::DUMBBELL_BOTTLENECK), 0).utilization(duration);
    (rows, util)
}

/// Like [`measure`] with the DiffServ priority core, but with one SLA
/// probe per class riding alongside the mix, and the full metrics
/// snapshot (per-VRF and per-layer counters, drop causes, probe table)
/// captured after the drain.
fn measure_instrumented(duration: Nanos, seed: u64) -> (Vec<ClassRow>, MetricsSnapshot) {
    let qos = CoreQos::DiffServ { cap_bytes: 128 * 1024, sched: DsSched::Priority };
    let (t, pes) = topo::dumbbell(10);
    let mut pn = BackboneBuilder::new(t, pes).core_qos(qos).seed(seed).build();
    let vpn = pn.new_vpn("acme");
    let (pa, pb) = (pfx("10.1.0.0/16"), pfx("10.2.0.0/16"));
    let a = pn.add_site(vpn, 0, pa, None);
    let b = pn.add_site(vpn, 1, pb, None);
    let sink = pn.attach_sink(b, pb);
    // One low-rate probe per sold class: what the SLA dashboard reports.
    for dscp in [Dscp::EF, Dscp::AF41, Dscp::AF21, Dscp::BE] {
        pn.attach_sla_probe(a, b, dscp, 20 * MSEC, Some(duration / (20 * MSEC)));
    }
    let flows = attach_mix(&mut pn.net, pn.sites[a.0].ce, pa, pb, 1, seed, duration);
    pn.run_for(duration + SEC);
    let rows = class_rows(&pn.net, sink, &flows);
    let snap = pn.metrics_snapshot();
    (rows, snap)
}

/// The four configurations of the ablation.
pub fn configs() -> Vec<(&'static str, CoreQos)> {
    let cap = 128 * 1024;
    vec![
        ("FIFO (best effort)", CoreQos::BestEffort { cap_bytes: cap }),
        ("DS priority+RED", CoreQos::DiffServ { cap_bytes: cap, sched: DsSched::Priority }),
        ("DS WFQ", CoreQos::DiffServ { cap_bytes: cap, sched: DsSched::Wfq }),
        ("DS DRR", CoreQos::DiffServ { cap_bytes: cap, sched: DsSched::Drr }),
    ]
}

/// Runs the sweep and renders the table.
pub fn run(quick: bool) -> String {
    let duration = if quick { SEC } else { 5 * SEC };
    let mut out = String::new();
    for (name, qos) in configs() {
        let (rows, util) = measure(qos, duration, 7);
        let mut t = Table::new(
            format!("Q1 [{name}] — 10 Mb/s bottleneck, util {:.0}%", util * 100.0),
            &["class", "tx", "rx", "loss", "mean ms", "p99 ms", "jitter ms", "MOS", "voice SLA"],
        );
        for r in &rows {
            let sla = if r.class == "EF" {
                let met = Sla::voice().met(r.mean_ns, r.p99_ns, r.jitter_ns, r.loss, r.rx);
                if met { "MET" } else { "VIOLATED" }.to_string()
            } else {
                "-".to_string()
            };
            let mos = if r.class == "EF" {
                f2(mplsvpn_core::voice_mos(r.mean_ns, r.jitter_ns, r.loss))
            } else {
                "-".into()
            };
            t.row(&[
                r.class.to_string(),
                r.tx.to_string(),
                r.rx.to_string(),
                pct(r.loss),
                ms(r.mean_ns),
                ms(r.p99_ns),
                f2(r.jitter_ns / 1e6),
                mos,
                sla,
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// [`run`]'s tables plus the instrumented DS-priority snapshot.
pub fn report(quick: bool) -> ExpReport {
    let duration = if quick { SEC } else { 5 * SEC };
    let (_, snap) = measure_instrumented(duration, 7);
    ExpReport { table: run(quick), snapshot: Some(snap) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row<'a>(rows: &'a [ClassRow], class: &str) -> &'a ClassRow {
        rows.iter().find(|r| r.class == class).expect("class present")
    }

    /// The paper's central QoS claim: DiffServ-over-MPLS protects the
    /// priority classes through the same overload that wrecks them under
    /// FIFO.
    #[test]
    fn diffserv_protects_voice_fifo_does_not() {
        let (fifo, util_f) = measure(CoreQos::BestEffort { cap_bytes: 128 * 1024 }, 2 * SEC, 7);
        let (ds, util_d) = measure(
            CoreQos::DiffServ { cap_bytes: 128 * 1024, sched: DsSched::Priority },
            2 * SEC,
            7,
        );
        // The bottleneck saturates in both runs.
        assert!(util_f > 0.9, "fifo util {util_f}");
        assert!(util_d > 0.9, "ds util {util_d}");
        let v_fifo = row(&fifo, "EF");
        let v_ds = row(&ds, "EF");
        // Voice under DiffServ: essentially lossless and fast.
        assert!(v_ds.loss < 0.01, "ds voice loss {}", v_ds.loss);
        assert!(v_ds.p99_ns < 50_000_000, "ds voice p99 {}", v_ds.p99_ns);
        // Under FIFO the overload hits voice too: much worse delay or loss.
        assert!(
            v_fifo.loss > 10.0 * v_ds.loss.max(1e-6) || v_fifo.p99_ns > 2 * v_ds.p99_ns,
            "fifo should hurt voice: fifo={v_fifo:?} ds={v_ds:?}"
        );
        // Bulk pays under DiffServ (someone must absorb the overload).
        let b_ds = row(&ds, "BE");
        assert!(b_ds.loss > 0.05, "bulk must absorb the overload, loss {}", b_ds.loss);
    }

    /// The SLA probes measure the class they are stamped with: under the
    /// overload the EF probe stays near-lossless while the BE probe — in
    /// the band absorbing the overload — fares no better than EF.
    #[test]
    fn sla_probes_see_the_class_differentiation() {
        let (_, snap) = measure_instrumented(2 * SEC, 7);
        assert_eq!(snap.probes.len(), 4, "one probe row per class");
        let probe =
            |class: &str| snap.probes.iter().find(|p| p.class == class).expect("probe row present");
        let ef = probe("EF");
        assert!(ef.tx > 0 && ef.loss_pct < 1.0, "EF probe must survive the overload: {ef:?}");
        let be = probe("BE");
        assert!(
            be.mean_delay_ns >= ef.mean_delay_ns,
            "BE probe cannot beat EF through a saturated priority core: be={be:?} ef={ef:?}"
        );
        // The snapshot attributes the overload's losses to real causes.
        assert!(!snap.drop_causes.is_empty(), "a 135% offered load must record drop causes");
    }

    /// All three DiffServ schedulers keep voice loss low (the ablation's
    /// point: the mapping matters more than the scheduler family).
    #[test]
    fn all_ds_schedulers_protect_voice() {
        for sched in [DsSched::Priority, DsSched::Wfq, DsSched::Drr] {
            let (rows, _) = measure(CoreQos::DiffServ { cap_bytes: 128 * 1024, sched }, 2 * SEC, 7);
            let v = row(&rows, "EF");
            assert!(v.loss < 0.02, "{sched:?} voice loss {}", v.loss);
            assert!(v.rx > 0);
        }
    }
}
