//! **A1 — active queue management ablation**: RED vs tail-drop under
//! responsive (TCP-like) traffic through the MPLS VPN.
//!
//! DESIGN.md calls out RED as an ablation knob of the DiffServ core.
//! Open-loop sources can't show why RED exists; this experiment runs eight
//! closed-loop AIMD flows through the VPN's 10 Mb/s bottleneck and compares
//! a deep tail-drop FIFO against RED: RED keeps the standing queue (and
//! hence latency) far lower at essentially the same aggregate goodput, and
//! avoids the synchronized-loss unfairness of tail-drop.

use mplsvpn_core::{BackboneBuilder, CoreQos};
use netsim_net::addr::pfx;
use netsim_qos::{Nanos, RedParams};
use netsim_sim::{LinkId, SourceConfig, TcpSink, TcpSource, SEC};

use crate::table::{f2, ms, Table};
use crate::topo;

/// Which bottleneck discipline to test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aqm {
    /// Deep tail-drop FIFO.
    TailDrop,
    /// RED with conventional thresholds.
    Red,
    /// RED with ECN marking; sources negotiate ECN.
    RedEcn,
}

/// Outcome of one run.
#[derive(Clone, Debug)]
pub struct AqmResult {
    /// Aggregate goodput across flows, bits/s (in-order delivered).
    goodput_bps: f64,
    /// Mean one-way data latency across flows, ns.
    pub mean_latency_ns: u64,
    /// Jain fairness index over per-flow goodput (1.0 = perfectly fair).
    pub fairness: f64,
    /// Total retransmitted segments.
    pub retransmits: u64,
}

const FLOWS: usize = 8;
const CAP: usize = 96 * 1024;

/// Runs `FLOWS` TCP-like flows through the VPN with the chosen bottleneck
/// AQM for `duration`.
pub fn measure(aqm: Aqm, duration: Nanos) -> AqmResult {
    let (t, pes) = topo::dumbbell(10);
    let mut pn =
        BackboneBuilder::new(t, pes).core_qos(CoreQos::BestEffort { cap_bytes: CAP }).build();
    // Swap the bottleneck egress for the discipline under test.
    let red = || {
        netsim_qos::RedQueue::new(
            CAP,
            RedParams::new(CAP / 8, CAP / 2).with_max_p(0.1),
            42,
            1_000, // ≈ one 1250 B packet at 10 Mb/s
        )
    };
    let qdisc: Box<dyn netsim_qos::QueueDiscipline> = match aqm {
        Aqm::TailDrop => Box::new(netsim_qos::FifoQueue::new(CAP)),
        Aqm::Red => Box::new(red()),
        Aqm::RedEcn => Box::new(red().with_ecn()),
    };
    pn.net.set_qdisc(LinkId(topo::DUMBBELL_BOTTLENECK), 0, qdisc);

    let vpn = pn.new_vpn("acme");
    let a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
    let b = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
    pn.verify().assert_clean("aqm experiment");
    let sink = pn.attach_tcp_sink(b, pfx("10.2.0.0/16"));
    let sources: Vec<_> = (0..FLOWS)
        .map(|i| {
            let cfg = SourceConfig {
                flow: i as u64,
                src: pn.site_addr(a, 100 + i as u32),
                dst: pn.site_addr(b, 200 + i as u32),
                src_port: 1000 + i as u16,
                dst_port: 80,
                tcp: true,
                dscp: netsim_net::Dscp::BE,
                payload: 1200,
                iface: netsim_sim::IfaceId(0),
                probe: false,
            };
            pn.attach_tcp_source(a, cfg, Some(duration), aqm == Aqm::RedEcn)
        })
        .collect();
    pn.run_for(duration + SEC);

    let k = pn.net.node_ref::<TcpSink>(sink);
    let per_flow: Vec<f64> = (0..FLOWS)
        .map(|i| k.delivered(i as u64) as f64 * 1228.0 * 8.0 / (duration as f64 / 1e9))
        .collect();
    let sum: f64 = per_flow.iter().sum();
    let sumsq: f64 = per_flow.iter().map(|x| x * x).sum();
    let fairness = if sumsq == 0.0 { 0.0 } else { sum * sum / (FLOWS as f64 * sumsq) };
    let mut lat = netsim_sim::Histogram::new();
    for i in 0..FLOWS {
        if let Some(f) = k.flow(i as u64) {
            lat.merge(&f.latency);
        }
    }
    let retransmits = sources.iter().map(|&s| pn.net.node_ref::<TcpSource>(s).retransmits).sum();
    AqmResult { goodput_bps: sum, mean_latency_ns: lat.mean() as u64, fairness, retransmits }
}

/// Runs both disciplines and renders the table.
pub fn run(quick: bool) -> String {
    let duration = if quick { 2 * SEC } else { 10 * SEC };
    let mut t = Table::new(
        format!("A1: {FLOWS} TCP-like flows through the 10 Mb/s VPN bottleneck — tail-drop vs RED"),
        &["bottleneck", "goodput Mb/s", "mean latency ms", "Jain fairness", "retransmits"],
    );
    for (name, aqm) in
        [("tail-drop FIFO", Aqm::TailDrop), ("RED", Aqm::Red), ("RED+ECN", Aqm::RedEcn)]
    {
        let r = measure(aqm, duration);
        t.row(&[
            name.to_string(),
            f2(r.goodput_bps / 1e6),
            ms(r.mean_latency_ns),
            f2(r.fairness),
            r.retransmits.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn red_cuts_latency_without_losing_goodput() {
        let tail = measure(Aqm::TailDrop, 4 * SEC);
        let red = measure(Aqm::Red, 4 * SEC);
        // Both fill most of the 10 Mb/s pipe.
        assert!(tail.goodput_bps > 6e6, "tail goodput {}", tail.goodput_bps);
        assert!(red.goodput_bps > 6e6, "red goodput {}", red.goodput_bps);
        // RED's standing queue is much shorter.
        assert!(
            (red.mean_latency_ns as f64) < 0.7 * tail.mean_latency_ns as f64,
            "red latency {} vs tail {}",
            red.mean_latency_ns,
            tail.mean_latency_ns
        );
        // And reasonably fair.
        assert!(red.fairness > 0.6, "red fairness {}", red.fairness);
    }

    /// ECN removes the retransmissions entirely: marks do what drops did.
    #[test]
    fn ecn_eliminates_retransmissions() {
        let red = measure(Aqm::Red, 4 * SEC);
        let ecn = measure(Aqm::RedEcn, 4 * SEC);
        assert!(red.retransmits > 10, "plain RED forces retransmits: {}", red.retransmits);
        assert!(
            ecn.retransmits * 10 < red.retransmits.max(10),
            "ECN should all but eliminate them: {} vs {}",
            ecn.retransmits,
            red.retransmits
        );
        assert!(ecn.goodput_bps > 6e6, "ecn goodput {}", ecn.goodput_bps);
    }
}
