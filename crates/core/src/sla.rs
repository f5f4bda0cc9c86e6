//! Service-level agreements and their evaluation.
//!
//! The paper's goal (§5): "allow service providers to extend SLAs from
//! customer site to customer site and eventually across cooperative service
//! provider boundaries." An [`Sla`] states the contract per class; an
//! [`SlaReport`] grades measured flow statistics against it.

use netsim_qos::Nanos;
use netsim_sim::FlowStats;

/// A per-class service-level agreement.
#[derive(Clone, Copy, Debug)]
pub struct Sla {
    /// Maximum mean one-way latency, ns.
    pub max_mean_latency_ns: Nanos,
    /// Maximum 99th-percentile one-way latency, ns.
    pub max_p99_latency_ns: Nanos,
    /// Maximum RFC 3550 jitter, ns.
    pub max_jitter_ns: f64,
    /// Maximum loss fraction (0..1).
    pub max_loss: f64,
}

impl Sla {
    /// A voice-grade SLA: 150 ms mean, 200 ms p99, 30 ms jitter, 1% loss.
    pub fn voice() -> Self {
        Sla {
            max_mean_latency_ns: 150 * netsim_sim::MSEC,
            max_p99_latency_ns: 200 * netsim_sim::MSEC,
            max_jitter_ns: 30.0 * netsim_sim::MSEC as f64,
            max_loss: 0.01,
        }
    }

    /// A carrier-backbone voice SLA: what a provider commits to *inside*
    /// its network (tighter than the end-to-end G.114 budget, which must
    /// also cover access and codec delay): 50 ms mean, 80 ms p99, 10 ms
    /// jitter, 0.5% loss.
    pub fn backbone_voice() -> Self {
        Sla {
            max_mean_latency_ns: 50 * netsim_sim::MSEC,
            max_p99_latency_ns: 80 * netsim_sim::MSEC,
            max_jitter_ns: 10.0 * netsim_sim::MSEC as f64,
            max_loss: 0.005,
        }
    }

    /// Evaluates measured receiver stats against the SLA, given the
    /// sender's transmitted packet count.
    pub fn evaluate(&self, stats: &FlowStats, tx_packets: u64) -> SlaReport {
        let mean = stats.latency.mean() as Nanos;
        let p99 = stats.latency.quantile(0.99);
        let loss = stats.loss(tx_packets);
        SlaReport {
            mean_latency_ns: mean,
            p99_latency_ns: p99,
            jitter_ns: stats.jitter_ns,
            loss,
            met: self.met(mean, p99, stats.jitter_ns, loss, stats.rx_packets),
        }
    }

    /// The SLA's verdict on summary numbers: every bound holds, and
    /// something arrived.
    pub fn met(&self, mean_ns: Nanos, p99_ns: Nanos, jitter_ns: f64, loss: f64, rx: u64) -> bool {
        mean_ns <= self.max_mean_latency_ns
            && p99_ns <= self.max_p99_latency_ns
            && jitter_ns <= self.max_jitter_ns
            && loss <= self.max_loss
            && rx > 0
    }
}

/// A simplified ITU-T G.107 E-model: scores a voice flow's measured
/// latency, jitter and loss as an R-factor and maps it to a MOS (1..=4.5).
///
/// The implementation uses the standard simplifications: base R = 93.2,
/// delay impairment `Id` from one-way delay (with the +10 ms codec/jitter
/// buffer charge and the steep penalty above 177.3 ms), and equipment
/// impairment `Ie-eff` for a G.711 codec under random loss (Bpl = 25.1).
/// Good enough to rank configurations; not a calibrated planning tool.
pub fn voice_mos(one_way_delay_ns: Nanos, jitter_ns: f64, loss: f64) -> f64 {
    // Effective delay includes the de-jitter buffer (~2× jitter) and codec.
    let d_ms = one_way_delay_ns as f64 / 1e6 + 2.0 * jitter_ns / 1e6 + 10.0;
    let id = 0.024 * d_ms + if d_ms > 177.3 { 0.11 * (d_ms - 177.3) } else { 0.0 };
    // G.711 with packet-loss concealment: Ie = 0, Bpl = 25.1.
    let ie_eff = 95.0 * (loss * 100.0) / (loss * 100.0 + 25.1);
    let r = (93.2 - id - ie_eff).clamp(0.0, 100.0);
    // R → MOS (ITU-T G.107 Annex B).
    if r <= 0.0 {
        1.0
    } else if r >= 100.0 {
        4.5
    } else {
        1.0 + 0.035 * r + r * (r - 60.0) * (100.0 - r) * 7e-6
    }
}

/// Outcome of grading one flow against an SLA.
#[derive(Clone, Copy, Debug)]
pub struct SlaReport {
    /// Measured mean latency, ns.
    pub mean_latency_ns: Nanos,
    /// Measured p99 latency, ns.
    p99_latency_ns: Nanos,
    /// Measured jitter, ns.
    pub jitter_ns: f64,
    /// Measured loss fraction.
    pub loss: f64,
    /// Whether every bound held.
    pub met: bool,
}

impl std::fmt::Display for SlaReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mean={:.2}ms p99={:.2}ms jitter={:.2}ms loss={:.2}% → {}",
            self.mean_latency_ns as f64 / 1e6,
            self.p99_latency_ns as f64 / 1e6,
            self.jitter_ns / 1e6,
            self.loss * 100.0,
            if self.met { "MET" } else { "VIOLATED" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(latency_ns: u64, n: u64) -> FlowStats {
        let mut s = FlowStats::default();
        for i in 0..n {
            s.record(i * 20_000_000 + latency_ns, i * 20_000_000, i, 200);
        }
        s
    }

    #[test]
    fn good_voice_flow_meets_sla() {
        let s = stats(10_000_000, 100); // 10 ms constant
        let r = Sla::voice().evaluate(&s, 100);
        assert!(r.met, "{r}");
        assert_eq!(r.loss, 0.0);
    }

    #[test]
    fn high_latency_violates() {
        let s = stats(400_000_000, 100);
        assert!(!Sla::voice().evaluate(&s, 100).met);
    }

    #[test]
    fn loss_violates() {
        let s = stats(1_000_000, 90);
        let r = Sla::voice().evaluate(&s, 100); // 10% lost
        assert!(!r.met);
        assert!((r.loss - 0.1).abs() < 1e-9);
    }

    #[test]
    fn silent_flow_never_meets() {
        let r = Sla::voice().evaluate(&FlowStats::default(), 100);
        assert!(!r.met);
    }

    #[test]
    fn mos_orders_conditions_sensibly() {
        // Clean LAN-ish call: toll quality.
        let clean = voice_mos(5_000_000, 100_000.0, 0.0);
        assert!(clean > 4.2, "clean call MOS {clean}");
        // 100 ms + light loss: acceptable but degraded.
        let ok = voice_mos(100_000_000, 2_000_000.0, 0.005);
        assert!((3.3..clean).contains(&ok), "ok call MOS {ok}");
        // 250 ms + 5% loss: degraded well below the acceptable call.
        let bad = voice_mos(250_000_000, 10_000_000.0, 0.05);
        assert!(bad < 3.2, "bad call MOS {bad}");
        assert!(bad < ok && ok < clean);
        // Catastrophic loss bottoms out near 1.
        let awful = voice_mos(500_000_000, 50_000_000.0, 0.5);
        assert!(awful < 2.0, "awful MOS {awful}");
        assert!(awful >= 1.0);
    }

    #[test]
    fn mos_is_monotone_in_each_impairment() {
        let base = voice_mos(50_000_000, 1_000_000.0, 0.01);
        assert!(voice_mos(150_000_000, 1_000_000.0, 0.01) < base);
        assert!(voice_mos(50_000_000, 20_000_000.0, 0.01) < base);
        assert!(voice_mos(50_000_000, 1_000_000.0, 0.05) < base);
    }

    #[test]
    fn report_formats() {
        let s = stats(5_000_000, 10);
        let txt = Sla::voice().evaluate(&s, 10).to_string();
        assert!(txt.contains("MET"), "{txt}");
    }
}
