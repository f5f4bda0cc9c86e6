//! Measurement machinery: histograms and per-flow statistics.
//!
//! The histogram type itself lives in `netsim-obs` so the control plane's
//! convergence samples, the flow sinks and the SLA probes all share one
//! implementation (and one set of bucket-boundary tests); it is
//! re-exported here for compatibility.

use netsim_qos::Nanos;

pub use netsim_obs::Histogram;

/// Receiver-side statistics of one flow, as accumulated by
/// [`crate::traffic::Sink`].
#[derive(Clone, Debug, Default)]
pub struct FlowStats {
    /// Packets received.
    pub rx_packets: u64,
    /// Payload-inclusive wire bytes received.
    pub rx_bytes: u64,
    /// One-way latency histogram (created → delivered).
    pub latency: Histogram,
    /// RFC 3550 interarrival jitter estimate, in ns.
    pub jitter_ns: f64,
    /// Highest sequence number seen.
    pub max_seq: u64,
    /// Packets that arrived with a sequence number lower than an earlier
    /// arrival (reordering indicator).
    pub reordered: u64,
    /// Arrival time of the first packet.
    pub first_rx: Nanos,
    /// Arrival time of the most recent packet.
    pub last_rx: Nanos,
    last_transit: Option<i128>,
    seen_any: bool,
}

impl FlowStats {
    /// Records a delivery at `now` for a packet created at `created` with
    /// sequence `seq` and `bytes` on the wire.
    pub fn record(&mut self, now: Nanos, created: Nanos, seq: u64, bytes: usize) {
        let latency = now.saturating_sub(created);
        self.latency.record(latency);
        self.rx_packets += 1;
        self.rx_bytes += bytes as u64;
        if !self.seen_any {
            self.first_rx = now;
            self.seen_any = true;
        } else if seq < self.max_seq {
            self.reordered += 1;
        }
        self.max_seq = self.max_seq.max(seq);
        self.last_rx = now;
        // RFC 3550: J += (|D(i-1, i)| - J) / 16, with D the difference in
        // transit times of consecutive packets.
        let transit = latency as i128;
        if let Some(prev) = self.last_transit {
            let d = (transit - prev).unsigned_abs() as f64;
            self.jitter_ns += (d - self.jitter_ns) / 16.0;
        }
        self.last_transit = Some(transit);
    }

    /// Goodput in bits/s over the window from first to last arrival.
    pub fn throughput_bps(&self) -> f64 {
        let window = self.last_rx.saturating_sub(self.first_rx);
        if window == 0 {
            return 0.0;
        }
        self.rx_bytes as f64 * 8.0 * 1e9 / window as f64
    }

    /// Loss fraction given the sender's transmitted count.
    pub fn loss(&self, tx_packets: u64) -> f64 {
        if tx_packets == 0 {
            return 0.0;
        }
        1.0 - (self.rx_packets.min(tx_packets) as f64 / tx_packets as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_min_max() {
        let mut h = Histogram::new();
        for v in [100, 200, 300] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean(), 200.0);
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 300);
    }

    #[test]
    fn histogram_quantiles_bracket() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        // Log buckets: p50 of 1..1000 lands in bucket covering 512..1023.
        assert!((256..=1023).contains(&p50), "p50={p50}");
        assert_eq!(h.quantile(1.0), 1000);
        assert!(h.quantile(0.0) >= 1);
    }

    #[test]
    fn histogram_empty_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn histogram_merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1000);
    }

    #[test]
    fn flow_stats_constant_transit_has_zero_jitter() {
        let mut f = FlowStats::default();
        for i in 0..100u64 {
            // Created every ms, delivered exactly 5 ms later.
            f.record(i * 1_000_000 + 5_000_000, i * 1_000_000, i, 100);
        }
        assert_eq!(f.rx_packets, 100);
        assert_eq!(f.jitter_ns, 0.0);
        assert_eq!(f.reordered, 0);
        assert_eq!(f.loss(100), 0.0);
        assert!((f.loss(200) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn flow_stats_variable_transit_accumulates_jitter() {
        let mut f = FlowStats::default();
        for i in 0..100u64 {
            let jitter = if i % 2 == 0 { 0 } else { 2_000_000 };
            f.record(i * 1_000_000 + 5_000_000 + jitter, i * 1_000_000, i, 100);
        }
        assert!(f.jitter_ns > 500_000.0, "jitter {}", f.jitter_ns);
    }

    #[test]
    fn flow_stats_detects_reordering() {
        let mut f = FlowStats::default();
        f.record(10, 0, 0, 10);
        f.record(20, 1, 2, 10);
        f.record(30, 2, 1, 10); // out of order
        assert_eq!(f.reordered, 1);
        assert_eq!(f.max_seq, 2);
    }

    #[test]
    fn throughput_window() {
        let mut f = FlowStats::default();
        f.record(0, 0, 0, 1250);
        f.record(1_000_000_000, 0, 1, 1250);
        // 2500 B over 1 s = 20 kb/s.
        assert!((f.throughput_bps() - 20_000.0).abs() < 1.0);
    }
}
