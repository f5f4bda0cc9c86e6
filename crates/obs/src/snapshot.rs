//! Point-in-time metric exports.

use std::fmt::Display;

use crate::flight::FlightRecorder;

/// The schema tag written as the first key of every JSON export. A
/// change to the layout of the export bumps it.
const SCHEMA: &str = "metrics/v1";

/// One SLA probe series: measured one-way service of a ⟨VPN, class⟩ pair.
#[derive(Clone, Debug, PartialEq)]
pub struct ProbeRow {
    /// VPN the probe runs inside.
    pub vpn: String,
    /// Traffic class the probe is marked with (e.g. `EF`, `AF1`, `BE`).
    pub class: String,
    /// Probe packets transmitted.
    pub tx: u64,
    /// Probe packets delivered.
    pub rx: u64,
    /// Mean one-way delay, ns.
    pub mean_delay_ns: f64,
    /// 99th-percentile one-way delay, ns.
    pub p99_delay_ns: u64,
    /// RFC 3550 interarrival jitter, ns.
    pub jitter_ns: f64,
    /// Loss fraction in percent, `100 × (tx − rx) / tx`.
    pub loss_pct: f64,
}

/// A point-in-time export of every metric the emulator tracks: named
/// counters and gauges, drop-cause totals, and SLA probe rows.
///
/// Serializes to `metrics/v1` JSON ([`MetricsSnapshot::to_json`]) without
/// any external dependency, so any example or experiment can dump its
/// numbers for offline analysis (the R-table workflow in EXPERIMENTS.md).
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Simulation time the snapshot was taken, ns.
    captured_ns: u64,
    /// `(name, value)` counter rows.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauge rows.
    pub gauges: Vec<(String, i64)>,
    /// `(cause name, total)` drop rows (nonzero causes only).
    pub drop_causes: Vec<(String, u64)>,
    /// SLA probe measurements.
    pub probes: Vec<ProbeRow>,
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON-safe number literal.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0".to_owned()
    }
}

impl MetricsSnapshot {
    /// Creates an empty snapshot stamped at `captured_ns`.
    pub fn new(captured_ns: u64) -> Self {
        MetricsSnapshot { captured_ns, ..MetricsSnapshot::default() }
    }

    /// Adds one counter row.
    pub fn push_counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.push((name.into(), value));
    }

    /// Copies the per-cause drop totals out of a flight recorder.
    pub fn merge_causes(&mut self, rec: &FlightRecorder) {
        for (name, total) in rec.cause_rows() {
            self.drop_causes.push((name.to_owned(), total));
        }
    }

    /// Serializes the snapshot as a self-contained `metrics/v1` JSON
    /// object: `schema`, `captured_ns`, then the `counters`, `gauges` and
    /// `drop_causes` objects (rows in push order) and the `probes` array.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!("{{\n  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!("  \"captured_ns\": {},\n", self.captured_ns));
        json_object(&mut out, "counters", &self.counters);
        json_object(&mut out, "gauges", &self.gauges);
        json_object(&mut out, "drop_causes", &self.drop_causes);
        out.push_str("  \"probes\": [");
        for (i, p) in self.probes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"vpn\": \"{}\", \"class\": \"{}\", \"tx\": {}, \"rx\": {}, \
                 \"mean_delay_ns\": {}, \"p99_delay_ns\": {}, \"jitter_ns\": {}, \
                 \"loss_pct\": {}}}",
                json_escape(&p.vpn),
                json_escape(&p.class),
                p.tx,
                p.rx,
                json_f64(p.mean_delay_ns),
                p.p99_delay_ns,
                json_f64(p.jitter_ns),
                json_f64(p.loss_pct)
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Writes one `"key": { "name": value, ... },` section of the JSON export.
fn json_object<V: Display>(out: &mut String, key: &str, rows: &[(String, V)]) {
    out.push_str(&format!("  \"{key}\": {{"));
    for (i, (n, v)) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\": {v}", json_escape(n)));
    }
    out.push_str("\n  },\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DropCause;

    fn sample() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new(42);
        s.push_counter("link0.tx", 10);
        s.gauges.push(("queue.depth".to_owned(), -1));
        let rec = FlightRecorder::new(4);
        rec.record(1, 7, 0, DropCause::RedEarly);
        s.merge_causes(&rec);
        s.probes.push(ProbeRow {
            vpn: "red".to_owned(),
            class: "EF".to_owned(),
            tx: 100,
            rx: 99,
            mean_delay_ns: 1500.5,
            p99_delay_ns: 2047,
            jitter_ns: 12.25,
            loss_pct: 1.0,
        });
        s
    }

    #[test]
    fn json_contains_every_section() {
        let j = sample().to_json();
        assert!(j.starts_with("{\n  \"schema\": \"metrics/v1\",\n  \"captured_ns\": 42,\n"));
        assert!(j.contains("\"link0.tx\": 10"));
        assert!(j.contains("\"queue.depth\": -1"));
        assert!(j.contains("\"red_early\": 1"));
        assert!(j.contains("\"vpn\": \"red\""));
        assert!(j.contains("\"loss_pct\": 1.000"));
        // Balanced braces/brackets — a cheap well-formedness check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn json_escapes_hostile_names() {
        let mut s = MetricsSnapshot::new(0);
        s.push_counter("a\"b\\c", 1);
        let j = s.to_json();
        assert!(j.contains("a\\\"b\\\\c"));
    }
}
