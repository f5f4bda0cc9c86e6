//! perfbench — seeded end-to-end and per-layer benchmark of the MPLS VPN
//! backbone simulator.
//!
//! ```text
//! perfbench --workload <forward|congested|control> --seed N --seconds S --trace 0|1
//! ```
//!
//! One repetition builds the workload's network (set-up), drives it (the
//! timed phase) and checks the outcome. After one untimed warm-up
//! repetition, repetitions run back to back for `--seconds` of wall time;
//! every figure is a median over them. The last line of standard output is
//! one JSON object: `correct`, `attempted` and `failed` count repetitions,
//! and `metrics` holds the end-to-end metrics (`--trace 0`) or the
//! per-layer ledger (`--trace 1`, see `ledger.rs`).

mod clock;
mod ledger;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use workloads::{Instance, Tally, Workload};

#[global_allocator]
static ALLOC: clock::Counting = clock::Counting;

/// Repetitions run even when `--seconds` elapses first.
const MIN_REPS: usize = 5;

/// CPU time of [`clock::reference_ns`] and [`clock::cold_reference_ns`] on
/// the host the end-to-end times are scaled to: a 2-vCPU Xeon (Sapphire
/// Rapids, KVM) at its usual speed. Each repetition's timed phase is scaled
/// by the first over the warm reference measured next to it, its set-up by
/// the second over the cold reference measured just before it. This takes
/// out the host's drift in speed — on a shared machine it swings by a
/// quarter or more within minutes, and cold code swings differently from
/// warm code.
const REF_NOMINAL_NS: f64 = 1_800_000.0;
const COLD_REF_NOMINAL_NS: f64 = 450_000.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Measurements of one repetition.
struct Rep {
    setup_ns: u64,
    run_ns: u64,
    peak_bytes: u64,
    allocs: u64,
    alloc_bytes: u64,
    qdisc_calls: u64,
    qdisc_ticks: u64,
    /// Warm host-speed reference next to this repetition, nanoseconds.
    ref_ns: u64,
    /// Cold host-speed reference just before this set-up, nanoseconds.
    cold_ref_ns: u64,
    outcome: Result<Tally, String>,
}

/// Builds, drives and checks one instance. With `trace`, every egress
/// discipline is wrapped in a span probe between set-up and the timed
/// phase; the probe's own cost lands in the timed phase, never in set-up.
fn repetition(w: &dyn Workload, trace: bool) -> (Rep, Instance) {
    let cold_ref_ns = clock::cold_reference_ns();
    let base = clock::reset_peak();
    let t0 = clock::thread_cpu_ns();
    let mut inst = w.setup();
    let t1 = clock::thread_cpu_ns();
    if trace {
        ledger::install(&mut inst, &w.core_qos());
    }
    ledger::take_qdisc();
    let h0 = clock::heap_mark();
    let t2 = clock::thread_cpu_ns();
    w.drive(&mut inst);
    let t3 = clock::thread_cpu_ns();
    let h1 = clock::heap_mark();
    let (qdisc_calls, qdisc_ticks) = ledger::take_qdisc();
    let peak_bytes = clock::peak() - base;
    let outcome = w.check(&mut inst);
    let rep = Rep {
        setup_ns: t1 - t0,
        run_ns: t3 - t2,
        peak_bytes,
        allocs: h1.allocs - h0.allocs,
        alloc_bytes: h1.bytes - h0.bytes,
        qdisc_calls,
        qdisc_ticks,
        ref_ns: 0,
        cold_ref_ns,
        outcome,
    };
    (rep, inst)
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    let mut v: Vec<f64> = reps.iter().map(f).collect();
    ledger::median(&mut v)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workloads::by_name(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {} (one of {:?})", args.workload, workloads::NAMES);
        return ExitCode::from(2);
    };

    // The warm-up fixes the expected outcome: every later repetition runs
    // the same inputs and must reproduce it exactly. In trace mode it comes
    // from an untraced run, so the probes must not change what is
    // simulated.
    let (warm, _) = repetition(w.as_ref(), false);
    let mut failed = 0u64;
    let expected = match warm.outcome {
        Ok(t) => Some(t),
        Err(e) => {
            eprintln!("perfbench: {e}");
            failed += 1;
            None
        }
    };

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut reps: Vec<Rep> = Vec::new();
    let mut last = None;
    // The host-speed reference runs between repetitions; each repetition
    // is scaled by the faster of the two readings around it: interference
    // comes in bursts, and a burst that slowed one short reading says
    // little about the repetition next to it.
    let mut ref_before = clock::reference_ns();
    while reps.len() < MIN_REPS || Instant::now() < deadline {
        let (mut rep, inst) = repetition(w.as_ref(), args.trace);
        let ref_after = clock::reference_ns();
        rep.ref_ns = ref_before.min(ref_after);
        ref_before = ref_after;
        match (&rep.outcome, &expected) {
            (Ok(t), Some(r)) if t == r => {}
            (Ok(t), _) => {
                eprintln!("perfbench: outcome {t:?} differs from the warm-up's {expected:?}");
                failed += 1;
            }
            (Err(e), _) => {
                eprintln!("perfbench: {e}");
                failed += 1;
            }
        }
        reps.push(rep);
        last = Some(inst);
    }
    let attempted = reps.len() as u64 + 1;
    let correct = failed == 0;
    let ops = expected.map_or(1, |t| t.ops.max(1)) as f64;
    let ref_ns = median_of(&reps, |r| r.ref_ns as f64);

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let counts = expected.map(|t| t.counts).unwrap_or_default();
        let inst = last.expect("at least one repetition");
        let cost = ledger::span_cost();
        let replay = ledger::replay(&inst, &cost);
        let per_op = |n: u64| n as f64 / ops;
        let traced = median_of(&reps, |r| r.run_ns as f64) / ops;
        let qdisc_calls = median_of(&reps, |r| r.qdisc_calls as f64);
        let span_cost = qdisc_calls * cost.probe_ns / ops;
        let qdisc_ticks = median_of(&reps, |r| r.qdisc_ticks as f64);
        let qdisc = (qdisc_ticks - qdisc_calls * cost.bias_ticks) * cost.ns_per_tick / ops;
        let engine = replay.engine_ns * per_op(counts.events);
        let lfib = replay.lfib_ns * per_op(counts.label_ops);
        let lpm = replay.lpm_ns * per_op(counts.lpm_lookups);
        let spf = replay.spf_ns * per_op(counts.spf_runs);
        let recorder = replay.recorder_ns * per_op(counts.recorder_writes);
        let other = traced - span_cost - engine - qdisc - lfib - lpm - spf - recorder;
        metrics.extend([
            ("traced_cpu_ns_per_op", traced, "ns"),
            ("span_overhead_ns_per_op", span_cost, "ns"),
            ("engine_ns_per_op", engine, "ns"),
            ("qdisc_ns_per_op", qdisc, "ns"),
            ("lfib_ns_per_op", lfib, "ns"),
            ("lpm_ns_per_op", lpm, "ns"),
            ("spf_ns_per_op", spf, "ns"),
            ("recorder_ns_per_op", recorder, "ns"),
            ("handlers_other_ns_per_op", other, "ns"),
            ("engine_ns_per_event", replay.engine_ns, "ns"),
            ("qdisc_ns_per_call", qdisc * ops / qdisc_calls.max(1.0), "ns"),
            ("lfib_ns_per_call", replay.lfib_ns, "ns"),
            ("lpm_ns_per_call", replay.lpm_ns, "ns"),
            ("spf_ns_per_tree", replay.spf_ns, "ns"),
            ("recorder_ns_per_call", replay.recorder_ns, "ns"),
            ("events_per_op", per_op(counts.events), "count"),
            ("qdisc_calls_per_op", qdisc_calls / ops, "count"),
            ("label_ops_per_op", per_op(counts.label_ops), "count"),
            ("lpm_lookups_per_op", per_op(counts.lpm_lookups), "count"),
            ("recorder_writes_per_op", per_op(counts.recorder_writes), "count"),
            ("ctrl_pkts_per_op", per_op(counts.ctrl_pkts), "count"),
            ("spf_runs_per_op", per_op(counts.spf_runs), "count"),
            ("allocs_per_op", median_of(&reps, |r| r.allocs as f64) / ops, "count"),
            ("alloc_bytes_per_op", median_of(&reps, |r| r.alloc_bytes as f64) / ops, "B"),
        ]);
    } else {
        metrics.extend([
            (
                "cpu_ns_per_op",
                median_of(&reps, |r| r.run_ns as f64 * REF_NOMINAL_NS / r.ref_ns as f64) / ops,
                "ns",
            ),
            (
                "setup_s",
                median_of(&reps, |r| {
                    r.setup_ns as f64 * COLD_REF_NOMINAL_NS / r.cold_ref_ns as f64
                }) / 1e9,
                "s",
            ),
            ("peak_heap_mib", median_of(&reps, |r| r.peak_bytes as f64) / (1 << 20) as f64, "MiB"),
        ]);
    }
    eprintln!(
        "perfbench: {} seed {} trace {}: {attempted} repetitions of {ops} ops; \
         reference {ref_ns:.0} ns",
        args.workload, args.seed, args.trace
    );

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    println!("{out}");
    ExitCode::SUCCESS
}
