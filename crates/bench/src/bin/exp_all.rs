//! Runs the paper's experiments and prints their tables — the source of
//! EXPERIMENTS.md's measured columns. Name sections to run only those
//! (`exp_all --full Q1 R2`); naming none runs all of them. Quick parameters
//! by default; pass --full for the full parameter set; pass `--artifacts
//! DIR` to also write each section's table to `DIR/<name>.txt` and, for
//! instrumented experiments, the run's [`mplsvpn_core::MetricsSnapshot`]
//! to `DIR/<name>_metrics.json` (what CI uploads).
use mplsvpn_bench::{experiments as e, ExpReport};

type Section = (&'static str, fn(bool) -> ExpReport);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = !args.iter().any(|a| a == "--full");
    let artifacts_at = args.iter().position(|a| a == "--artifacts").map(|i| i + 1);
    let artifacts: Option<std::path::PathBuf> =
        artifacts_at.map(|i| args.get(i).expect("--artifacts needs a directory").into());
    if let Some(dir) = &artifacts {
        std::fs::create_dir_all(dir).expect("create artifacts dir");
    }
    let sections: Vec<Section> = vec![
        ("T1", |q| e::scalability::run(q).into()),
        ("F1", |q| e::isolation::run(q).into()),
        ("F2", |q| e::tunnels::run(q).into()),
        ("F3", |q| e::trace::run(q).into()),
        ("F4", |q| e::forwarding::run(q).into()),
        ("Q1", e::qos::report),
        ("Q2", |q| e::ipsec_qos::run(q).into()),
        ("Q3", |q| e::te::run(q).into()),
        ("Q4", |q| e::interprovider::run(q).into()),
        ("M1", |q| e::membership::run(q).into()),
        ("R1", |q| e::resilience::run(q).into()),
        ("R2", e::failover::report),
        ("A1", |q| e::aqm::run(q).into()),
        ("S1", |q| e::intserv::run(q).into()),
    ];
    // Every argument that is not an option or the artifacts directory
    // names a section.
    let named: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| !a.starts_with("--") && Some(i) != artifacts_at)
        .map(|(_, a)| a.as_str())
        .collect();
    for name in &named {
        assert!(sections.iter().any(|s| s.0 == *name), "unknown section {name}");
    }
    for (name, f) in sections {
        if !named.is_empty() && !named.contains(&name) {
            continue;
        }
        println!("######## {name} ########");
        let report = f(quick);
        println!("{report}");
        if let Some(dir) = &artifacts {
            std::fs::write(dir.join(format!("{name}.txt")), &report.table)
                .expect("write table artifact");
            if let Some(snap) = &report.snapshot {
                std::fs::write(dir.join(format!("{name}_metrics.json")), snap.to_json())
                    .expect("write metrics artifact");
            }
        }
    }
}
