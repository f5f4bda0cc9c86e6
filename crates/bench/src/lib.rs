//! # mplsvpn-bench — the experiment harness
//!
//! One module per table/figure of the paper (see DESIGN.md §4), each
//! exposing `run(quick) -> String` so the `exp_all` runner (one section
//! per module, `exp_all --full Q1` runs one) and the unit tests share one
//! implementation. `quick` shortens simulated durations for CI; `--full`
//! runs the full parameters.
//!
//! Shared pieces: [`table`] (fixed-width table formatting), [`topo`]
//! (reference topologies), [`mix`] (the canonical voice/video/data/bulk
//! traffic mix used by the QoS experiments), and [`report`] (table +
//! metrics-snapshot bundles for CI artifact export).

#![warn(missing_docs)]

pub mod experiments;
pub mod mix;
pub mod report;
pub mod table;
pub mod topo;

pub use report::ExpReport;

/// Runs a set of labelled jobs across threads (one per job) and returns
/// their outputs in input order. Each job builds its own simulator, so the
/// parallelism is trivially data-race-free.
pub fn parallel_sweep<T: Send, F>(jobs: Vec<F>) -> Vec<T>
where
    F: FnOnce() -> T + Send,
{
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs.into_iter().map(|j| s.spawn(j)).collect();
        handles.into_iter().map(|h| h.join().expect("sweep job panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_sweep_preserves_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0usize..8)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = parallel_sweep(jobs);
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }
}
