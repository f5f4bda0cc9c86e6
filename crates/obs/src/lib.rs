//! `netsim-obs`: the always-on observability layer.
//!
//! The paper's argument (§5) is that an operator must be able to *see*
//! per-VPN, per-class service levels end to end. This crate is the
//! machinery that makes seeing cheap enough to leave on:
//!
//! * [`FlightRecorder`] — a fixed-size ring of the most recent drops plus
//!   exact per-cause, per-flow and per-node totals, replacing bare
//!   "dropped" counts with *why* ([`DropCause`]), *who* (flow id) and
//!   *where* (the node whose handler dropped it).
//! * [`Histogram`] — the log₂-bucketed duration histogram shared by flow
//!   statistics and the control plane's convergence samples.
//! * [`MetricsSnapshot`] — a point-in-time export of named counters,
//!   gauges, drop causes and SLA probe rows, serialized as `metrics/v1`
//!   JSON from any example or experiment. Counters themselves are plain
//!   fields of the component that does the work; the snapshot is where
//!   they get names.
//!
//! The crate is std-only and dependency-free; every layer of the emulator
//! (qos, mpls, sim, core, te) can use it without cycles.

mod cause;
mod flight;
mod hist;
mod snapshot;

pub use cause::DropCause;
pub use flight::{DropRecord, FlightRecorder};
pub use hist::Histogram;
pub use snapshot::{MetricsSnapshot, ProbeRow};
