//! `netsim-obs`: the always-on observability layer.
//!
//! The paper's argument (§5) is that an operator must be able to *see*
//! per-VPN, per-class service levels end to end. This crate is the
//! machinery that makes seeing cheap enough to leave on:
//!
//! * [`MetricsRegistry`] — named counters/gauges/histograms handed out as
//!   typed handles ([`Counter`], [`Gauge`], [`HistogramHandle`]). Handles
//!   are pre-resolved shared cells, so the hot path pays one reference-
//!   counted pointer dereference and an add — never a string lookup, never
//!   an allocation.
//! * [`FlightRecorder`] — a fixed-size ring of the most recent drops plus
//!   exact per-cause, per-flow and per-node totals, replacing bare
//!   "dropped" counts with *why* ([`DropCause`]), *who* (flow id) and
//!   *where* (the node whose handler dropped it).
//! * [`Histogram`] — the log₂-bucketed duration histogram shared by flow
//!   statistics and registry handles.
//! * [`MetricsSnapshot`] — a point-in-time export of all of the above,
//!   serializable as JSON or CSV from any example or experiment.
//!
//! The crate is std-only and dependency-free; every layer of the emulator
//! (qos, mpls, sim, core, te) can use it without cycles.

mod cause;
mod flight;
mod hist;
mod registry;
mod snapshot;

pub use cause::DropCause;
pub use flight::{DropRecord, FlightRecorder};
pub use hist::Histogram;
pub use registry::{Counter, Gauge, HistogramHandle, MetricsRegistry};
pub use snapshot::{HistSummary, MetricsSnapshot, ProbeRow};
