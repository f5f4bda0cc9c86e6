//! # netsim-sim — deterministic discrete-event network simulator
//!
//! The substrate standing in for the paper's hardware LSR backbone: nodes
//! exchange [`netsim_net::Packet`]s over duplex links with finite bandwidth,
//! propagation delay, and a pluggable [`netsim_qos::QueueDiscipline`] on each
//! egress. Everything the QoS experiments measure — queueing delay, jitter,
//! loss, utilization — emerges from this model.
//!
//! Design points:
//!
//! * **Determinism.** One event calendar, ties broken by insertion order;
//!   all randomness comes from seeds owned by traffic sources. Identical
//!   seeds ⇒ identical runs, which the integration tests rely on.
//! * **Store-and-forward links.** A transmission occupies the egress for
//!   `wire_len * 8 / rate`; the packet arrives at the peer after an
//!   additional propagation delay. Non-work-conserving disciplines (CBQ
//!   bounded classes) are honoured via
//!   [`netsim_qos::QueueDiscipline::next_ready`] retries.
//! * **Single-threaded networks, parallel experiments.** A [`Network`] is a
//!   plain single-threaded state machine; the benchmark harness runs many
//!   networks concurrently, one per thread.
//!
//! # Example
//!
//! ```
//! use netsim_sim::{CbrSource, Network, Sink, SourceConfig, MSEC, SEC};
//!
//! let mut net = Network::new();
//! let cfg = SourceConfig::udp(
//!     1, "10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap(), 5000, 200);
//! let dst = net.add_node(Box::new(Sink::new()));
//! // The source hangs off `dst` over the host LAN and starts now.
//! net.attach_source(dst, Box::new(CbrSource::new(cfg, MSEC, Some(100))));
//! net.run_until(SEC);
//!
//! let stats = net.node_ref::<Sink>(dst).flow(1).unwrap();
//! assert_eq!(stats.rx_packets, 100);
//! assert_eq!(stats.jitter_ns, 0.0); // uncongested CBR is jitter-free
//! ```

#![warn(missing_docs)]

mod calendar;
pub mod engine;
pub mod fault;
pub mod fxmap;
pub mod node;
pub mod stats;
pub mod tcp;
pub mod trace;
pub mod traffic;

pub use engine::{LinkConfig, LinkId, LinkStats, Network};
pub use fault::{FaultAction, FaultEvent, FaultPlan};
pub use fxmap::{FxHashMap, FxHasher};
pub use netsim_qos::{Nanos, MSEC, SEC};
pub use node::{Ctx, IfaceId, Node, NodeId};
pub use stats::{FlowStats, Histogram};
pub use tcp::{TcpSink, TcpSource};
pub use trace::{HopOp, HopRecord, TraceLog};
pub use traffic::{CbrSource, OnOffSource, PoissonSource, Sink, SourceConfig};
