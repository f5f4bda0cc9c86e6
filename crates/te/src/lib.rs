//! # netsim-te — MPLS traffic engineering
//!
//! The paper's §5: "MPLS uses layer three routing information to establish
//! forwarding tables and to allocate resources … Users can also control QoS
//! and general traffic flow more precisely to avoid congested, constrained
//! or disabled links." Plain IGP routing cannot do that (§2.2 — OSPF
//! exchanges no resource information); this crate adds what is missing:
//!
//! * [`cspf`] — constraint-based shortest path first: Dijkstra over only
//!   the links a caller's constraint admits (up, with enough unreserved
//!   bandwidth).
//! * [`frr`] — shared-risk link groups for fast reroute: a bypass is a
//!   [`cspf_path`] whose constraint also excludes every link that shares a
//!   risk with the protected one.
//! * [`intserv`] — per-flow RSVP reservations, the §2.2 comparison.
//!
//! Trunk admission lives with the LSPs it installs:
//! `ProviderNetwork::admit_trunk` (in `mplsvpn-core`) runs [`cspf_path`]
//! over the network's live topology and records each trunk, and the
//! verifier's TE pass reads that record. Experiment Q3 routes two trunks
//! across the classic "fish" topology: the IGP piles both onto the
//! shortest path and congests it; CSPF places the second trunk on the
//! longer path and both meet their SLAs.
//!
//! # Example
//!
//! ```
//! use netsim_routing::{LinkAttrs, Topology};
//! use netsim_te::cspf_path;
//!
//! // The fish: a short and a long path between nodes 0 and 4.
//! let mut t = Topology::new(5);
//! let attrs = LinkAttrs { cost: 1, capacity_bps: 10_000_000 };
//! for (u, v) in [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)] {
//!     t.add_link(u, v, attrs);
//! }
//! assert_eq!(cspf_path(&t, 0, 4, &|_| true), Some(vec![0, 1, 4])); // shortest
//! // With link 1 (1-4) full, CSPF detours.
//! assert_eq!(cspf_path(&t, 0, 4, &|l| l != 1), Some(vec![0, 2, 3, 4]));
//! ```

#![warn(missing_docs)]

pub mod cspf;
pub mod frr;
pub mod intserv;

pub use cspf::cspf_path;
pub use frr::SrlgMap;
pub use intserv::{FlowId, FlowRequest, IntServDomain, RsvpError};
