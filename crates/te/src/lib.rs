//! # netsim-te — MPLS traffic engineering
//!
//! The paper's §5: "MPLS uses layer three routing information to establish
//! forwarding tables and to allocate resources … Users can also control QoS
//! and general traffic flow more precisely to avoid congested, constrained
//! or disabled links." Plain IGP routing cannot do that (§2.2 — OSPF
//! exchanges no resource information); this crate adds what is missing:
//!
//! * [`cspf`] — constraint-based shortest path first: Dijkstra over only
//!   those links with enough *unreserved* bandwidth at the trunk's setup
//!   priority.
//! * [`trunk`] — trunk admission control: bandwidth bookkeeping per link
//!   and per priority, preemption of lower-priority trunks, and release.
//!
//! Experiment Q3 routes two trunks across the classic "fish" topology: the
//! IGP piles both onto the shortest path and congests it; CSPF places the
//! second trunk on the longer path and both meet their SLAs.
//!
//! # Example
//!
//! ```
//! use netsim_routing::{LinkAttrs, Topology};
//! use netsim_te::{TeDomain, TrunkRequest};
//!
//! // The fish: a short and a long path between nodes 0 and 4.
//! let mut t = Topology::new(5);
//! let attrs = LinkAttrs { cost: 1, capacity_bps: 10_000_000 };
//! for (u, v) in [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)] {
//!     t.add_link(u, v, attrs);
//! }
//! let mut te = TeDomain::new(t);
//! let (t1, _) = te.signal(TrunkRequest::new(0, 4, 7_000_000)).unwrap();
//! let (t2, _) = te.signal(TrunkRequest::new(0, 4, 7_000_000)).unwrap();
//! assert_eq!(te.path(t1).unwrap(), &[0, 1, 4]);      // shortest
//! assert_eq!(te.path(t2).unwrap(), &[0, 2, 3, 4]);   // CSPF detours
//! ```

#![warn(missing_docs)]

pub mod cspf;
pub mod frr;
pub mod intserv;
pub mod trunk;

pub use cspf::cspf_path;
pub use frr::{cspf_path_excluding, SrlgMap};
pub use intserv::{FlowId, FlowRequest, IntServDomain, RsvpError};
pub use trunk::{TeDomain, TeError, TrunkId, TrunkRequest};
