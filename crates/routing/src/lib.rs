//! # netsim-routing — link-state IGP and BGP/MPLS VPN control plane
//!
//! Two control planes the paper's architecture assumes:
//!
//! * [`igp`] — a link-state interior gateway protocol (OSPF-like):
//!   Dijkstra SPF with deterministic tie-breaking.
//!   Its next hops drive LDP label distribution and backbone forwarding,
//!   and [`cspf_path`], the same SPF over the links a constraint admits,
//!   places TE trunks and fast-reroute bypasses.
//! * [`bgpvpn`] — the RFC 2547 machinery: route distinguishers make
//!   overlapping customer prefixes globally unique, route targets control
//!   VRF import/export, VPN labels are piggybacked on route updates, and a
//!   route reflector distributes everything. Message
//!   and session counts are first-class outputs — they are the quantities
//!   behind the paper's §2.1 scalability argument.
//!
//! [`topology`] holds the weighted graph both planes run over.
//!
//! # Example
//!
//! ```
//! use netsim_routing::{
//!     BgpVpnFabric, Igp, LinkAttrs, RouteDistinguisher, RouteTarget, Topology,
//! };
//!
//! // A 3-node backbone and its IGP.
//! let mut topo = Topology::new(3);
//! let attrs = LinkAttrs { cost: 1, capacity_bps: 1_000_000_000 };
//! topo.add_link(0, 1, attrs);
//! topo.add_link(1, 2, attrs);
//! let igp = Igp::converge(&topo);
//! assert_eq!(igp.path(0, 2), Some(vec![0, 1, 2]));
//!
//! // Two VRFs in one VPN exchange a route with a piggybacked label.
//! let rt = RouteTarget(1);
//! let rd = RouteDistinguisher::new(65000, 1);
//! let mut fabric = BgpVpnFabric::new(2);
//! let (a, _) = fabric.add_vrf(0, rd, vec![rt], vec![rt]);
//! let (b, _) = fabric.add_vrf(1, rd, vec![rt], vec![rt]);
//! let (label, _) = fabric.advertise(b, "10.2.0.0/16".parse().unwrap());
//! let route = fabric.routes(a).lookup("10.2.0.9".parse().unwrap()).unwrap();
//! assert_eq!((route.egress_pe, route.vpn_label), (1, label));
//! ```

#![warn(missing_docs)]

pub mod bgpvpn;
pub mod igp;
pub mod topology;

pub use bgpvpn::{
    BgpVpnFabric, RemoteRoute, RouteChange, RouteDistinguisher, RouteTarget, VrfHandle,
};
pub use igp::{cspf_path, Igp, SpfTree};
pub use topology::{LinkAttrs, Topology};
