//! # mplsvpn — end-to-end QoS architecture for VPNs
//!
//! A full userspace reproduction of *"End-To-End QoS Architecture for
//! VPNs: MPLS VPN Deployment in a Backbone Network"* (Lee, Hwang, Kang,
//! Jun — ICPP 2000): an MPLS/BGP VPN provider backbone with a
//! DiffServ-over-MPLS QoS pipeline, running on a deterministic
//! discrete-event network simulator, plus the two baselines the paper
//! argues against (overlay PVC meshes and IPsec-over-IP).
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`net`] — packets over a payload length, addresses, prefixes, LPM
//!   trie.
//! * [`sim`] — the discrete-event simulator, traffic sources, statistics.
//! * [`qos`] — classifiers, meters, RED, schedulers that serve a packet
//!   in its class (`Packet::class`).
//! * [`mpls`] — label spaces, LFIB, LDP.
//! * [`routing`] — topology, link-state IGP and CSPF over it, the BGP/MPLS
//!   VPN route fabric (one selection rule; the provider network owns it).
//! * [`ipsec`] — ESP tunnel emulation and IKE simulation.
//! * [`obs`] — telemetry: drop-cause flight recorder, histograms, SLA
//!   probe rows, `metrics/v2` snapshots (DESIGN.md §8).
//! * [`vpn`] — the assembled architecture: provider networks (with TE
//!   trunks and fast reroute), PE/P/CE routers, baselines (overlay, IPsec,
//!   IntServ/RSVP reservations), SLAs, tracing.
//!
//! ## Quickstart
//!
//! ```
//! use mplsvpn::vpn::{BackboneBuilder, CoreQos};
//! use mplsvpn::routing::{LinkAttrs, Topology};
//! use mplsvpn::sim::{Sink, SourceConfig, MSEC, SEC};
//!
//! // A three-node backbone: PE0 — P — PE1.
//! let mut topo = Topology::new(3);
//! let attrs = LinkAttrs { cost: 1, capacity_bps: 100_000_000 };
//! topo.add_link(0, 1, attrs);
//! topo.add_link(1, 2, attrs);
//!
//! let mut pn = BackboneBuilder::new(topo, vec![0, 2]).build();
//! let vpn = pn.new_vpn("acme");
//! let a = pn.add_site(vpn, 0, "10.1.0.0/16".parse().unwrap(), None);
//! let b = pn.add_site(vpn, 1, "10.2.0.0/16".parse().unwrap(), None);
//!
//! let sink = pn.attach_sink(b, "10.2.0.0/16".parse().unwrap());
//! let cfg = SourceConfig::udp(1, pn.site_addr(a, 1), pn.site_addr(b, 1), 5000, 200);
//! pn.attach_cbr_source(a, cfg, MSEC, Some(100));
//! pn.run_for(SEC);
//!
//! let stats = pn.net.node_ref::<Sink>(sink);
//! assert_eq!(stats.flow(1).unwrap().rx_packets, 100);
//! ```

#![warn(missing_docs)]

/// Packet formats and address machinery ([`netsim_net`]).
pub use netsim_net as net;

/// The discrete-event simulator ([`netsim_sim`]).
pub use netsim_sim as sim;

/// DiffServ QoS building blocks ([`netsim_qos`]).
pub use netsim_qos as qos;

/// MPLS data plane and label distribution ([`netsim_mpls`]).
pub use netsim_mpls as mpls;

/// IGP and BGP/MPLS VPN control planes ([`netsim_routing`]).
pub use netsim_routing as routing;

/// IPsec emulation ([`netsim_ipsec`]).
pub use netsim_ipsec as ipsec;

/// Telemetry: flight recorder, histograms, snapshots ([`netsim_obs`]).
pub use netsim_obs as obs;

/// The assembled VPN architecture ([`mplsvpn_core`]).
pub use mplsvpn_core as vpn;

/// Static control-plane and QoS-configuration verifier
/// ([`netsim_verify`]).
pub use netsim_verify as verify;
