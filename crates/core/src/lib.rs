//! # mplsvpn-core — the end-to-end QoS MPLS VPN architecture
//!
//! This crate assembles every substrate into the system the paper
//! describes: an MPLS backbone offering VPN service with end-to-end QoS.
//!
//! ## The three §4 functions
//!
//! * **Membership discovery** — VPNs are declared as route-target
//!   communities; adding a site touches exactly one PE
//!   ([`ProviderNetwork::add_site`]), and route distribution makes every
//!   other member learn it ([`membership`] quantifies the cost).
//! * **Reachability exchange** — the BGP/MPLS fabric selects VPN-IPv4
//!   routes with piggybacked labels; [`ProviderNetwork`], which owns it,
//!   sends each change to the PE VRF FIBs as an MP-BGP packet.
//! * **Data separation** — customer packets travel with a two-level label
//!   stack (tunnel label above, VPN label below); P routers never see
//!   customer addresses, and overlapping address spaces cannot collide.
//!
//! ## The §5 QoS pipeline
//!
//! CE routers classify and mark (CBQ/DSCP, [`router::CeRouter`]); the
//! ingress PE maps DSCP into the MPLS EXP bits
//! ([`netsim_qos::ExpMap`]); core links schedule on EXP (priority + RED);
//! TE trunks steer traffic away from congestion
//! ([`ProviderNetwork::admit_trunk`], CSPF from
//! [`netsim_routing::cspf_path`]).
//!
//! ## Baselines
//!
//! [`overlay`] implements the §2.1 strawman (one PVC per site pair, a
//! label path through switches) and [`ipsec_vpn`] the §2.3/§3 one (IPsec
//! gateways over a plain IP backbone). Both backbones are
//! [`BackboneBuilder`] networks without PEs, so the three models run on
//! the same routers for head-to-head comparison; [`intserv`] prices the §2.2 per-flow RSVP road the paper
//! declines. Several carriers share one provider network: a
//! [`BackboneBuilder::domains`] split stitches MPLS domains at ASBRs to
//! reproduce the cross-provider SLA claim.

#![warn(missing_docs)]

pub mod control;
pub mod frr;
pub mod intserv;
pub mod ipsec_vpn;
pub mod membership;
pub mod network;
pub mod obs;
pub mod overlay;
pub mod router;
pub mod sla;
mod te;
mod verify;

pub use control::{ControlMode, CtrlStats, CTRL_FLOW_BASE};
pub use frr::FaultOutcome;
pub use netsim_obs::{DropCause, FlightRecorder, MetricsSnapshot, ProbeRow};
pub use netsim_sim::{HopOp, HopRecord, TraceLog};
pub use netsim_verify::{codes, Diagnostic, Severity, VerifyReport};
pub use network::{BackboneBuilder, CoreQos, ProviderNetwork, SiteId, VpnId, VrfDigestRow};
pub use obs::PROBE_FLOW_BASE;
pub use router::{CeRouter, CoreRouter, PeRouter};
pub use sla::{voice_mos, Sla, SlaReport};
pub use verify::EF_SHARE;
