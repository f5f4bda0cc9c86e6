//! # netsim-verify — static analysis of provisioned control-plane state
//!
//! The paper's §4 functions (membership, reachability, separation) and §5
//! QoS pipeline are configuration-correctness claims. This crate checks
//! them *statically* — over installed FTN/ILM/NHLFE tables, route-target
//! policies, queue parameters and TE trunks — before a single packet
//! is simulated, and reports violations as structured [`Diagnostic`]s with
//! stable codes (see [`codes`]).
//!
//! Four passes:
//!
//! | pass | module | codes |
//! |------|--------|-------|
//! | label-plane integrity | [`labelplane`] | `V-LBL-001` … `V-LBL-006` |
//! | VRF isolation         | [`isolation`]  | `V-VRF-001` … `V-VRF-004` |
//! | QoS configuration     | [`qoslint`]    | `V-QOS-001` … `V-QOS-004` |
//! | TE trunks             | [`te`]         | `V-TE-001`, `V-TE-004` |
//!
//! Retired codes are not reused: `V-TE-002` (a trunk no path could carry
//! on an empty network, which `V-TE-001` already catches) and `V-TE-003`
//! (a second reservation ledger that no longer exists).
//!
//! `mplsvpn-core` glues these to `ProviderNetwork::verify()`. The label
//! pass reads the live tables it checks through the [`LabelPlane`] trait,
//! which the provider network implements over its routers, and the TE
//! pass reads the network's trunks through [`TePlane`], which extends it;
//! the other passes take plain values (route-target policies, queue
//! parameters). So each pass can be unit-tested (and fuzzed) over a
//! hand-built fake without building a simulator.

#![warn(missing_docs)]

pub mod diag;
pub mod isolation;
pub mod labelplane;
pub mod qoslint;
pub mod te;

pub use diag::{codes, Diagnostic, Severity, VerifyReport};
pub use isolation::{verify_isolation, VrfPolicy};
pub use labelplane::{verify_label_plane, LabelPlane, StackWalk};
pub use qoslint::{lint_cbq_tree, lint_ef_admission, lint_exp_map, lint_red_profile, EfContract};
pub use te::{verify_te, TePlane, Trunk};
