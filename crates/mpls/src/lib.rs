//! # netsim-mpls — MPLS data plane
//!
//! The label-switching substrate of the reproduction:
//!
//! * [`label`] — per-LSR label spaces (allocation/release).
//! * [`lfib`] — the forwarding tables: ILM (incoming label map) with O(1)
//!   dense lookup, NHLFE operations (swap/push/pop with TTL and EXP
//!   handling), and the FTN (FEC-to-NHLFE) map used at the ingress.
//! * [`walk`] — follows a pushed label stack through any node's tables to
//!   where it unwinds; the verifier, the live network's LSP paths and the
//!   LDP tests all ask it.
//!
//! The label distribution protocol the model runs is not here: each
//! backbone router's `NodeControl` (in `mplsvpn-core`) binds, installs
//! and re-advertises tunnel labels as per-router deltas, and counts every
//! Label Mapping message — the currency of the paper's scalability
//! argument (§2.1 vs §4). This crate's tests keep a synchronous-rounds
//! run (`tests/common/ldp_reference.rs`) as the reference that
//! distribution is checked against.
//!
//! The paper (§3): "MPLS brings the same kind of label swapping based
//! forwarding used in frame relay and ATM to the handling of IP traffic."
//! [`lfib::Lfib::lookup`] *is* that claim's fast path; bench `lpm_vs_label`
//! measures it against the IP longest-prefix match.
//!
//! # Example
//!
//! ```
//! use netsim_mpls::lfib::{LabelOp, LfibVerdict, Nhlfe};
//! use netsim_mpls::Lfib;
//! use netsim_net::{Dscp, Layer, MplsLabel, Packet};
//!
//! let mut lfib = Lfib::new();
//! lfib.install(100, Nhlfe { op: LabelOp::Swap(200), out_iface: 3 });
//!
//! let mut pkt = Packet::udp(
//!     "10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap(), 1, 2, Dscp::EF, 64);
//! pkt.push_outer(Layer::Mpls(MplsLabel::new(100, 5, 64)));
//!
//! assert_eq!(lfib.forward(&mut pkt), LfibVerdict::Forward { out_iface: 3 });
//! let top = pkt.top_label().unwrap();
//! assert_eq!((top.label, top.exp, top.ttl), (200, 5, 63)); // EXP survives the swap
//! ```

#![warn(missing_docs)]

pub mod label;
pub mod lfib;
pub mod walk;

pub use label::LabelSpace;
pub use lfib::{FtnEntry, LabelOp, Lfib, LfibStats, Nhlfe};
