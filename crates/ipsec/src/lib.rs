//! # netsim-ipsec — ESP tunnel-mode emulation and IKE simulation
//!
//! The paper (§2.3) positions IPsec as "the standards for security" on IP
//! VPNs, and (§3) observes its cost: "during the development of the second
//! encryption tunnel, all information including the IP and MAC addresses
//! are encrypted thus erasing any hope one may have to control QoS."
//!
//! This crate makes that observation *mechanically true* inside the
//! emulator: [`esp::encapsulate`] seals the real inner packet under the
//! security association and ships it behind an outer `IP(proto=50)+ESP`
//! header, with the ESP body's RFC 4303 length. Downstream classifiers see
//! exactly what a real DiffServ edge would see — an opaque ESP flow — and
//! only [`esp::decapsulate`], with the SA's SPI, sequence number and keys,
//! opens the inner packet again.
//!
//! **No cipher (per DESIGN.md substitution table):** every experiment
//! reads only packet lengths and the [`CryptoCostModel`]'s per-packet and
//! per-byte cost, so the inner packet is sealed by type, not encrypted.
//! Framing lengths, sequence numbers, replay protection and crypto cost are
//! modelled; cryptographic strength is not.
//!
//! # Example
//!
//! ```
//! use netsim_ipsec::{decapsulate, encapsulate, SecurityAssociation};
//! use netsim_net::{Dscp, Packet};
//!
//! let mut tx = SecurityAssociation::new(0x1001, 0xAAAA, 0xBBBB);
//! let mut rx = SecurityAssociation::new(0x1001, 0xAAAA, 0xBBBB);
//!
//! let inner = Packet::udp(
//!     "10.1.0.5".parse().unwrap(), "10.2.0.9".parse().unwrap(), 16000, 16400, Dscp::EF, 160);
//! let outer = encapsulate(
//!     &inner, &mut tx, "198.51.100.1".parse().unwrap(), "198.51.100.2".parse().unwrap());
//!
//! // The outer packet is classification-blind (§3 of the paper)…
//! let t = outer.visible_five_tuple().unwrap();
//! assert_eq!((t.protocol, t.dst_port), (netsim_net::ip::proto::ESP, 0));
//! // …and a replayed copy is rejected.
//! assert_eq!(decapsulate(&outer, &mut rx).unwrap().layers(), inner.layers());
//! assert!(decapsulate(&outer, &mut rx).is_err());
//! ```

#![warn(missing_docs)]

pub mod esp;
pub mod ike;
pub mod sa;

pub use esp::{decapsulate, encapsulate, CryptoCostModel, IpsecError};
pub use ike::{IkeExchange, IkeProposal};
pub use sa::{ReplayWindow, SaPair, SecurityAssociation};
