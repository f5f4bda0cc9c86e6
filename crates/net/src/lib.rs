//! # netsim-net — packet formats and address machinery
//!
//! Foundation crate for the MPLS VPN emulator: IPv4 addressing and CIDR
//! prefixes, a longest-prefix-match trie, and the packet model shared by
//! every other crate.
//!
//! The emulator's routers operate on a *structured* packet ([`Packet`], a
//! stack of [`Layer`]s over a payload length), so the forwarding path never
//! touches bytes: every figure the emulator produces reads lengths. An ESP
//! packet carries its inner packet [`Sealed`] under its security
//! association, so a classifier sees only the outer headers — the paper's
//! "encryption erases QoS visibility" claim (§3). Every label the emulator
//! switches on, the overlay baseline's circuit labels included, is one
//! RFC 3032 [`MplsLabel`] entry.
//!
//! Nothing in this crate knows about simulation time, queueing, or routing
//! protocols; those live in `netsim-sim`, `netsim-qos`, and `netsim-routing`.
//!
//! # Example
//!
//! ```
//! use netsim_net::{Dscp, LpmTrie, Packet, Prefix};
//!
//! // A forwarding table with two routes.
//! let mut fib: LpmTrie<&str> = LpmTrie::new();
//! fib.insert("10.0.0.0/8".parse().unwrap(), "core");
//! fib.insert("10.1.0.0/16".parse().unwrap(), "customer");
//!
//! // Longest prefix wins.
//! let dst = "10.1.2.3".parse().unwrap();
//! assert_eq!(fib.lookup(dst), Some(&"customer"));
//!
//! // A packet's size on the wire is its headers plus its payload length.
//! let pkt = Packet::udp("10.1.2.3".parse().unwrap(), dst, 1000, 53, Dscp::EF, 64);
//! assert_eq!(pkt.wire_len(), 20 + 8 + 64);
//! # let _: Prefix = "0.0.0.0/0".parse().unwrap();
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod dscp;
pub mod error;
pub mod ip;
pub mod lpm;
pub mod mpls;
pub mod packet;
pub mod transport;

pub use addr::{Ip, Prefix};
pub use dscp::Dscp;
pub use error::NetError;
pub use ip::{proto, Ipv4Header};
pub use lpm::{LpmCache, LpmTrie};
pub use mpls::{MplsLabel, IMPLICIT_NULL, MAX_LABEL, MIN_UNRESERVED_LABEL};
pub use packet::{Layer, Packet, Pkt, PktMeta, Sealed};
pub use transport::{FiveTuple, TcpHeader, UdpHeader};
