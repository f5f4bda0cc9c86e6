//! IPv4 header model.

use crate::addr::Ip;
use crate::dscp::Dscp;

/// Well-known IP protocol numbers used by the emulator.
pub mod proto {
    /// UDP (RFC 768).
    pub const UDP: u8 = 17;
    /// TCP (RFC 793). The emulator models a simplified header.
    pub const TCP: u8 = 6;
    /// Encapsulating Security Payload (RFC 2406).
    pub const ESP: u8 = 50;
}

/// An IPv4 header in structured form.
///
/// Options are not modelled (header length is always 20 bytes); nothing in
/// the paper's architecture requires them, and neither do `total_len` or
/// the checksum, which only a byte encoding would need.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Ip,
    /// Destination address.
    pub dst: Ip,
    /// DiffServ code point (upper six bits of the ToS byte).
    pub dscp: Dscp,
    /// Explicit congestion notification (lower two bits of the ToS byte).
    pub ecn: u8,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol number (see [`proto`]).
    pub protocol: u8,
    /// Identification field (used only for display/trace purposes).
    pub id: u16,
}

/// Size in bytes of the (option-less) IPv4 header on the wire.
pub const IPV4_HEADER_LEN: usize = 20;

/// ECN codepoints (RFC 3168): the two low bits of the ToS byte.
pub mod ecn {
    /// Not ECN-capable transport.
    pub const NOT_ECT: u8 = 0b00;
    /// ECN-capable transport (1).
    pub const ECT1: u8 = 0b01;
    /// ECN-capable transport (0) — the codepoint senders normally use.
    pub const ECT0: u8 = 0b10;
    /// Congestion experienced: set by an AQM instead of dropping.
    pub const CE: u8 = 0b11;
}

/// Default TTL applied by the emulator's hosts.
pub const DEFAULT_TTL: u8 = 64;

impl Ipv4Header {
    /// Creates a header with default TTL, zero ECN and id.
    pub fn new(src: Ip, dst: Ip, protocol: u8, dscp: Dscp) -> Self {
        Ipv4Header { src, dst, dscp, ecn: 0, ttl: DEFAULT_TTL, protocol, id: 0 }
    }

    /// Decrement TTL; returns `false` when it has expired (reached zero).
    #[inline]
    pub fn decrement_ttl(&mut self) -> bool {
        self.ttl = self.ttl.saturating_sub(1);
        self.ttl > 0
    }

    /// Whether the sender declared ECN capability (ECT(0) or ECT(1)).
    #[inline]
    pub fn is_ect(&self) -> bool {
        self.ecn != ecn::NOT_ECT
    }

    /// Whether a router marked congestion-experienced.
    #[inline]
    pub fn is_ce(&self) -> bool {
        self.ecn == ecn::CE
    }

    /// Marks congestion experienced (only meaningful on ECT packets).
    #[inline]
    pub fn set_ce(&mut self) {
        self.ecn = ecn::CE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::ip;

    #[test]
    fn ttl_expiry() {
        let mut h = Ipv4Header::new(ip("1.1.1.1"), ip("2.2.2.2"), proto::UDP, Dscp::BE);
        h.ttl = 2;
        assert!(h.decrement_ttl());
        assert!(!h.decrement_ttl());
        assert_eq!(h.ttl, 0);
        // Saturates rather than wrapping.
        assert!(!h.decrement_ttl());
        assert_eq!(h.ttl, 0);
    }
}
