//! IPv4 addresses and CIDR prefixes.
//!
//! The emulator uses its own [`Ip`] newtype (a `u32` in host order) rather
//! than `std::net::Ipv4Addr` so that the hot paths — trie walks, hashing,
//! masking — compile down to plain integer arithmetic, and so that VPN code
//! can treat addresses as opaque per-VRF values (customer address spaces may
//! overlap; an `Ip` carries no global meaning by itself, which is exactly the
//! RFC 2547 model the paper builds on).

use std::fmt;
use std::str::FromStr;

use crate::error::NetError;

/// An IPv4 address stored as a host-order `u32`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ip(pub u32);

impl Ip {
    /// Builds an address from dotted-quad octets.
    #[inline]
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ip(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// Returns the four octets, most significant first.
    #[inline]
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Extracts the bit at position `i`, where bit 0 is the most significant
    /// bit. Used by the LPM trie walk.
    #[inline]
    pub const fn bit(self, i: u8) -> u8 {
        debug_assert!(i < 32);
        ((self.0 >> (31 - i)) & 1) as u8
    }

    /// Applies a network mask of `len` leading one-bits.
    #[inline]
    pub const fn masked(self, len: u8) -> Ip {
        Ip(self.0 & mask(len))
    }
}

/// Returns the `u32` netmask with `len` leading ones (`len <= 32`).
#[inline]
pub const fn mask(len: u8) -> u32 {
    debug_assert!(len <= 32);
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len)
    }
}

impl fmt::Display for Ip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl fmt::Debug for Ip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<u32> for Ip {
    fn from(v: u32) -> Self {
        Ip(v)
    }
}

impl From<[u8; 4]> for Ip {
    fn from(o: [u8; 4]) -> Self {
        Ip::new(o[0], o[1], o[2], o[3])
    }
}

impl FromStr for Ip {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for slot in &mut octets {
            let part = parts.next().ok_or_else(|| NetError::bad_addr(s))?;
            *slot = part.parse().map_err(|_| NetError::bad_addr(s))?;
        }
        if parts.next().is_some() {
            return Err(NetError::bad_addr(s));
        }
        Ok(Ip::from(octets))
    }
}

/// A CIDR prefix: a network address plus a mask length.
///
/// Prefixes are kept *normalized*: host bits below the mask are always zero,
/// so two prefixes are equal iff they denote the same address block. This
/// invariant is relied upon by the routing tables and is checked by the
/// property tests.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    addr: Ip,
    len: u8,
}

impl Prefix {
    /// The default route `0.0.0.0/0`.
    pub const DEFAULT: Prefix = Prefix { addr: Ip(0), len: 0 };

    /// Creates a prefix, zeroing any host bits.
    ///
    /// # Panics
    /// Panics if `len > 32`.
    #[inline]
    pub fn new(addr: Ip, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} > 32");
        Prefix { addr: addr.masked(len), len }
    }

    /// A host route (`/32`) for one address.
    #[inline]
    pub fn host(addr: Ip) -> Self {
        Prefix { addr, len: 32 }
    }

    /// The network address (host bits zero).
    #[inline]
    pub const fn addr(self) -> Ip {
        self.addr
    }

    /// The mask length in bits.
    #[inline]
    #[allow(clippy::len_without_is_empty)] // a prefix has no empty state
    pub const fn len(self) -> u8 {
        self.len
    }

    /// Whether `ip` falls inside this prefix.
    #[inline]
    pub fn contains(self, ip: Ip) -> bool {
        ip.masked(self.len) == self.addr
    }

    /// Whether the two prefixes share any address.
    pub fn overlaps(self, other: Prefix) -> bool {
        let l = self.len.min(other.len);
        self.addr.masked(l) == other.addr.masked(l)
    }

    /// The `i`-th address inside this prefix, wrapping inside the block.
    /// Convenient for synthesizing hosts in workload generators.
    pub fn nth(self, i: u32) -> Ip {
        let span = if self.len == 0 { u32::MAX } else { (1u64 << (32 - self.len)) as u32 - 1 };
        Ip(self.addr.0 | (i & span))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Prefix {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or_else(|| NetError::bad_addr(s))?;
        let addr: Ip = addr.parse()?;
        let len: u8 = len.parse().map_err(|_| NetError::bad_addr(s))?;
        if len > 32 {
            return Err(NetError::bad_addr(s));
        }
        Ok(Prefix::new(addr, len))
    }
}

/// Shorthand for parsing literal addresses in tests and examples.
///
/// # Panics
/// Panics on malformed input; use only with literals.
pub fn ip(s: &str) -> Ip {
    s.parse().unwrap_or_else(|_| panic!("bad ip literal {s:?}"))
}

/// Shorthand for parsing literal prefixes in tests and examples.
///
/// # Panics
/// Panics on malformed input; use only with literals.
pub fn pfx(s: &str) -> Prefix {
    s.parse().unwrap_or_else(|_| panic!("bad prefix literal {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ip_roundtrip_display_parse() {
        let a = Ip::new(10, 1, 255, 0);
        assert_eq!(a.to_string(), "10.1.255.0");
        assert_eq!("10.1.255.0".parse::<Ip>().unwrap(), a);
    }

    #[test]
    fn ip_rejects_malformed() {
        assert!("10.1.2".parse::<Ip>().is_err());
        assert!("10.1.2.3.4".parse::<Ip>().is_err());
        assert!("10.1.2.256".parse::<Ip>().is_err());
        assert!("".parse::<Ip>().is_err());
        assert!("a.b.c.d".parse::<Ip>().is_err());
    }

    #[test]
    fn bit_extraction_is_msb_first() {
        let a = Ip(0x8000_0001);
        assert_eq!(a.bit(0), 1);
        assert_eq!(a.bit(1), 0);
        assert_eq!(a.bit(31), 1);
    }

    #[test]
    fn mask_edges() {
        assert_eq!(mask(0), 0);
        assert_eq!(mask(8), 0xFF00_0000);
        assert_eq!(mask(32), u32::MAX);
    }

    #[test]
    fn prefix_normalizes_host_bits() {
        let p = Prefix::new(ip("10.1.2.3"), 8);
        assert_eq!(p.addr(), ip("10.0.0.0"));
        assert_eq!(p, pfx("10.0.0.0/8"));
    }

    #[test]
    fn prefix_contains() {
        let p = pfx("192.168.0.0/16");
        assert!(p.contains(ip("192.168.55.1")));
        assert!(!p.contains(ip("192.169.0.1")));
        assert!(Prefix::DEFAULT.contains(ip("8.8.8.8")));
    }

    #[test]
    fn prefix_overlap() {
        assert!(pfx("10.0.0.0/8").overlaps(pfx("10.1.0.0/16")));
        assert!(pfx("10.1.0.0/16").overlaps(pfx("10.0.0.0/8")));
        assert!(!pfx("10.0.0.0/8").overlaps(pfx("11.0.0.0/8")));
        assert!(Prefix::DEFAULT.overlaps(pfx("1.2.3.4/32")));
    }

    #[test]
    fn prefix_parse_rejects_bad_len() {
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!("10.0.0.0".parse::<Prefix>().is_err());
        assert!("10.0.0.0/x".parse::<Prefix>().is_err());
    }

    #[test]
    fn nth_wraps_within_block() {
        let p = pfx("10.0.0.0/30");
        assert_eq!(p.nth(0), ip("10.0.0.0"));
        assert_eq!(p.nth(1), ip("10.0.0.1"));
        assert_eq!(p.nth(3), ip("10.0.0.3"));
        // wraps: /30 has span 3
        assert_eq!(p.nth(4), ip("10.0.0.0"));
    }

    #[test]
    fn host_prefix_contains_only_itself() {
        let p = Prefix::host(ip("1.2.3.4"));
        assert!(p.contains(ip("1.2.3.4")));
        assert!(!p.contains(ip("1.2.3.5")));
    }
}
