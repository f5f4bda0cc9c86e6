//! MPLS label stack entries (RFC 3032 shim header).
//!
//! A label stack entry is 32 bits on the wire:
//! `label (20) | EXP (3) | S (1) | TTL (8)`. In the structured [`crate::Packet`]
//! representation each entry is one [`crate::Layer::Mpls`]; the bottom-of-stack
//! bit is implied by stack position.
//! The 3-bit EXP field is the "QoS field of the MPLS header" the paper's §5
//! maps DiffServ markings into.

use std::fmt;

/// Largest encodable label value (20 bits).
pub const MAX_LABEL: u32 = (1 << 20) - 1;

/// Implicit-null reserved label (RFC 3032): advertised by an egress LSR to
/// request penultimate-hop popping; never appears on the wire.
pub const IMPLICIT_NULL: u32 = 3;

/// First label value outside the reserved range, available for allocation.
pub const MIN_UNRESERVED_LABEL: u32 = 16;

/// One MPLS label stack entry in structured form.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MplsLabel {
    /// The 20-bit label value.
    pub label: u32,
    /// The 3-bit EXP (experimental / QoS) field.
    pub exp: u8,
    /// The 8-bit TTL.
    pub ttl: u8,
}

impl MplsLabel {
    /// Creates an entry, asserting the label and EXP ranges.
    ///
    /// # Panics
    /// Panics if `label > MAX_LABEL` or `exp > 7`.
    #[inline]
    pub fn new(label: u32, exp: u8, ttl: u8) -> Self {
        assert!(label <= MAX_LABEL, "label {label} exceeds 20 bits");
        assert!(exp <= 7, "EXP {exp} exceeds 3 bits");
        MplsLabel { label, exp, ttl }
    }

    /// Decrement TTL; returns `false` when it has expired.
    #[inline]
    pub fn decrement_ttl(&mut self) -> bool {
        self.ttl = self.ttl.saturating_sub(1);
        self.ttl > 0
    }
}

impl fmt::Debug for MplsLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}/exp{}/ttl{}", self.label, self.exp, self.ttl)
    }
}

/// Size in bytes of one label stack entry on the wire.
pub const MPLS_ENTRY_LEN: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "exceeds 20 bits")]
    fn rejects_oversized_label() {
        MplsLabel::new(MAX_LABEL + 1, 0, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds 3 bits")]
    fn rejects_oversized_exp() {
        MplsLabel::new(0, 8, 0);
    }

    #[test]
    fn ttl_expiry_saturates() {
        let mut e = MplsLabel::new(100, 0, 1);
        assert!(!e.decrement_ttl());
        assert!(!e.decrement_ttl());
        assert_eq!(e.ttl, 0);
    }
}
