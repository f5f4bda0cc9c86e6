//! DiffServ code points.
//!
//! The DSCP is the six most significant bits of the IPv4 ToS byte. The paper
//! (§5) has the CPE mark traffic with "DiffServ/ToS" and the provider edge
//! map that marking into the MPLS header's QoS (EXP) field; the code points
//! themselves therefore live here in the packet-format crate, while the
//! per-hop behaviours built on them live in `netsim-qos`.

use std::fmt;

/// A DiffServ code point (6 bits, values 0..=63).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dscp(u8);

impl Dscp {
    /// Best effort (default PHB), code point 0.
    pub const BE: Dscp = Dscp(0);
    /// Expedited Forwarding (RFC 3246), code point 46. Voice.
    pub const EF: Dscp = Dscp(46);
    /// Assured Forwarding class 1, low drop precedence (RFC 2597).
    pub const AF11: Dscp = Dscp(10);
    /// AF class 1, medium drop precedence.
    pub const AF12: Dscp = Dscp(12);
    /// AF class 1, high drop precedence.
    pub const AF13: Dscp = Dscp(14);
    /// AF class 2, low drop precedence.
    pub const AF21: Dscp = Dscp(18);
    /// AF class 2, medium drop precedence.
    pub const AF22: Dscp = Dscp(20);
    /// AF class 2, high drop precedence.
    pub const AF23: Dscp = Dscp(22);
    /// AF class 3, low drop precedence.
    pub const AF31: Dscp = Dscp(26);
    /// AF class 3, medium drop precedence.
    pub const AF32: Dscp = Dscp(28);
    /// AF class 3, high drop precedence.
    pub const AF33: Dscp = Dscp(30);
    /// AF class 4, low drop precedence.
    pub const AF41: Dscp = Dscp(34);
    /// AF class 4, medium drop precedence.
    pub const AF42: Dscp = Dscp(36);
    /// AF class 4, high drop precedence.
    pub const AF43: Dscp = Dscp(38);
    /// Class selector 6 (network control).
    pub const CS6: Dscp = Dscp(48);

    /// Creates a code point, masking to 6 bits.
    #[inline]
    pub const fn new(v: u8) -> Self {
        Dscp(v & 0x3F)
    }

    /// The raw 6-bit value.
    #[inline]
    pub const fn value(self) -> u8 {
        self.0
    }

    /// The AF class number (1..=4) if this is an Assured Forwarding code
    /// point, else `None`.
    pub const fn af_class(self) -> Option<u8> {
        match self.0 {
            10 | 12 | 14 => Some(1),
            18 | 20 | 22 => Some(2),
            26 | 28 | 30 => Some(3),
            34 | 36 | 38 => Some(4),
            _ => None,
        }
    }

    /// The AF drop precedence (1=low..3=high) if this is an AF code point.
    pub const fn af_drop_precedence(self) -> Option<u8> {
        match self.0 {
            10 | 18 | 26 | 34 => Some(1),
            12 | 20 | 28 | 36 => Some(2),
            14 | 22 | 30 | 38 => Some(3),
            _ => None,
        }
    }

    /// The MPLS EXP class this code point folds into by default: EF → 5,
    /// AF class `c` → `c`, class selectors CS1–CS5 → their precedence,
    /// CS6 and CS7 (network control) → 6, anything else → 0. The provider
    /// edge's default map, the EXP-or-DSCP schedulers, the engine's
    /// per-class link counters and a bypass label pushed over a bare IP
    /// packet all classify with it.
    #[inline]
    pub const fn default_exp(self) -> u8 {
        DEFAULT_EXP[self.0 as usize]
    }

    /// Returns the AF code point for (class, drop precedence).
    ///
    /// # Panics
    /// Panics unless `class ∈ 1..=4` and `dp ∈ 1..=3`.
    pub const fn af(class: u8, dp: u8) -> Dscp {
        assert!(class >= 1 && class <= 4 && dp >= 1 && dp <= 3);
        Dscp(8 * class + 2 * dp)
    }
}

/// [`Dscp::default_exp`] of every code point, worked out at compile time:
/// schedulers and link counters classify a mix of code points per packet,
/// and one load costs them no branch.
const DEFAULT_EXP: [u8; 64] = {
    let mut table = [0; 64];
    let mut v = 0;
    while v < 64 {
        table[v as usize] = match v {
            46 => 5,
            48 | 56 => 6,
            _ if v % 8 == 0 => v / 8,
            _ => match Dscp(v).af_class() {
                Some(class) => class,
                None => 0,
            },
        };
        v += 1;
    }
    table
};

impl fmt::Display for Dscp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => write!(f, "BE"),
            46 => write!(f, "EF"),
            48 => write!(f, "CS6"),
            v => {
                if let (Some(c), Some(d)) = (self.af_class(), self.af_drop_precedence()) {
                    write!(f, "AF{c}{d}")
                } else {
                    write!(f, "DSCP{v}")
                }
            }
        }
    }
}

impl fmt::Debug for Dscp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_known_values() {
        assert_eq!(Dscp::EF.value(), 46);
        assert_eq!(Dscp::BE.value(), 0);
        assert_eq!(Dscp::AF11.value(), 10);
        assert_eq!(Dscp::AF43.value(), 38);
    }

    #[test]
    fn af_constructor_matches_constants() {
        assert_eq!(Dscp::af(1, 1), Dscp::AF11);
        assert_eq!(Dscp::af(2, 3), Dscp::AF23);
        assert_eq!(Dscp::af(4, 2), Dscp::AF42);
    }

    #[test]
    fn af_class_and_dp_roundtrip() {
        for class in 1..=4u8 {
            for dp in 1..=3u8 {
                let d = Dscp::af(class, dp);
                assert_eq!(d.af_class(), Some(class));
                assert_eq!(d.af_drop_precedence(), Some(dp));
            }
        }
        assert_eq!(Dscp::EF.af_class(), None);
        assert_eq!(Dscp::BE.af_class(), None);
    }

    #[test]
    fn default_exp_folds_by_phb_group() {
        assert_eq!(Dscp::EF.default_exp(), 5);
        assert_eq!(Dscp::AF32.default_exp(), 3);
        assert_eq!(Dscp::AF41.default_exp(), 4);
        assert_eq!(Dscp::BE.default_exp(), 0);
        assert_eq!(Dscp::new(8).default_exp(), 1, "CS1");
        assert_eq!(Dscp::new(40).default_exp(), 5, "CS5");
        assert_eq!(Dscp::CS6.default_exp(), 6);
        assert_eq!(Dscp::new(56).default_exp(), 6, "CS7 shares network control's class");
        assert_eq!(Dscp::new(5).default_exp(), 0, "unassigned code points are best effort");
        assert_eq!(Dscp::new(44).default_exp(), 0);
        assert!((0..64).all(|v| Dscp::new(v).default_exp() <= 7));
    }

    #[test]
    fn new_masks_to_six_bits() {
        assert_eq!(Dscp::new(0xFF).value(), 0x3F);
    }

    #[test]
    fn display_names() {
        assert_eq!(Dscp::EF.to_string(), "EF");
        assert_eq!(Dscp::BE.to_string(), "BE");
        assert_eq!(Dscp::AF21.to_string(), "AF21");
        assert_eq!(Dscp::new(5).to_string(), "DSCP5");
    }
}
