//! Per-hop behaviours and the DSCP ↔ MPLS EXP mapping.
//!
//! The paper's §5 pipeline: the CPE marks DiffServ/ToS; "the network edge
//! will then map the CPE-specified DiffServ/ToS service level specification
//! into the QoS field of the MPLS header". The EXP field has 3 bits, so the
//! 64 DSCP values fold into 8 EXP classes; [`ExpMap`] is that fold plus its
//! inverse (applied when the egress LSR pops the stack and restores IP
//! scheduling).

use netsim_net::Dscp;

/// The per-hop behaviour groups the emulator schedules on.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Phb {
    /// Expedited forwarding: low delay, low jitter (voice).
    Ef,
    /// Assured forwarding class 1..=4 (higher class = better treatment).
    Af(u8),
    /// Class selector (network control and legacy IP precedence).
    Cs(u8),
    /// Default best-effort forwarding.
    BestEffort,
}

impl Phb {
    /// Maps a DSCP to its PHB group.
    pub fn of(dscp: Dscp) -> Phb {
        if dscp == Dscp::EF {
            return Phb::Ef;
        }
        if let Some(class) = dscp.af_class() {
            return Phb::Af(class);
        }
        let v = dscp.value();
        if v != 0 && v.is_multiple_of(8) {
            return Phb::Cs(v / 8);
        }
        Phb::BestEffort
    }
}

/// Bidirectional DSCP ↔ EXP mapping used at the MPLS edge.
///
/// The default map follows the common deployment convention:
///
/// | traffic | DSCP | EXP |
/// |---|---|---|
/// | network control | CS6/CS7 | 6 |
/// | voice | EF | 5 |
/// | video / AF4x | AF41..AF43 | 4 |
/// | critical data / AF3x | AF31..AF33 | 3 |
/// | transactional / AF2x | AF21..AF23 | 2 |
/// | bulk / AF1x | AF11..AF13 | 1 |
/// | best effort | BE and unlisted | 0 |
///
/// The inverse map returns the lowest-drop-precedence DSCP of each class so
/// that a remark at the egress never *raises* drop precedence.
#[derive(Clone, Debug)]
pub struct ExpMap {
    dscp_to_exp: [u8; 64],
    exp_to_dscp: [Dscp; 8],
}

impl Default for ExpMap {
    fn default() -> Self {
        let mut dscp_to_exp = [0u8; 64];
        for v in 0..64u8 {
            let d = Dscp::new(v);
            dscp_to_exp[v as usize] = match Phb::of(d) {
                Phb::Ef => 5,
                Phb::Af(c) => c, // AF1x..AF4x -> 1..4
                Phb::Cs(p) if p >= 6 => 6,
                Phb::Cs(p) => p.min(7),
                Phb::BestEffort => 0,
            };
        }
        let exp_to_dscp = [
            Dscp::BE,
            Dscp::AF11,
            Dscp::AF21,
            Dscp::AF31,
            Dscp::AF41,
            Dscp::EF,
            Dscp::CS6,
            Dscp::new(56), // CS7
        ];
        ExpMap { dscp_to_exp, exp_to_dscp }
    }
}

impl ExpMap {
    /// Maps a DSCP to the 3-bit EXP value pushed at the ingress PE.
    #[inline]
    pub fn exp_of(&self, dscp: Dscp) -> u8 {
        self.dscp_to_exp[dscp.value() as usize]
    }

    /// Maps an EXP value back to a representative DSCP at the egress PE.
    #[inline]
    pub fn dscp_of(&self, exp: u8) -> Dscp {
        self.exp_to_dscp[(exp & 7) as usize]
    }

    /// Overrides the mapping for one DSCP.
    pub fn set_exp(&mut self, dscp: Dscp, exp: u8) {
        assert!(exp <= 7, "EXP {exp} exceeds 3 bits");
        self.dscp_to_exp[dscp.value() as usize] = exp;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phb_grouping() {
        assert_eq!(Phb::of(Dscp::EF), Phb::Ef);
        assert_eq!(Phb::of(Dscp::AF32), Phb::Af(3));
        assert_eq!(Phb::of(Dscp::BE), Phb::BestEffort);
        assert_eq!(Phb::of(Dscp::CS6), Phb::Cs(6));
        assert_eq!(Phb::of(Dscp::new(8)), Phb::Cs(1));
        assert_eq!(Phb::of(Dscp::new(5)), Phb::BestEffort);
    }

    #[test]
    fn default_map_conventions() {
        let m = ExpMap::default();
        assert_eq!(m.exp_of(Dscp::EF), 5);
        assert_eq!(m.exp_of(Dscp::AF41), 4);
        assert_eq!(m.exp_of(Dscp::AF42), 4);
        assert_eq!(m.exp_of(Dscp::AF11), 1);
        assert_eq!(m.exp_of(Dscp::BE), 0);
        assert_eq!(m.exp_of(Dscp::CS6), 6);
    }

    #[test]
    fn map_roundtrip_preserves_class() {
        // dscp -> exp -> dscp must land in the same PHB scheduling class.
        let m = ExpMap::default();
        for v in [Dscp::EF, Dscp::AF11, Dscp::AF22, Dscp::AF33, Dscp::AF41, Dscp::BE] {
            let back = m.dscp_of(m.exp_of(v));
            assert_eq!(m.exp_of(back), m.exp_of(v), "class changed for {v}");
        }
    }

    #[test]
    fn overrides() {
        let mut m = ExpMap::default();
        m.set_exp(Dscp::AF11, 7);
        assert_eq!(m.exp_of(Dscp::AF11), 7);
    }

    #[test]
    #[should_panic(expected = "exceeds 3 bits")]
    fn set_exp_rejects_wide_values() {
        ExpMap::default().set_exp(Dscp::BE, 8);
    }
}
