//! The DSCP ↔ MPLS EXP mapping.
//!
//! The paper's §5 pipeline: the CPE marks DiffServ/ToS; "the network edge
//! will then map the CPE-specified DiffServ/ToS service level specification
//! into the QoS field of the MPLS header". The EXP field has 3 bits, so the
//! 64 DSCP values fold into 8 EXP classes ([`Dscp::default_exp`]);
//! [`ExpMap`] is that fold, overridable per DSCP, plus its inverse
//! (applied when the egress LSR pops the stack and restores IP
//! scheduling).

use netsim_net::Dscp;

/// Bidirectional DSCP ↔ EXP mapping used at the MPLS edge.
///
/// The default map is the fold [`Dscp::default_exp`], the common
/// deployment convention:
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
        let dscp_to_exp = std::array::from_fn(|v| Dscp::new(v as u8).default_exp());
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
