//! Frame-relay-like virtual-circuit header for the overlay VPN baseline.
//!
//! The paper's §2.1 compares the MPLS VPN model against provisioning one
//! virtual circuit per site pair over a frame relay / ATM service. The
//! overlay baseline in `mplsvpn-core` switches packets on a per-hop VC
//! identifier (a DLCI in frame relay terms) carried by this header, so its
//! control-plane cost — the N(N−1)/2 circuit explosion — can be measured
//! against a functioning data plane rather than a formula.

use std::fmt;

/// A virtual-circuit header: a link-local circuit identifier plus a
/// discard-eligibility bit (frame relay's crude QoS knob — the only QoS
/// signal the overlay data plane can carry, in contrast to MPLS EXP).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VcHeader {
    /// Link-local circuit identifier (DLCI-like, 22 bits used).
    pub vc_id: u32,
    /// Discard eligibility: marked frames are dropped first under congestion.
    pub discard_eligible: bool,
}

/// Size in bytes of the VC header on the wire (modelled as 4 bytes).
pub const VC_HEADER_LEN: usize = 4;

impl VcHeader {
    /// Creates a header.
    ///
    /// # Panics
    /// Panics if `vc_id` exceeds 22 bits.
    pub fn new(vc_id: u32, discard_eligible: bool) -> Self {
        assert!(vc_id < (1 << 22), "vc id {vc_id} exceeds 22 bits");
        VcHeader { vc_id, discard_eligible }
    }
}

impl fmt::Debug for VcHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VC{}{}", self.vc_id, if self.discard_eligible { "/DE" } else { "" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "exceeds 22 bits")]
    fn rejects_oversized_id() {
        VcHeader::new(1 << 22, false);
    }
}
