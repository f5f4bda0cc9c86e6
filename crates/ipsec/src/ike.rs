//! Simulated IKE: the two-phase exchange that establishes ESP SAs.
//!
//! The paper (§2.3): "IKE simplifies the process of assigning keys to
//! devices that need to communicate via encrypted connections." The
//! emulation reproduces the *shape* of IKEv1 — a 6-message phase 1 (main
//! mode) deriving a shared secret, and a 3-message phase 2 (quick mode)
//! deriving the SA pair — with deterministic key derivation standing in
//! for Diffie-Hellman, and a per-exchange CPU cost the gateway nodes charge
//! before any data can flow. Experiment Q2 uses the message/latency figures
//! for tunnel setup cost; T1 uses the session counts.

use crate::sa::{SaPair, SecurityAssociation};

/// Parameters of an IKE negotiation.
#[derive(Clone, Copy, Debug)]
pub struct IkeProposal {
    /// Initiator's secret seed (DH private stand-in).
    pub initiator_secret: u64,
    /// Responder's secret seed.
    pub responder_secret: u64,
    /// Agreed SPI base; the exchange derives one SPI per direction.
    pub spi_base: u32,
}

/// Messages in IKEv1 phase 1 main mode.
pub const PHASE1_MESSAGES: u32 = 6;
/// Messages in IKEv1 phase 2 quick mode.
pub const PHASE2_MESSAGES: u32 = 3;

/// Per-endpoint CPU cost of the public-key operations in phase 1, ns
/// (a late-90s software modexp took tens of milliseconds).
pub const PHASE1_CPU_NS: u64 = 30_000_000;
/// Per-endpoint CPU cost of phase 2, ns.
pub const PHASE2_CPU_NS: u64 = 2_000_000;

/// The outcome of a completed IKE negotiation.
#[derive(Clone, Debug)]
pub struct IkeExchange {
    /// The derived SA pair.
    pub sas: SaPair,
    /// Total messages exchanged (phase 1 + phase 2).
    pub messages: u32,
    /// Total CPU time consumed across both endpoints, ns.
    cpu_ns: u64,
}

fn derive(a: u64, b: u64, salt: u64) -> u64 {
    // Commutative mixing so both sides derive the same secret (DH stand-in).
    let s = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut x = s ^ salt;
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

/// Runs the two-phase exchange and derives the SA pair.
pub fn establish(p: IkeProposal) -> IkeExchange {
    let shared = derive(p.initiator_secret, p.responder_secret, 0);
    let enc_i2r = derive(shared, 1, 0x0101);
    let auth_i2r = derive(shared, 1, 0x0202);
    let enc_r2i = derive(shared, 2, 0x0101);
    let auth_r2i = derive(shared, 2, 0x0202);
    let out_sa = SecurityAssociation::new(p.spi_base, enc_i2r, auth_i2r);
    let in_sa = SecurityAssociation::new(p.spi_base + 1, enc_r2i, auth_r2i);
    IkeExchange {
        sas: SaPair { out_sa, in_sa },
        messages: PHASE1_MESSAGES + PHASE2_MESSAGES,
        cpu_ns: 2 * (PHASE1_CPU_NS + PHASE2_CPU_NS),
    }
}

impl IkeExchange {
    /// Wall-clock setup latency for a given one-way network delay: each
    /// message traverses the path once, plus each endpoint's CPU time.
    pub fn setup_latency_ns(&self, one_way_delay_ns: u64) -> u64 {
        u64::from(self.messages) * one_way_delay_ns + self.cpu_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_directions_get_distinct_sas() {
        let x =
            establish(IkeProposal { initiator_secret: 11, responder_secret: 22, spi_base: 0x500 });
        assert_ne!(x.sas.out_sa.spi, x.sas.in_sa.spi);
        assert_ne!(x.sas.out_sa.enc_key, x.sas.in_sa.enc_key);
        assert_ne!(x.sas.out_sa.enc_key, x.sas.out_sa.auth_key);
    }

    #[test]
    fn derivation_is_symmetric_in_secrets() {
        // Either side computing with the same pair of secrets agrees.
        let a = establish(IkeProposal { initiator_secret: 5, responder_secret: 7, spi_base: 1 });
        let b = establish(IkeProposal { initiator_secret: 7, responder_secret: 5, spi_base: 1 });
        assert_eq!(a.sas.out_sa.enc_key, b.sas.out_sa.enc_key);
    }

    #[test]
    fn message_and_cost_shape() {
        let x = establish(IkeProposal { initiator_secret: 1, responder_secret: 2, spi_base: 1 });
        assert_eq!(x.messages, 9);
        assert!(x.cpu_ns > 2 * PHASE1_CPU_NS);
        // 10 ms one-way: 9 messages in flight + CPU.
        let lat = x.setup_latency_ns(10_000_000);
        assert!(lat > 90_000_000);
    }

    #[test]
    fn sas_interoperate_with_esp() {
        use netsim_net::addr::ip;
        use netsim_net::{Dscp, Packet};
        let x =
            establish(IkeProposal { initiator_secret: 3, responder_secret: 9, spi_base: 0x700 });
        let mut tx = x.sas.out_sa.clone();
        let mut rx = x.sas.out_sa.clone();
        let inner = Packet::udp(ip("10.0.0.1"), ip("10.0.0.2"), 1, 2, Dscp::AF21, 99);
        let outer = crate::esp::encapsulate(&inner, &mut tx, ip("1.1.1.1"), ip("2.2.2.2"));
        let got = crate::esp::decapsulate(&outer, &mut rx).unwrap();
        assert_eq!(got.layers(), inner.layers());
    }
}
