//! ESP tunnel-mode encapsulation and decapsulation.
//!
//! Layout of the produced packet:
//!
//! ```text
//! [outer IPv4, proto=50][ESP: spi, seq] + a body of IV ‖ (inner ‖ pad ‖
//!   pad_len ‖ next_hdr) ‖ ICV bytes, the inner packet sealed under the SA
//! ```
//!
//! The body is a length (RFC 4303 §2), and the inner packet a [`Sealed`]
//! record that only the SA's SPI, sequence number and keys open, so
//! nothing downstream can classify on it — the mechanical core of the
//! paper's §3 observation and of experiment Q2.

use netsim_net::ip::proto;
use netsim_net::packet::EspHeader;
use netsim_net::{Dscp, Ip, Ipv4Header, Layer, Packet, Sealed};

use crate::sa::SecurityAssociation;

/// Bytes of the per-packet initialization vector ahead of the inner packet.
const IV_LEN: usize = 8;
/// The cipher block the padded inner packet fills (a 64-bit block cipher).
const BLOCK: usize = 8;
/// Bytes of the integrity check value behind the inner packet.
const ICV_LEN: usize = 8;
/// Bytes of the frame type (ethertype) ahead of the inner packet's headers.
const FRAME_TYPE_LEN: usize = 2;
/// Bytes of the pad length and next header trailer.
const TRAILER_LEN: usize = 2;

/// Why decapsulation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IpsecError {
    /// The packet is not an outer-IP + ESP packet.
    NotEsp,
    /// The SPI does not match the SA.
    WrongSpi {
        /// SPI found in the packet.
        got: u32,
    },
    /// This SA's keys or the packet's ESP header do not open the sealed
    /// inner packet: what a failed ICV check catches on a real link.
    BadIcv,
    /// Anti-replay rejected the sequence number.
    Replayed {
        /// The offending sequence number.
        seq: u32,
    },
}

/// Per-packet crypto processing cost model, used by the IPsec gateway node
/// to charge CPU time (the paper's §3.1: "performing security functions
/// such as encryption and key exchange are processor intensive").
/// Defaults approximate late-90s software 3DES on a branch-office box:
/// ~20 MB/s bulk, ~20 µs fixed per packet.
#[derive(Clone, Copy, Debug)]
pub struct CryptoCostModel {
    /// Fixed per-packet cost (header handling, ICV), ns.
    per_packet_ns: u64,
    /// Per-byte cost of encrypt/decrypt, ns.
    per_byte_ns: u64,
}

impl Default for CryptoCostModel {
    fn default() -> Self {
        CryptoCostModel { per_packet_ns: 20_000, per_byte_ns: 50 }
    }
}

impl CryptoCostModel {
    /// Processing time charged for a packet of `bytes`.
    pub fn cost_ns(&self, bytes: usize) -> u64 {
        self.per_packet_ns + self.per_byte_ns * bytes as u64
    }
}

/// The ESP body that seals `inner` (RFC 4303 §2): the IV, the inner frame
/// and its trailer padded to the cipher block, and the ICV.
fn body_len(inner: &Packet) -> usize {
    IV_LEN + (FRAME_TYPE_LEN + inner.wire_len() + TRAILER_LEN).next_multiple_of(BLOCK) + ICV_LEN
}

/// Encapsulates `inner` in ESP tunnel mode under `sa`, producing the outer
/// packet addressed `outer_src → outer_dst`. Simulation metadata is
/// carried over so measurement survives the tunnel.
pub fn encapsulate(
    inner: &Packet,
    sa: &mut SecurityAssociation,
    outer_src: Ip,
    outer_dst: Ip,
) -> Packet {
    let seq = sa.next_seq();
    let outer_dscp = if sa.copy_dscp {
        inner.outer_ipv4().map(|h| h.dscp).unwrap_or(Dscp::BE)
    } else {
        Dscp::BE
    };
    let mut outer = Packet::new(
        vec![
            Layer::Ipv4(Ipv4Header::new(outer_src, outer_dst, proto::ESP, outer_dscp)),
            Layer::Esp(EspHeader { spi: sa.spi, seq }),
        ],
        body_len(inner),
    );
    outer.sealed = Some(Box::new(Sealed::new(inner.clone(), sa.spi, seq, sa.enc_key, sa.auth_key)));
    outer.meta = inner.meta;
    outer
}

/// Reverses [`encapsulate`]: checks the SPI, opens the sealed inner packet
/// with the ESP header and the SA's keys, then enforces anti-replay, and
/// returns the inner packet with the outer one's metadata.
pub fn decapsulate(outer: &Packet, sa: &mut SecurityAssociation) -> Result<Packet, IpsecError> {
    let esp = match (outer.layers().first(), outer.layers().get(1)) {
        (Some(Layer::Ipv4(h)), Some(Layer::Esp(e))) if h.protocol == proto::ESP => *e,
        _ => return Err(IpsecError::NotEsp),
    };
    if esp.spi != sa.spi {
        return Err(IpsecError::WrongSpi { got: esp.spi });
    }
    let Some(inner) =
        outer.sealed.as_deref().and_then(|s| s.unseal(esp.spi, esp.seq, sa.enc_key, sa.auth_key))
    else {
        return Err(IpsecError::BadIcv);
    };
    // Integrity verified before replay state is touched (RFC 4303 order).
    if !sa.replay.check_and_update(esp.seq) {
        return Err(IpsecError::Replayed { seq: esp.seq });
    }
    let mut inner = inner.clone();
    inner.meta = outer.meta;
    Ok(inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_net::addr::ip;

    fn sa() -> SecurityAssociation {
        SecurityAssociation::new(0x1001, 0xAAAA_BBBB_CCCC_DDDD, 0x1234_5678_9ABC_DEF0)
    }

    fn inner() -> Packet {
        let mut p = Packet::udp(ip("10.1.0.5"), ip("10.2.0.9"), 16000, 16400, Dscp::EF, 160);
        p.meta.flow = 9;
        p.meta.seq = 3;
        p.meta.created_ns = 777;
        p
    }

    #[test]
    fn roundtrip_preserves_inner_packet_and_meta() {
        let (mut tx, mut rx) = (sa(), sa());
        let outer = encapsulate(&inner(), &mut tx, ip("100.0.0.1"), ip("100.0.0.2"));
        let got = decapsulate(&outer, &mut rx).expect("decap");
        assert_eq!(got.layers(), inner().layers());
        assert_eq!(got.payload_len, inner().payload_len);
        assert_eq!(got.meta.flow, 9);
        assert_eq!(got.meta.created_ns, 777);
    }

    #[test]
    fn outer_packet_hides_inner_fields() {
        let mut tx = sa();
        let outer = encapsulate(&inner(), &mut tx, ip("100.0.0.1"), ip("100.0.0.2"));
        let t = outer.visible_five_tuple().unwrap();
        assert_eq!(t.protocol, proto::ESP);
        assert_eq!((t.src_port, t.dst_port), (0, 0));
        assert_eq!(outer.dscp(), Some(Dscp::BE), "EF marking is gone");
        // No inner header is a layer of the outer packet: it ends at ESP.
        assert!(matches!(outer.layers(), [Layer::Ipv4(_), Layer::Esp(_)]));
    }

    #[test]
    fn dscp_copy_mode_preserves_class_only() {
        let mut tx = sa().with_dscp_copy();
        let outer = encapsulate(&inner(), &mut tx, ip("100.0.0.1"), ip("100.0.0.2"));
        assert_eq!(outer.dscp(), Some(Dscp::EF), "class survives");
        let t = outer.visible_five_tuple().unwrap();
        assert_eq!((t.src_port, t.dst_port), (0, 0), "flow identity still gone");
    }

    #[test]
    fn spi_then_seal_then_replay() {
        let (mut tx, mut rx) = (sa(), sa());
        let outer = encapsulate(&inner(), &mut tx, ip("100.0.0.1"), ip("100.0.0.2"));
        // A forged sequence number does not open, and leaves the replay
        // window as it was: the genuine packet is still accepted once.
        let mut forged = outer.clone();
        let ip_hdr = forged.pop_outer().expect("outer IPv4");
        if let Some(Layer::Esp(e)) = forged.outer_mut() {
            e.seq = 2;
        }
        forged.push_outer(ip_hdr);
        assert_eq!(decapsulate(&forged, &mut rx), Err(IpsecError::BadIcv));
        assert!(decapsulate(&outer, &mut rx).is_ok());
        assert_eq!(decapsulate(&outer, &mut rx), Err(IpsecError::Replayed { seq: 1 }));
        // The SPI is checked first, even on a replayed packet.
        let mut other = SecurityAssociation::new(0x2002, rx.enc_key, rx.auth_key);
        assert_eq!(decapsulate(&outer, &mut other), Err(IpsecError::WrongSpi { got: 0x1001 }));
        // A packet that lost its sealed record opens under no SA.
        let mut emptied = outer;
        emptied.sealed = None;
        assert_eq!(decapsulate(&emptied, &mut sa()), Err(IpsecError::BadIcv));
    }

    #[test]
    fn replay_detected() {
        let (mut tx, mut rx) = (sa(), sa());
        let outer = encapsulate(&inner(), &mut tx, ip("100.0.0.1"), ip("100.0.0.2"));
        assert!(decapsulate(&outer, &mut rx).is_ok());
        assert_eq!(decapsulate(&outer, &mut rx), Err(IpsecError::Replayed { seq: 1 }));
    }

    #[test]
    fn wrong_keys_fail_integrity() {
        let mut tx = sa();
        let mut rx = SecurityAssociation::new(0x1001, 1, 2);
        let outer = encapsulate(&inner(), &mut tx, ip("100.0.0.1"), ip("100.0.0.2"));
        assert_eq!(decapsulate(&outer, &mut rx), Err(IpsecError::BadIcv));
    }

    #[test]
    fn wrong_spi_rejected() {
        let mut tx = sa();
        let mut rx = SecurityAssociation::new(0x9999, tx.enc_key, tx.auth_key);
        let outer = encapsulate(&inner(), &mut tx, ip("100.0.0.1"), ip("100.0.0.2"));
        assert_eq!(decapsulate(&outer, &mut rx), Err(IpsecError::WrongSpi { got: 0x1001 }));
    }

    #[test]
    fn non_esp_packet_rejected() {
        let mut rx = sa();
        assert_eq!(decapsulate(&inner(), &mut rx), Err(IpsecError::NotEsp));
    }

    #[test]
    fn sequence_numbers_advance_per_packet() {
        let (mut tx, mut rx) = (sa(), sa());
        for want_seq in 1..=5u32 {
            let outer = encapsulate(&inner(), &mut tx, ip("1.1.1.1"), ip("2.2.2.2"));
            let Layer::Esp(e) = outer.layers()[1] else { panic!("esp layer") };
            assert_eq!(e.seq, want_seq);
            assert!(decapsulate(&outer, &mut rx).is_ok());
        }
    }

    #[test]
    fn cost_model_scales_with_size() {
        let m = CryptoCostModel::default();
        assert!(m.cost_ns(1500) > m.cost_ns(64));
        assert_eq!(m.cost_ns(0), m.per_packet_ns);
    }
}
