//! ESP tunnel-mode encapsulation and decapsulation.
//!
//! Wire layout of the produced packet:
//!
//! ```text
//! [outer IPv4, proto=50][ESP: spi, seq][payload = IV ‖ E(inner ‖ pad ‖
//!   pad_len ‖ next_hdr) ‖ ICV]
//! ```
//!
//! The inner packet is a *real* wire serialization of the customer packet,
//! so nothing downstream can classify on it — the mechanical core of the
//! paper's §3 observation and of experiment Q2.

use bytes::Bytes;
use netsim_net::ip::proto;
use netsim_net::packet::EspHeader;
use netsim_net::{wire, Dscp, Ip, Ipv4Header, Layer, NetError, Packet};

use crate::auth::{icv, verify, ICV_LEN};
use crate::cipher::{FeistelCipher, BLOCK};
use crate::sa::SecurityAssociation;

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
    /// Integrity check failed (corruption or wrong key).
    BadIcv,
    /// Anti-replay rejected the sequence number.
    Replayed {
        /// The offending sequence number.
        seq: u32,
    },
    /// Padding or trailer was malformed after decryption.
    BadPadding,
    /// The decrypted inner bytes did not parse as a packet.
    BadInner(NetError),
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

/// Encapsulates `inner` in ESP tunnel mode under `sa`, producing the outer
/// packet addressed `outer_src → outer_dst`. Simulation metadata is
/// carried over so measurement survives the tunnel.
pub fn encapsulate(
    inner: &Packet,
    sa: &mut SecurityAssociation,
    outer_src: Ip,
    outer_dst: Ip,
) -> Packet {
    let inner_bytes = wire::encode(inner).expect("inner packet must be encodable");
    let seq = sa.next_seq();

    // Pad to the cipher block: data ‖ 0x00.. ‖ pad_len ‖ next_header(=wire).
    let mut body = inner_bytes;
    let unpadded = body.len() + 2;
    let pad = (BLOCK - unpadded % BLOCK) % BLOCK;
    body.extend(std::iter::repeat_n(0u8, pad));
    body.push(pad as u8);
    body.push(0x04); // next header: IP-in-IP, as tunnel mode uses

    // Deterministic per-packet IV (derived from the sequence number the
    // way many implementations derive from a counter).
    let cipher = FeistelCipher::new(sa.enc_key);
    let iv = cipher.encrypt_block(u64::from(seq) ^ 0xA5A5_5A5A_0F0F_F0F0);
    cipher.cbc_encrypt(iv, &mut body);

    // Payload = IV ‖ ciphertext ‖ ICV(spi‖seq‖iv‖ciphertext).
    let mut payload = Vec::with_capacity(BLOCK + body.len() + ICV_LEN);
    payload.extend_from_slice(&iv.to_be_bytes());
    payload.extend_from_slice(&body);
    let mut auth_scope = Vec::with_capacity(8 + payload.len());
    auth_scope.extend_from_slice(&sa.spi.to_be_bytes());
    auth_scope.extend_from_slice(&seq.to_be_bytes());
    auth_scope.extend_from_slice(&payload);
    payload.extend_from_slice(&icv(sa.auth_key, &auth_scope));

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
        Bytes::from(payload),
    );
    outer.meta = inner.meta;
    outer
}

/// Reverses [`encapsulate`]: verifies integrity, enforces anti-replay,
/// decrypts, and parses the inner packet.
pub fn decapsulate(outer: &Packet, sa: &mut SecurityAssociation) -> Result<Packet, IpsecError> {
    let esp = match (outer.layers().first(), outer.layers().get(1)) {
        (Some(Layer::Ipv4(h)), Some(Layer::Esp(e))) if h.protocol == proto::ESP => *e,
        _ => return Err(IpsecError::NotEsp),
    };
    if esp.spi != sa.spi {
        return Err(IpsecError::WrongSpi { got: esp.spi });
    }
    let payload = &outer.payload;
    if payload.len() < BLOCK + ICV_LEN || !(payload.len() - BLOCK - ICV_LEN).is_multiple_of(BLOCK) {
        return Err(IpsecError::BadPadding);
    }
    let (body, tag) = payload.split_at(payload.len() - ICV_LEN);
    let mut auth_scope = Vec::with_capacity(8 + body.len());
    auth_scope.extend_from_slice(&esp.spi.to_be_bytes());
    auth_scope.extend_from_slice(&esp.seq.to_be_bytes());
    auth_scope.extend_from_slice(body);
    if !verify(sa.auth_key, &auth_scope, tag) {
        return Err(IpsecError::BadIcv);
    }
    // Integrity verified before replay state is touched (RFC 4303 order).
    if !sa.replay.check_and_update(esp.seq) {
        return Err(IpsecError::Replayed { seq: esp.seq });
    }

    let iv = u64::from_be_bytes(body[..BLOCK].try_into().expect("checked length"));
    let mut ct = body[BLOCK..].to_vec();
    let cipher = FeistelCipher::new(sa.enc_key);
    cipher.cbc_decrypt(iv, &mut ct);

    // Strip trailer.
    if ct.len() < 2 {
        return Err(IpsecError::BadPadding);
    }
    let next_hdr = ct[ct.len() - 1];
    let pad_len = ct[ct.len() - 2] as usize;
    if next_hdr != 0x04 || pad_len + 2 > ct.len() {
        return Err(IpsecError::BadPadding);
    }
    let inner_len = ct.len() - 2 - pad_len;
    if !ct[inner_len..ct.len() - 2].iter().all(|&b| b == 0) {
        return Err(IpsecError::BadPadding);
    }
    let mut inner = wire::decode(&ct[..inner_len]).map_err(IpsecError::BadInner)?;
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
        assert_eq!(got.payload, inner().payload);
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
        // The inner header bytes must not appear in the ciphertext.
        let inner_bytes = wire::encode(&inner()).unwrap();
        let hay = &outer.payload[..];
        assert!(
            !hay.windows(8).any(|w| inner_bytes.windows(8).any(|x| x == w)),
            "plaintext leaked into ESP payload"
        );
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
    fn tampering_detected() {
        let (mut tx, mut rx) = (sa(), sa());
        let mut outer = encapsulate(&inner(), &mut tx, ip("100.0.0.1"), ip("100.0.0.2"));
        let mut tampered = outer.payload.to_vec();
        tampered[10] ^= 1;
        outer.payload = Bytes::from(tampered);
        assert_eq!(decapsulate(&outer, &mut rx), Err(IpsecError::BadIcv));
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
