//! Pins the length of an ESP tunnel packet, the one property of ESP the
//! experiments read: the outer packet's size on the wire, and the ESP body
//! (the bytes past the outer IPv4 and ESP headers) that the gateways charge
//! `CryptoCostModel` on.
//!
//! RFC 4303 §2: the body is an 8-byte IV, then the inner packet (a 2-byte
//! frame type ahead of its headers and payload) and the 2-byte pad length /
//! next header trailer, padded to the 8-byte block, then an 8-byte ICV.

use netsim_ipsec::{encapsulate, CryptoCostModel, SecurityAssociation};
use netsim_net::addr::ip;
use netsim_net::{Dscp, Layer, MplsLabel, Packet};

const IV: usize = 8;
const BLOCK: usize = 8;
const ICV: usize = 8;
const FRAME_TYPE: usize = 2;
const TRAILER: usize = 2;
/// Outer IPv4 (20) plus ESP header (8).
const OUTER_HEADERS: usize = 28;

fn body_len(inner: &Packet) -> usize {
    IV + (FRAME_TYPE + inner.wire_len() + TRAILER).next_multiple_of(BLOCK) + ICV
}

/// Seals `inner` under `sa` and returns the charged ESP body length after
/// checking it and the outer wire length against RFC 4303 §2.
fn sealed_body(inner: &Packet, sa: &mut SecurityAssociation) -> usize {
    let outer = encapsulate(inner, sa, ip("198.51.100.1"), ip("198.51.100.2"));
    let headers: usize = outer.layers().iter().map(Layer::wire_len).sum();
    assert_eq!(headers, OUTER_HEADERS, "outer IPv4 + ESP");
    let body = outer.wire_len() - headers;
    assert_eq!(body, body_len(inner), "ESP body of a {}-byte inner packet", inner.wire_len());
    assert_eq!((body - IV - ICV) % BLOCK, 0, "block-aligned");
    body
}

fn sa(copy_dscp: bool) -> SecurityAssociation {
    let sa = SecurityAssociation::new(0x3000, 0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210);
    if copy_dscp {
        sa.with_dscp_copy()
    } else {
        sa
    }
}

#[test]
fn sealed_length_follows_rfc4303_for_every_inner_size() {
    for copy_dscp in [false, true] {
        let mut sa = sa(copy_dscp);
        for len in 0..=1500 {
            let udp = Packet::udp(ip("10.1.0.5"), ip("10.2.0.9"), 16000, 16400, Dscp::EF, len);
            sealed_body(&udp, &mut sa);
            let tcp = Packet::tcp(ip("10.1.0.5"), ip("10.2.0.9"), 4000, 80, Dscp::AF11, 7, len);
            sealed_body(&tcp, &mut sa);
        }
    }
}

#[test]
fn a_voice_packet_seals_to_236_bytes_and_is_charged_on_208() {
    // 160 B of voice in UDP: 188 B inner, 2 + 188 + 2 = 192 padded, plus
    // IV and ICV is a 208-byte body behind 28 bytes of outer headers.
    for copy_dscp in [false, true] {
        let inner = Packet::udp(ip("10.1.0.5"), ip("10.2.0.9"), 16000, 16400, Dscp::EF, 160);
        let mut sa = sa(copy_dscp);
        let outer = encapsulate(&inner, &mut sa, ip("198.51.100.1"), ip("198.51.100.2"));
        assert_eq!(outer.wire_len(), 236);
        assert_eq!(sealed_body(&inner, &mut sa), 208);
        assert_eq!(CryptoCostModel::default().cost_ns(208), 20_000 + 50 * 208);
        let want = if copy_dscp { Dscp::EF } else { Dscp::BE };
        assert_eq!(outer.dscp(), Some(want), "ToS copy changes the class, not the length");
    }
}

#[test]
fn a_labelled_inner_packet_seals_with_its_label() {
    let mut inner = Packet::udp(ip("10.1.0.5"), ip("10.2.0.9"), 5000, 53, Dscp::AF41, 100);
    inner.push_outer(Layer::Mpls(MplsLabel::new(1000, 4, 64)));
    assert_eq!(inner.wire_len(), 4 + 20 + 8 + 100);
    for copy_dscp in [false, true] {
        // 2 + 132 + 2 = 136, already a block multiple.
        assert_eq!(sealed_body(&inner, &mut sa(copy_dscp)), 8 + 136 + 8);
    }
}
