//! Property-based tests for the packet substrate: the cached wire length,
//! prefix algebra, and LPM trie correctness against a naive model.

use netsim_net::ip::proto;
use netsim_net::packet::EspHeader;
use netsim_net::transport::{TcpHeader, UdpHeader};
use netsim_net::{Dscp, Ip, Ipv4Header, Layer, LpmTrie, MplsLabel, Packet, Prefix};
use proptest::prelude::*;

fn arb_ip() -> impl Strategy<Value = Ip> {
    any::<u32>().prop_map(Ip)
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(a, l)| Prefix::new(Ip(a), l))
}

fn arb_dscp() -> impl Strategy<Value = Dscp> {
    (0u8..64).prop_map(Dscp::new)
}

fn arb_payload() -> impl Strategy<Value = usize> {
    0usize..256
}

/// Generates structurally valid packets: an optional MPLS stack, an IPv4
/// chain (possibly IP-in-IP), and a transport or ESP tail.
fn arb_packet() -> impl Strategy<Value = Packet> {
    let transport = prop_oneof![
        (any::<u16>(), any::<u16>())
            .prop_map(|(s, d)| (proto::UDP, Some(Layer::Udp(UdpHeader::new(s, d))))),
        (any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>(), any::<u8>()).prop_map(
            |(s, d, seq, ack, flags)| {
                (
                    proto::TCP,
                    Some(Layer::Tcp(TcpHeader { src_port: s, dst_port: d, seq, ack, flags })),
                )
            }
        ),
        (any::<u32>(), any::<u32>())
            .prop_map(|(spi, seq)| (proto::ESP, Some(Layer::Esp(EspHeader { spi, seq })))),
        // An experimental protocol number with no modelled transport.
        Just((253, None)),
    ];
    (
        arb_ip(),
        arb_ip(),
        arb_dscp(),
        1u8..=255,
        transport,
        arb_payload(),
        proptest::collection::vec((0u32..(1 << 20), 0u8..8, 1u8..=255), 0..4),
        proptest::option::of((arb_ip(), arb_ip(), arb_dscp())),
    )
        .prop_map(|(src, dst, dscp, ttl, (pr, tl), payload, labels, outer_ip)| {
            let mut ip_hdr = Ipv4Header::new(src, dst, pr, dscp);
            ip_hdr.ttl = ttl;
            let mut layers = vec![Layer::Ipv4(ip_hdr)];
            if let Some(l) = tl {
                layers.push(l);
            }
            if let Some((osrc, odst, odscp)) = outer_ip {
                layers.insert(0, Layer::Ipv4(Ipv4Header::new(osrc, odst, 4, odscp)));
            }
            let mut pkt = Packet::new(layers, payload);
            for (label, exp, lttl) in labels {
                pkt.push_outer(Layer::Mpls(MplsLabel::new(label, exp, lttl)));
            }
            pkt
        })
}

proptest! {
    #[test]
    fn prefix_contains_matches_mask_math(p in arb_prefix(), a in arb_ip()) {
        let expected = p.len() == 0 || (a.0 ^ p.addr().0) >> (32 - u32::from(p.len())) == 0;
        prop_assert_eq!(p.contains(a), expected);
    }

    #[test]
    fn prefix_display_parse_roundtrip(p in arb_prefix()) {
        let s = p.to_string();
        prop_assert_eq!(s.parse::<Prefix>().unwrap(), p);
    }

    #[test]
    fn prefix_overlap_is_symmetric_and_containment_implies_overlap(a in arb_prefix(), b in arb_prefix()) {
        prop_assert_eq!(a.overlaps(b), b.overlaps(a));
        if a.contains(b.addr()) || b.contains(a.addr()) {
            prop_assert!(a.overlaps(b));
        }
    }

    /// The trie must agree with a naive "scan all prefixes, keep the longest
    /// match" model, for both present and absent addresses.
    #[test]
    fn lpm_matches_naive_model(
        entries in proptest::collection::vec((arb_prefix(), any::<u16>()), 0..64),
        queries in proptest::collection::vec(arb_ip(), 0..32),
    ) {
        let mut trie = LpmTrie::new();
        // Later inserts win for duplicate prefixes, like the model below.
        let mut model: Vec<(Prefix, u16)> = Vec::new();
        for (p, v) in &entries {
            trie.insert(*p, *v);
            model.retain(|(q, _)| q != p);
            model.push((*p, *v));
        }
        prop_assert_eq!(trie.len(), model.len());
        for q in queries {
            let want = model
                .iter()
                .filter(|(p, _)| p.contains(q))
                .max_by_key(|(p, _)| p.len())
                .map(|(_, v)| *v);
            prop_assert_eq!(trie.lookup(q).copied(), want);
        }
    }

    /// Insert-then-remove leaves lookups as if the entry never existed.
    #[test]
    fn lpm_remove_restores(
        base in proptest::collection::vec((arb_prefix(), any::<u16>()), 0..32),
        extra in arb_prefix(),
        queries in proptest::collection::vec(arb_ip(), 0..16),
    ) {
        let mut reference = LpmTrie::new();
        for (p, v) in &base {
            reference.insert(*p, *v);
        }
        let mut subject = LpmTrie::new();
        for (p, v) in &base {
            subject.insert(*p, *v);
        }
        let displaced = subject.insert(extra, 0xFFFF);
        let removed = subject.remove(extra);
        prop_assert_eq!(removed, Some(0xFFFF));
        if let Some(old) = displaced {
            subject.insert(extra, old);
        }
        for q in queries {
            prop_assert_eq!(subject.lookup(q), reference.lookup(q));
        }
    }

    #[test]
    fn lpm_iter_roundtrip(entries in proptest::collection::vec((arb_prefix(), any::<u16>()), 0..48)) {
        let mut trie = LpmTrie::new();
        let mut model: Vec<(Prefix, u16)> = Vec::new();
        for (p, v) in &entries {
            trie.insert(*p, *v);
            model.retain(|(q, _)| q != p);
            model.push((*p, *v));
        }
        let mut got: Vec<(Prefix, u16)> = trie.iter().map(|(p, v)| (p, *v)).collect();
        got.sort();
        model.sort();
        prop_assert_eq!(got, model);
    }

    /// The packet's reported wire length must equal the sum of its layers'
    /// header sizes plus the payload — through every representation the
    /// inline small-vector stack can take. Pushing up to six extra labels
    /// forces the inline→heap spill; popping everything walks back through
    /// the boundary. This pins the O(1) cached header length to the ground
    /// truth at each step.
    #[test]
    fn wire_len_is_sum_of_layers_plus_payload(
        pkt in arb_packet(),
        extra in proptest::collection::vec((0u32..(1 << 20), 0u8..8, 1u8..=255), 0..6),
    ) {
        fn ground_truth(p: &Packet) -> usize {
            p.layers().iter().map(Layer::wire_len).sum::<usize>() + p.payload_len as usize
        }
        let mut pkt = pkt;
        prop_assert_eq!(pkt.wire_len(), ground_truth(&pkt));
        for (label, exp, ttl) in extra {
            pkt.push_outer(Layer::Mpls(MplsLabel::new(label, exp, ttl)));
            prop_assert_eq!(pkt.wire_len(), ground_truth(&pkt));
        }
        while pkt.pop_outer().is_some() {
            prop_assert_eq!(pkt.wire_len(), ground_truth(&pkt));
        }
        prop_assert_eq!(pkt.wire_len(), pkt.payload_len as usize);
    }
}
