//! The structured packet model shared by the whole emulator.
//!
//! A [`Packet`] is a stack of [`Layer`]s (outermost first) over a payload
//! that is only a length: every figure the emulator produces reads sizes,
//! never payload bytes. Routers push/pop/swap layers without any byte-level
//! work. An ESP packet carries its inner packet as a [`Sealed`] record that
//! only the security association's SPI, sequence number and keys open.

use crate::addr::Ip;
use crate::dscp::Dscp;
use crate::ip::{proto, Ipv4Header, IPV4_HEADER_LEN};
use crate::mpls::{MplsLabel, MPLS_ENTRY_LEN};
use crate::transport::{FiveTuple, TcpHeader, UdpHeader, TCP_HEADER_LEN, UDP_HEADER_LEN};

/// An ESP header (RFC 2406): security parameters index plus sequence number.
/// The ESP body (IV, padded inner packet, trailer, ICV) travels as the
/// packet's payload length, and the inner packet as its [`Sealed`] record;
/// only `netsim-ipsec` can look inside.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EspHeader {
    /// Security parameters index identifying the SA at the receiver.
    pub spi: u32,
    /// Anti-replay sequence number.
    pub seq: u32,
}

/// Size in bytes of the ESP header on the wire.
pub const ESP_HEADER_LEN: usize = 8;

/// One protocol layer of a packet, outermost first in [`Packet::layers`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Layer {
    /// One MPLS label stack entry (multiple entries = multiple layers).
    Mpls(MplsLabel),
    /// An IPv4 header. May appear twice (IP-in-IP tunnel baseline).
    Ipv4(Ipv4Header),
    /// UDP ports.
    Udp(UdpHeader),
    /// TCP subset.
    Tcp(TcpHeader),
    /// ESP: everything beneath is sealed in [`Packet::sealed`].
    Esp(EspHeader),
}

impl Layer {
    /// On-wire size of this layer's header in bytes.
    #[inline]
    pub fn wire_len(&self) -> usize {
        match self {
            Layer::Mpls(_) => MPLS_ENTRY_LEN,
            Layer::Ipv4(_) => IPV4_HEADER_LEN,
            Layer::Udp(_) => UDP_HEADER_LEN,
            Layer::Tcp(_) => TCP_HEADER_LEN,
            Layer::Esp(_) => ESP_HEADER_LEN,
        }
    }
}

/// Simulation metadata riding along with a packet. Not part of the wire
/// form; used by the statistics machinery to compute latency, jitter and
/// loss without embedding timestamps in payloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PktMeta {
    /// Flow identifier assigned by the traffic generator.
    pub flow: u64,
    /// Per-flow sequence number.
    pub seq: u64,
    /// Simulation time (ns) at which the packet was created.
    pub created_ns: u64,
    /// Whether this packet belongs to a synthetic SLA probe flow. Probe
    /// packets must experience the network exactly as data does, except
    /// that edge marking policies leave their DSCP alone (the probe *is*
    /// the class being measured).
    pub probe: bool,
}

/// A heap-boxed packet: the form in which packets travel through queues,
/// the event calendar, and node handlers. Hot-path code moves this 8-byte
/// handle instead of the [`Packet`] itself (136 bytes on 64-bit targets);
/// the one allocation happens at the traffic source and the box is reused
/// unchanged across every hop until the sink frees it. `Packet: Into<Pkt>`
/// (via the blanket `From<T> for Box<T>`), so construction sites can stay
/// oblivious.
pub type Pkt = Box<Packet>;

/// Inline capacity of a packet's layer stack. VPN-path stacks are at most
/// four deep (MPLS×2 / IPv4 / UDP), so the common case never touches the
/// heap; deeper stacks (nested tunnels) spill to a vector.
const INLINE_LAYERS: usize = 4;

/// Placeholder occupying unused inline slots; never observable through the
/// public API, which only exposes the live prefix.
const FILL: Layer = Layer::Mpls(MplsLabel { label: 0, exp: 0, ttl: 0 });

/// Layer storage: a fixed inline array up to [`INLINE_LAYERS`] deep, or a
/// heap vector beyond that. Both variants keep the stack contiguous so
/// accessors can hand out plain slices.
#[derive(Clone)]
enum LayerStack {
    Inline { len: u8, buf: [Layer; INLINE_LAYERS] },
    Heap(Vec<Layer>),
}

impl LayerStack {
    fn pair(a: Layer, b: Layer) -> Self {
        LayerStack::Inline { len: 2, buf: [a, b, FILL, FILL] }
    }

    #[inline]
    fn as_slice(&self) -> &[Layer] {
        match self {
            LayerStack::Inline { len, buf } => &buf[..*len as usize],
            LayerStack::Heap(v) => v,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [Layer] {
        match self {
            LayerStack::Inline { len, buf } => &mut buf[..*len as usize],
            LayerStack::Heap(v) => v,
        }
    }

    fn push_front(&mut self, layer: Layer) {
        match self {
            LayerStack::Inline { len, buf } => {
                let n = *len as usize;
                if n < INLINE_LAYERS {
                    buf.copy_within(0..n, 1);
                    buf[0] = layer;
                    *len += 1;
                } else {
                    // Spill; a stack that has gone deep once stays on the
                    // heap for the rest of its life.
                    let mut v = Vec::with_capacity(INLINE_LAYERS * 2);
                    v.push(layer);
                    v.extend_from_slice(buf);
                    *self = LayerStack::Heap(v);
                }
            }
            LayerStack::Heap(v) => v.insert(0, layer),
        }
    }

    fn pop_front(&mut self) -> Option<Layer> {
        match self {
            LayerStack::Inline { len, buf } => {
                if *len == 0 {
                    return None;
                }
                let out = buf[0];
                buf.copy_within(1..*len as usize, 0);
                *len -= 1;
                Some(out)
            }
            LayerStack::Heap(v) => {
                if v.is_empty() {
                    None
                } else {
                    Some(v.remove(0))
                }
            }
        }
    }
}

impl From<Vec<Layer>> for LayerStack {
    fn from(v: Vec<Layer>) -> Self {
        if v.len() <= INLINE_LAYERS {
            let mut buf = [FILL; INLINE_LAYERS];
            buf[..v.len()].copy_from_slice(&v);
            LayerStack::Inline { len: v.len() as u8, buf }
        } else {
            LayerStack::Heap(v)
        }
    }
}

/// An ESP packet's inner packet, sealed under its security association.
///
/// It stands in for the ciphertext of RFC 4303: the fields are private, and
/// the one way back to the inner packet, [`Sealed::unseal`], takes the SPI,
/// sequence number and keys it was sealed under. Only `netsim-ipsec`'s
/// `decapsulate` calls it, so no code without the SA reaches the inner
/// headers. Its length on the wire is the outer packet's payload length.
#[derive(Clone, PartialEq)]
pub struct Sealed {
    inner: Packet,
    spi: u32,
    seq: u32,
    keys: (u64, u64),
}

impl Sealed {
    /// Seals `inner` under the SA's `spi`, the packet's `seq` and the SA's
    /// encryption and authentication keys.
    pub fn new(inner: Packet, spi: u32, seq: u32, enc_key: u64, auth_key: u64) -> Self {
        Sealed { inner, spi, seq, keys: (enc_key, auth_key) }
    }

    /// The inner packet, if `spi`, `seq` and the keys are the ones it was
    /// sealed under: a wrong key or a forged ESP header does not open it.
    pub fn unseal(&self, spi: u32, seq: u32, enc_key: u64, auth_key: u64) -> Option<&Packet> {
        (self.spi == spi && self.seq == seq && self.keys == (enc_key, auth_key))
            .then_some(&self.inner)
    }
}

impl std::fmt::Debug for Sealed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sealed").finish_non_exhaustive()
    }
}

/// A packet: layered headers over a payload length.
#[derive(Clone)]
pub struct Packet {
    layers: LayerStack,
    /// Cached sum of the layers' header bytes; maintained by every method
    /// that alters the stack so [`Packet::wire_len`] is O(1). Payload bytes
    /// are not included (the payload length is public and may be changed).
    hdr_len: u32,
    /// Application payload bytes (the ESP body when the packet carries a
    /// [`Sealed`] inner packet).
    pub payload_len: u32,
    /// The inner packet of an ESP packet; `None` for every other packet.
    pub sealed: Option<Box<Sealed>>,
    /// Simulation metadata (never serialized).
    pub meta: PktMeta,
}

impl PartialEq for Packet {
    fn eq(&self, other: &Self) -> bool {
        self.layers() == other.layers()
            && self.payload_len == other.payload_len
            && self.sealed == other.sealed
            && self.meta == other.meta
    }
}

impl std::fmt::Debug for Packet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Packet")
            .field("layers", &self.layers())
            .field("payload_len", &self.payload_len)
            .field("sealed", &self.sealed)
            .field("meta", &self.meta)
            .finish()
    }
}

impl Packet {
    /// Creates a packet from layers (outermost first) and a payload length.
    pub fn new(layers: Vec<Layer>, payload_len: usize) -> Self {
        let hdr_len = layers.iter().map(Layer::wire_len).sum::<usize>() as u32;
        Packet {
            layers: layers.into(),
            hdr_len,
            payload_len: payload_len as u32,
            sealed: None,
            meta: PktMeta::default(),
        }
    }

    /// Convenience: a UDP datagram with `payload_len` bytes of payload.
    pub fn udp(
        src: Ip,
        dst: Ip,
        src_port: u16,
        dst_port: u16,
        dscp: Dscp,
        payload_len: usize,
    ) -> Self {
        Packet {
            layers: LayerStack::pair(
                Layer::Ipv4(Ipv4Header::new(src, dst, proto::UDP, dscp)),
                Layer::Udp(UdpHeader::new(src_port, dst_port)),
            ),
            hdr_len: (IPV4_HEADER_LEN + UDP_HEADER_LEN) as u32,
            payload_len: payload_len as u32,
            sealed: None,
            meta: PktMeta::default(),
        }
    }

    /// Convenience: a TCP segment with `payload_len` bytes of payload.
    pub fn tcp(
        src: Ip,
        dst: Ip,
        src_port: u16,
        dst_port: u16,
        dscp: Dscp,
        seq: u32,
        payload_len: usize,
    ) -> Self {
        Packet {
            layers: LayerStack::pair(
                Layer::Ipv4(Ipv4Header::new(src, dst, proto::TCP, dscp)),
                Layer::Tcp(TcpHeader::new(src_port, dst_port, seq)),
            ),
            hdr_len: (IPV4_HEADER_LEN + TCP_HEADER_LEN) as u32,
            payload_len: payload_len as u32,
            sealed: None,
            meta: PktMeta::default(),
        }
    }

    /// The layer stack, outermost first.
    #[inline]
    pub fn layers(&self) -> &[Layer] {
        self.layers.as_slice()
    }

    /// The outermost layer, if any.
    #[inline]
    pub fn outer(&self) -> Option<&Layer> {
        self.layers().first()
    }

    /// Mutable access to the outermost layer.
    #[inline]
    pub fn outer_mut(&mut self) -> Option<&mut Layer> {
        self.layers.as_mut_slice().first_mut()
    }

    /// Pushes a new outermost layer (encapsulation).
    #[inline]
    pub fn push_outer(&mut self, layer: Layer) {
        self.hdr_len += layer.wire_len() as u32;
        self.layers.push_front(layer);
    }

    /// Removes and returns the outermost layer (decapsulation).
    #[inline]
    pub fn pop_outer(&mut self) -> Option<Layer> {
        let popped = self.layers.pop_front();
        if let Some(l) = &popped {
            self.hdr_len -= l.wire_len() as u32;
        }
        popped
    }

    /// Total on-wire size in bytes: all layer headers plus the payload.
    /// This is the size links charge when serializing the packet.
    ///
    /// O(1): header bytes are cached across push/pop. The debug assert
    /// catches the one way the cache could rot — replacing a layer with a
    /// different *variant* through [`Packet::outer_mut`] (in-place header
    /// field edits, the intended use, keep the variant and its size).
    #[inline]
    pub fn wire_len(&self) -> usize {
        debug_assert_eq!(
            self.hdr_len as usize,
            self.layers().iter().map(Layer::wire_len).sum::<usize>(),
            "cached header length diverged from the layer stack",
        );
        self.hdr_len as usize + self.payload_len as usize
    }

    /// The outermost MPLS label entry, if the packet is currently labeled.
    #[inline]
    pub fn top_label(&self) -> Option<MplsLabel> {
        match self.outer() {
            Some(Layer::Mpls(l)) => Some(*l),
            _ => None,
        }
    }

    /// Number of MPLS entries at the top of the stack.
    pub fn label_depth(&self) -> usize {
        self.layers().iter().take_while(|l| matches!(l, Layer::Mpls(_))).count()
    }

    /// The first (outermost) IPv4 header, skipping any MPLS encapsulation.
    pub fn outer_ipv4(&self) -> Option<&Ipv4Header> {
        self.layers().iter().find_map(|l| match l {
            Layer::Ipv4(h) => Some(h),
            _ => None,
        })
    }

    /// Mutable access to the first IPv4 header.
    pub fn outer_ipv4_mut(&mut self) -> Option<&mut Ipv4Header> {
        self.layers.as_mut_slice().iter_mut().find_map(|l| match l {
            Layer::Ipv4(h) => Some(h),
            _ => None,
        })
    }

    /// The classification 5-tuple *as visible at this point in the network*:
    /// computed from the outermost IPv4 header and the layer that follows
    /// it. For an ESP packet this yields `protocol = 50` with zero ports —
    /// exactly the information loss the paper describes (§3).
    pub fn visible_five_tuple(&self) -> Option<FiveTuple> {
        let layers = self.layers();
        let idx = layers.iter().position(|l| matches!(l, Layer::Ipv4(_)))?;
        let Layer::Ipv4(ip) = &layers[idx] else { unreachable!() };
        let (src_port, dst_port) = match layers.get(idx + 1) {
            Some(Layer::Udp(u)) => (u.src_port, u.dst_port),
            Some(Layer::Tcp(t)) => (t.src_port, t.dst_port),
            _ => (0, 0),
        };
        Some(FiveTuple { src: ip.src, dst: ip.dst, protocol: ip.protocol, src_port, dst_port })
    }

    /// The DSCP of the outermost IPv4 header, if any.
    #[inline]
    pub fn dscp(&self) -> Option<Dscp> {
        self.outer_ipv4().map(|h| h.dscp)
    }

    /// The class of service (0–7) the packet is queued and counted in: the
    /// top label's EXP if it is labelled, else the outer IPv4 DSCP folded
    /// by [`Dscp::default_exp`], else 0. Every scheduler band, per-class
    /// link counter and bypass label push reads the class here.
    #[inline]
    pub fn class(&self) -> u8 {
        match self.outer() {
            Some(Layer::Mpls(l)) => l.exp & 7,
            _ => self.dscp().map_or(0, Dscp::default_exp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::ip;

    impl Packet {
        /// The innermost IPv4 header — the customer packet inside any tunnels.
        /// Note this cannot see through ESP: a sealed inner packet is *not*
        /// visible here, by design.
        fn inner_ipv4(&self) -> Option<&Ipv4Header> {
            self.layers().iter().rev().find_map(|l| match l {
                Layer::Ipv4(h) => Some(h),
                _ => None,
            })
        }
    }

    fn sample() -> Packet {
        Packet::udp(ip("10.0.0.1"), ip("10.0.0.2"), 5000, 53, Dscp::EF, 100)
    }

    #[test]
    fn udp_packet_shape() {
        let p = sample();
        assert_eq!(p.layers().len(), 2);
        assert_eq!(p.wire_len(), 20 + 8 + 100);
        assert_eq!(p.dscp(), Some(Dscp::EF));
    }

    #[test]
    fn push_pop_label() {
        let mut p = sample();
        p.push_outer(Layer::Mpls(MplsLabel::new(100, 5, 64)));
        p.push_outer(Layer::Mpls(MplsLabel::new(200, 5, 64)));
        assert_eq!(p.label_depth(), 2);
        assert_eq!(p.top_label().unwrap().label, 200);
        assert_eq!(p.wire_len(), 8 + 20 + 8 + 100);
        assert_eq!(p.pop_outer(), Some(Layer::Mpls(MplsLabel::new(200, 5, 64))));
        assert_eq!(p.label_depth(), 1);
    }

    #[test]
    fn class_is_top_exp_else_dscp_fold() {
        let mut p = sample();
        assert_eq!(p.class(), 5, "EF folds to 5");
        p.push_outer(Layer::Mpls(MplsLabel::new(9, 3, 1)));
        assert_eq!(p.class(), 3, "a label's EXP wins over the DSCP");
        assert_eq!(Packet::new(Vec::new(), 10).class(), 0, "no header: best effort");
    }

    #[test]
    fn five_tuple_sees_ports_without_tunnel() {
        let p = sample();
        let t = p.visible_five_tuple().unwrap();
        assert_eq!(t.src_port, 5000);
        assert_eq!(t.dst_port, 53);
        assert_eq!(t.protocol, proto::UDP);
    }

    #[test]
    fn five_tuple_blind_behind_esp() {
        // Outer IP + ESP: the visible 5-tuple must not expose inner ports.
        let p = Packet::new(
            vec![
                Layer::Ipv4(Ipv4Header::new(ip("1.1.1.1"), ip("2.2.2.2"), proto::ESP, Dscp::BE)),
                Layer::Esp(EspHeader { spi: 7, seq: 1 }),
            ],
            64,
        );
        let t = p.visible_five_tuple().unwrap();
        assert_eq!(t.protocol, proto::ESP);
        assert_eq!((t.src_port, t.dst_port), (0, 0));
    }

    #[test]
    fn inner_vs_outer_ipv4() {
        let mut p = sample();
        let inner_dst = p.inner_ipv4().unwrap().dst;
        p.push_outer(Layer::Ipv4(Ipv4Header::new(
            ip("100.0.0.1"),
            ip("100.0.0.2"),
            4, // IP-in-IP (RFC 2003)
            Dscp::BE,
        )));
        assert_eq!(p.inner_ipv4().unwrap().dst, inner_dst);
        assert_eq!(p.outer_ipv4().unwrap().dst, ip("100.0.0.2"));
    }

    #[test]
    fn deep_stack_spills_to_heap_and_back_pops_in_order() {
        // Push four labels over IPv4+UDP: exceeds the inline capacity, so
        // the stack spills; every accessor must behave identically.
        let mut p = sample();
        for i in 0..4u32 {
            p.push_outer(Layer::Mpls(MplsLabel::new(100 + i, 0, 64)));
        }
        assert_eq!(p.layers().len(), 6);
        assert_eq!(p.label_depth(), 4);
        assert_eq!(p.top_label().unwrap().label, 103);
        assert_eq!(p.wire_len(), 4 * 4 + 20 + 8 + 100);
        assert_eq!(p.inner_ipv4().unwrap().dst, ip("10.0.0.2"));
        for i in (0..4u32).rev() {
            assert_eq!(p.pop_outer(), Some(Layer::Mpls(MplsLabel::new(100 + i, 0, 64))));
        }
        assert_eq!(p, sample(), "fully decapsulated packet equals the original");
    }

    #[test]
    fn inline_and_heap_packets_compare_by_live_layers_only() {
        // Drive `b` past the inline capacity so it spills, then strip it
        // back down: it must compare equal to the never-spilled `a` and
        // render no trace of the popped layers.
        let a = sample();
        let mut b = sample();
        for i in 0..3u32 {
            b.push_outer(Layer::Mpls(MplsLabel::new(i, 0, 64)));
        }
        assert_ne!(a, b);
        for _ in 0..3 {
            b.pop_outer();
        }
        assert_eq!(a, b);
        assert_eq!(format!("{b:?}").matches("Mpls").count(), 0);
    }

    #[test]
    fn mpls_then_ipv4_outer_lookup_skips_labels() {
        let mut p = sample();
        p.push_outer(Layer::Mpls(MplsLabel::new(42, 0, 64)));
        assert_eq!(p.outer_ipv4().unwrap().dst, ip("10.0.0.2"));
        assert!(p.top_label().is_some());
    }
}
