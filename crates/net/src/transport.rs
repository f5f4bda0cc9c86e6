//! Simplified transport headers (UDP and a TCP subset) plus the 5-tuple used
//! by classifiers.

use crate::addr::Ip;

/// A UDP header (ports only; the emulator needs no length or checksum).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

/// Size in bytes of the UDP header on the wire.
pub const UDP_HEADER_LEN: usize = 8;

impl UdpHeader {
    /// Creates a header.
    pub fn new(src_port: u16, dst_port: u16) -> Self {
        UdpHeader { src_port, dst_port }
    }
}

/// A TCP header subset: ports, sequence numbers and flags. Enough for the
/// emulator's TCP-like bulk sources; congestion control itself is modelled in
/// `netsim-sim`'s generators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Flag bits (FIN=0x01, SYN=0x02, RST=0x04, PSH=0x08, ACK=0x10).
    pub flags: u8,
}

/// Size in bytes of the (option-less) TCP header on the wire.
pub const TCP_HEADER_LEN: usize = 20;

impl TcpHeader {
    /// Creates a data-segment header with the ACK flag set.
    pub fn new(src_port: u16, dst_port: u16, seq: u32) -> Self {
        TcpHeader { src_port, dst_port, seq, ack: 0, flags: 0x10 }
    }
}

/// The classic classification 5-tuple.
///
/// This is what the CPE's CBQ classifier (paper §5) matches on — and exactly
/// what becomes invisible once IPsec ESP encrypts the inner packet (§3),
/// which experiment Q2 measures.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FiveTuple {
    /// Source address.
    pub src: Ip,
    /// Destination address.
    pub dst: Ip,
    /// IP protocol number.
    pub protocol: u8,
    /// Source port (zero when the protocol has no ports).
    pub src_port: u16,
    /// Destination port (zero when the protocol has no ports).
    pub dst_port: u16,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::ip;

    #[test]
    fn five_tuple_equality_is_field_wise() {
        let a = FiveTuple {
            src: ip("10.0.0.1"),
            dst: ip("10.0.0.2"),
            protocol: 17,
            src_port: 4000,
            dst_port: 53,
        };
        let mut b = a;
        assert_eq!(a, b);
        b.dst_port = 80;
        assert_ne!(a, b);
    }

    #[test]
    fn tcp_default_flags_ack() {
        assert_eq!(TcpHeader::new(1, 2, 3).flags, 0x10);
    }
}
