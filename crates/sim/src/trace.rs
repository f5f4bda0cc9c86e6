//! Hop-by-hop packet tracing (experiment F3).
//!
//! A [`Network`](crate::Network) with its [`TraceLog`] enabled records one
//! [`HopRecord`] each time any node sends a packet: which device sent it,
//! on which interface, and what the label stack and markings looked like
//! as it left. Nodes carry no trace state. What a device *did* is not
//! stored: [`TraceLog::path`] derives it as a [`HopOp`] from a packet's
//! consecutive records, and its `Display` renders it only at export.

use std::fmt;

use netsim_net::{Dscp, Layer, Packet};
use netsim_qos::Nanos;

use crate::node::{IfaceId, NodeId};

/// One send observed at one device.
#[derive(Clone, Debug)]
pub struct HopRecord {
    /// Simulation time of the send.
    pub at: Nanos,
    /// Device name (e.g. "PE0", "P2", "CE-siteA"); empty for hosts.
    pub device: String,
    /// Egress interface the packet was sent on.
    pub iface: IfaceId,
    /// MPLS label values outermost-first as the packet left.
    pub labels: Vec<u32>,
    /// EXP of the top label, if labeled.
    pub exp: Option<u8>,
    /// DSCP of the outermost IP header, if visible.
    pub dscp: Option<Dscp>,
    /// Flow the packet belongs to.
    pub flow: u64,
    /// Sequence number of the packet.
    pub seq: u64,
}

/// What a device did to a packet, derived from the packet's record there
/// and its record at the previous device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HopOp {
    /// First send of the packet (its source).
    Originate,
    /// Unlabeled, DSCP rewritten to this value (CPE classification).
    Mark(Dscp),
    /// Labels pushed onto the stack, outermost first.
    Push(Vec<u32>),
    /// Top label swapped: `(old, new)`.
    Swap(u32, u32),
    /// Top label popped, exposing the next one: `(popped, exposed)`.
    Pop(u32, u32),
    /// Every label popped, outermost first (tunnel and VPN label
    /// disposition at the egress PE).
    PopAll(Vec<u32>),
    /// Any other rewrite of the top of the stack: `(old, new)` top
    /// labels above the untouched bottom (e.g. a swap plus a bypass push).
    Relabel(Vec<u32>, Vec<u32>),
    /// Sent on unchanged.
    Forward,
}

impl HopOp {
    /// The operation that turned `prev` (the packet's previous record, or
    /// `None` at its source) into `cur`. Labels both stacks share at the
    /// bottom were left alone; the rest of each stack is what changed.
    /// Every device that sends a labelled packet applies a label
    /// operation, so an unchanged non-empty stack is a swap to the same
    /// label.
    pub fn between(prev: Option<&HopRecord>, cur: &HopRecord) -> HopOp {
        let Some(prev) = prev else {
            return HopOp::Originate;
        };
        let kept = prev
            .labels
            .iter()
            .rev()
            .zip(cur.labels.iter().rev())
            .take_while(|(a, b)| a == b)
            .count();
        let old = &prev.labels[..prev.labels.len() - kept];
        let new = &cur.labels[..cur.labels.len() - kept];
        match (old, new) {
            // An unchanged labelled stack: the LSR looked the top label up
            // and swapped it for the same value.
            ([], []) if !cur.labels.is_empty() => HopOp::Swap(cur.labels[0], cur.labels[0]),
            ([], []) => match cur.dscp {
                Some(d) if cur.dscp != prev.dscp => HopOp::Mark(d),
                _ => HopOp::Forward,
            },
            ([], new) => HopOp::Push(new.to_vec()),
            (&[a], &[b]) => HopOp::Swap(a, b),
            (&[a], []) if kept > 0 => HopOp::Pop(a, cur.labels[0]),
            (old, []) if kept == 0 => HopOp::PopAll(old.to_vec()),
            (old, new) => HopOp::Relabel(old.to_vec(), new.to_vec()),
        }
    }
}

impl fmt::Display for HopOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HopOp::Originate => write!(f, "originate"),
            HopOp::Mark(d) => write!(f, "mark {d}"),
            HopOp::Push(labels) => write!(f, "push {labels:?}"),
            HopOp::Swap(old, new) => write!(f, "swap {old}→{new}"),
            HopOp::Pop(popped, exposed) => write!(f, "pop {popped} (exposing {exposed})"),
            HopOp::PopAll(labels) => write!(f, "pop {labels:?}"),
            HopOp::Relabel(old, new) => write!(f, "relabel {old:?}→{new:?}"),
            HopOp::Forward => write!(f, "forward"),
        }
    }
}

/// Every send recorded so far, in order; owned by the
/// [`Network`](crate::Network) that records it.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    /// Device name of every node, by node index: read from
    /// [`Node::name`](crate::Node::name) when tracing starts, or when a
    /// node is added while it is on.
    devices: Vec<String>,
    records: Vec<HopRecord>,
}

impl TraceLog {
    /// Names the node with the next index.
    pub(crate) fn add_device(&mut self, name: &str) {
        self.devices.push(name.to_owned());
    }

    /// Records a send by `node`: captures the packet's current stack and
    /// markings.
    pub(crate) fn record(&mut self, at: Nanos, node: NodeId, iface: IfaceId, pkt: &Packet) {
        let labels = pkt
            .layers()
            .iter()
            .map_while(|l| match l {
                Layer::Mpls(m) => Some(m.label),
                _ => None,
            })
            .collect();
        self.records.push(HopRecord {
            at,
            device: self.devices[node.0].clone(),
            iface,
            labels,
            exp: pkt.top_label().map(|l| l.exp),
            dscp: pkt.outer_ipv4().map(|h| h.dscp),
            flow: pkt.meta.flow,
            seq: pkt.meta.seq,
        });
    }

    /// Records for one flow, in order.
    pub fn flow(&self, flow: u64) -> Vec<HopRecord> {
        self.records.iter().filter(|r| r.flow == flow).cloned().collect()
    }

    /// The hops of one packet, in order, each with the operation its
    /// device applied.
    pub fn path(&self, flow: u64, seq: u64) -> Vec<(HopOp, HopRecord)> {
        let mut prev = None;
        self.records
            .iter()
            .filter(|r| r.flow == flow && r.seq == seq)
            .map(|r| (HopOp::between(prev.replace(r), r), r.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_net::addr::ip;
    use netsim_net::MplsLabel;

    fn labeled(labels: &[u32]) -> Packet {
        let mut p = Packet::udp(ip("10.0.0.1"), ip("10.0.0.2"), 1, 2, Dscp::EF, 10);
        for &l in labels.iter().rev() {
            p.push_outer(Layer::Mpls(MplsLabel::new(l, 5, 64)));
        }
        p
    }

    #[test]
    fn records_capture_stack_and_markings() {
        let mut log = TraceLog::default();
        log.add_device("CE");
        log.add_device("PE0");
        let mut p = labeled(&[]);
        p.meta.flow = 5;
        log.record(100, NodeId(0), IfaceId(0), &p);
        p.push_outer(Layer::Mpls(MplsLabel::new(17, 5, 64)));
        p.push_outer(Layer::Mpls(MplsLabel::new(102, 5, 64)));
        log.record(200, NodeId(1), IfaceId(2), &p);
        let recs = log.flow(5);
        assert_eq!(recs.len(), 2);
        assert_eq!((recs[0].device.as_str(), recs[1].device.as_str()), ("CE", "PE0"));
        assert_eq!(recs[0].labels, Vec::<u32>::new());
        assert_eq!(recs[0].dscp, Some(Dscp::EF));
        assert_eq!(recs[1].labels, vec![102, 17]);
        assert_eq!(recs[1].exp, Some(5));
        assert_eq!(recs[1].iface, IfaceId(2));
        assert!(log.flow(6).is_empty());
    }

    /// Every operation a device can apply is told apart from the records
    /// alone.
    #[test]
    fn path_derives_every_hop_operation() {
        let mut log = TraceLog::default();
        log.add_device("D");
        let mut host = labeled(&[]);
        host.outer_ipv4_mut().unwrap().dscp = Dscp::BE;
        let steps = [
            (host, HopOp::Originate),
            (labeled(&[]), HopOp::Mark(Dscp::EF)),
            (labeled(&[]), HopOp::Forward),
            (labeled(&[17, 500]), HopOp::Push(vec![17, 500])),
            (labeled(&[16, 500]), HopOp::Swap(17, 16)),
            (labeled(&[500]), HopOp::Pop(16, 500)),
            (labeled(&[]), HopOp::PopAll(vec![500])),
            (labeled(&[30, 500]), HopOp::Push(vec![30, 500])),
            (labeled(&[900, 31, 500]), HopOp::Relabel(vec![30], vec![900, 31])),
            (labeled(&[31, 500]), HopOp::Pop(900, 31)),
            (labeled(&[]), HopOp::PopAll(vec![31, 500])),
        ];
        for (i, (pkt, _)) in steps.iter().enumerate() {
            log.record(i as Nanos, NodeId(0), IfaceId(i), pkt);
        }
        let ops: Vec<HopOp> = log.path(0, 0).into_iter().map(|(op, _)| op).collect();
        let want: Vec<HopOp> = steps.into_iter().map(|(_, op)| op).collect();
        assert_eq!(ops, want);
        assert!(log.path(0, 1).is_empty());
    }

    /// An LSR whose downstream label equals its incoming one sends the
    /// stack unchanged: that is a swap, not a forward.
    #[test]
    fn an_unchanged_labelled_stack_is_a_swap_to_the_same_label() {
        let mut log = TraceLog::default();
        log.add_device("D");
        for (i, labels) in [&[17, 500][..], &[17, 500], &[500], &[500]].into_iter().enumerate() {
            log.record(i as Nanos, NodeId(0), IfaceId(i), &labeled(labels));
        }
        let ops: Vec<HopOp> = log.path(0, 0).into_iter().map(|(op, _)| op).collect();
        assert_eq!(
            ops,
            [HopOp::Originate, HopOp::Swap(17, 17), HopOp::Pop(17, 500), HopOp::Swap(500, 500)]
        );
        assert_eq!(HopOp::Swap(17, 17).to_string(), "swap 17→17");
    }

    #[test]
    fn ops_render_for_export() {
        let rendered: Vec<String> = [
            HopOp::Originate,
            HopOp::Mark(Dscp::EF),
            HopOp::Push(vec![17, 131072]),
            HopOp::Swap(17, 16),
            HopOp::Pop(16, 131072),
            HopOp::PopAll(vec![131072]),
            HopOp::Relabel(vec![30], vec![900, 31]),
            HopOp::Forward,
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        assert_eq!(
            rendered,
            [
                "originate",
                "mark EF",
                "push [17, 131072]",
                "swap 17→16",
                "pop 16 (exposing 131072)",
                "pop [131072]",
                "relabel [30]→[900, 31]",
                "forward",
            ]
        );
    }
}
