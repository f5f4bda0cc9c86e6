//! A closed-loop TCP-like source and its acking sink.
//!
//! Enough of TCP to make queues *react*: slow start, congestion avoidance,
//! fast retransmit on three duplicate ACKs, RTO with Jacobson's estimator,
//! cumulative ACKs. This is what turns RED from a curiosity into a win —
//! the AQM ablation (`exp_all A1`) runs these sources against tail-drop and
//! RED bottlenecks.
//!
//! Simplifications (documented, deliberate): segment = one packet, no
//! handshake/teardown, no delayed ACKs, no SACK, receiver window unbounded.
//! The RTT estimate rides the simulation metadata (`created_ns` echoed by
//! the sink), standing in for the timestamp option.

use std::any::Any;
use std::collections::BTreeSet;
use std::collections::HashMap;

use netsim_net::{Packet, Pkt, TcpHeader};
use netsim_qos::Nanos;

use crate::node::{Ctx, IfaceId, Node};
use crate::stats::FlowStats;
use crate::traffic::{SourceConfig, TxStats};

/// AIMD congestion-control state of one TCP-like flow.
pub struct TcpSource {
    cfg: SourceConfig,
    /// Congestion window in segments (fractional during CA growth).
    cwnd: f64,
    ssthresh: f64,
    /// Next sequence number to send (first transmission).
    next_seq: u64,
    /// Lowest unacknowledged sequence number.
    snd_una: u64,
    dup_acks: u32,
    /// Stop emitting new data at this simulation time.
    until: Option<Nanos>,
    // Jacobson RTO estimator.
    srtt: f64,
    rttvar: f64,
    /// Timer epoch (stale RTO timers are ignored).
    epoch: u64,
    rto_armed: bool,
    /// Negotiated ECN: segments carry ECT(0) and the window halves on an
    /// echoed CE instead of on loss.
    ecn: bool,
    /// Sequence high-water mark of the last ECN-triggered reduction (one
    /// reduction per window, per RFC 3168).
    ecn_reduced_at: u64,
    /// Transmit counters (first transmissions only).
    pub tx: TxStats,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// RTO events.
    timeouts: u64,
    /// Window reductions triggered by ECN echoes.
    ecn_reductions: u64,
}

const INITIAL_RTO: f64 = 200e6; // 200 ms in ns
const MIN_RTO: f64 = 10e6;

/// TCP header flag bit used for the ECN echo (RFC 3168 ECE).
pub const ECE_FLAG: u8 = 0x40;

impl TcpSource {
    /// Creates a flow sending `cfg.payload`-byte segments toward
    /// `cfg.dst:cfg.dst_port` until `until` (or forever), from its first
    /// timer on (see [`crate::Network::attach_source`]).
    pub fn new(cfg: SourceConfig, until: Option<Nanos>) -> Self {
        TcpSource {
            cfg,
            cwnd: 2.0,
            ssthresh: 64.0,
            next_seq: 0,
            snd_una: 0,
            dup_acks: 0,
            until,
            srtt: 0.0,
            rttvar: 0.0,
            epoch: 0,
            rto_armed: false,
            ecn: false,
            ecn_reduced_at: 0,
            tx: TxStats::default(),
            retransmits: 0,
            timeouts: 0,
            ecn_reductions: 0,
        }
    }

    /// Enables ECN on this flow (segments marked ECT(0)).
    pub fn with_ecn(mut self) -> Self {
        self.ecn = true;
        self
    }

    fn rto(&self) -> Nanos {
        if self.srtt == 0.0 {
            INITIAL_RTO as Nanos
        } else {
            (self.srtt + 4.0 * self.rttvar).max(MIN_RTO) as Nanos
        }
    }

    fn segment(&self, seq: u64, now: Nanos) -> Packet {
        let mut p = Packet::tcp(
            self.cfg.src,
            self.cfg.dst,
            self.cfg.src_port,
            self.cfg.dst_port,
            self.cfg.dscp,
            seq as u32,
            self.cfg.payload,
        );
        if self.ecn {
            if let Some(h) = p.outer_ipv4_mut() {
                h.ecn = netsim_net::ip::ecn::ECT0;
            }
        }
        p.meta.flow = self.cfg.flow;
        p.meta.seq = seq;
        p.meta.created_ns = now;
        p
    }

    fn fill_window(&mut self, ctx: &mut Ctx) {
        if let Some(t) = self.until {
            if ctx.now() >= t {
                return;
            }
        }
        let limit = self.snd_una + self.cwnd.floor().max(1.0) as u64;
        while self.next_seq < limit {
            let p = self.segment(self.next_seq, ctx.now());
            self.tx.tx_packets += 1;
            self.tx.tx_bytes += p.wire_len() as u64;
            ctx.send(self.cfg.iface, p);
            self.next_seq += 1;
        }
        self.arm_rto(ctx);
    }

    fn arm_rto(&mut self, ctx: &mut Ctx) {
        if self.rto_armed || self.snd_una == self.next_seq {
            return;
        }
        self.rto_armed = true;
        let rto = self.rto();
        ctx.schedule(rto, self.epoch);
    }

    fn update_rtt(&mut self, sample_ns: Nanos) {
        let r = sample_ns as f64;
        if self.srtt == 0.0 {
            self.srtt = r;
            self.rttvar = r / 2.0;
        } else {
            self.rttvar = 0.75 * self.rttvar + 0.25 * (self.srtt - r).abs();
            self.srtt = 0.875 * self.srtt + 0.125 * r;
        }
    }
}

impl Node for TcpSource {
    fn on_packet(&mut self, _iface: IfaceId, pkt: Pkt, ctx: &mut Ctx) {
        // An ACK: `meta.seq` (and the header's ack field) carry the
        // cumulative next-expected sequence; created_ns echoes the data
        // packet's send time for RTT sampling.
        let ack = pkt.meta.seq;
        // ECN echo (RFC 3168): halve once per window, no retransmission.
        let ece = pkt.layers().iter().any(|l| match l {
            netsim_net::Layer::Tcp(t) => t.flags & ECE_FLAG != 0,
            _ => false,
        });
        if self.ecn && ece && self.snd_una >= self.ecn_reduced_at {
            self.ssthresh = (self.cwnd / 2.0).max(2.0);
            self.cwnd = self.ssthresh;
            self.ecn_reduced_at = self.next_seq;
            self.ecn_reductions += 1;
        }
        if ack > self.snd_una {
            self.update_rtt(ctx.now().saturating_sub(pkt.meta.created_ns));
            self.snd_una = ack;
            self.dup_acks = 0;
            // Re-arm the RTO for remaining in-flight data.
            self.epoch += 1;
            self.rto_armed = false;
            if self.cwnd < self.ssthresh {
                self.cwnd += 1.0; // slow start
            } else {
                self.cwnd += 1.0 / self.cwnd; // congestion avoidance
            }
            self.fill_window(ctx);
        } else if ack == self.snd_una && self.next_seq > self.snd_una {
            self.dup_acks += 1;
            if self.dup_acks == 3 {
                // Fast retransmit + multiplicative decrease.
                self.ssthresh = (self.cwnd / 2.0).max(2.0);
                self.cwnd = self.ssthresh;
                let p = self.segment(self.snd_una, ctx.now());
                self.retransmits += 1;
                ctx.send(self.cfg.iface, p);
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        if token == 0 && self.next_seq == 0 {
            // The start timer.
            self.fill_window(ctx);
            return;
        }
        if token != self.epoch {
            return; // stale RTO
        }
        self.rto_armed = false;
        if self.snd_una == self.next_seq {
            return; // everything acked meanwhile
        }
        // Retransmission timeout: collapse the window, go back to snd_una.
        self.timeouts += 1;
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.dup_acks = 0;
        self.next_seq = self.snd_una;
        self.epoch += 1;
        self.fill_window(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Per-flow receiver state inside [`TcpSink`].
#[derive(Default)]
struct RxFlow {
    expected: u64,
    out_of_order: BTreeSet<u64>,
    stats: FlowStats,
}

/// The acking sink: delivers cumulative ACKs back toward each source and
/// keeps [`FlowStats`] per flow (counting only in-order-delivered data).
#[derive(Default)]
pub struct TcpSink {
    flows: HashMap<u64, RxFlow>,
    /// Total data segments received (including out-of-order/duplicates).
    segments_rx: u64,
}

impl TcpSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        TcpSink::default()
    }

    /// Receiver statistics of a flow.
    pub fn flow(&self, flow: u64) -> Option<&FlowStats> {
        self.flows.get(&flow).map(|f| &f.stats)
    }

    /// Highest in-order byte... segment count delivered for a flow.
    pub fn delivered(&self, flow: u64) -> u64 {
        self.flows.get(&flow).map_or(0, |f| f.expected)
    }
}

impl Node for TcpSink {
    fn on_packet(&mut self, iface: IfaceId, pkt: Pkt, ctx: &mut Ctx) {
        self.segments_rx += 1;
        let flow = pkt.meta.flow;
        let seq = pkt.meta.seq;
        let (src, dst, sp, dp) = match pkt.visible_five_tuple() {
            Some(t) => (t.src, t.dst, t.src_port, t.dst_port),
            None => return,
        };
        let f = self.flows.entry(flow).or_default();
        if seq == f.expected {
            f.stats.record(ctx.now(), pkt.meta.created_ns, seq, pkt.wire_len());
            f.expected += 1;
            while f.out_of_order.remove(&f.expected) {
                f.expected += 1;
            }
        } else if seq > f.expected {
            f.out_of_order.insert(seq);
        }
        // Cumulative ACK back to the sender, echoing the data packet's
        // send timestamp for RTT sampling — and the CE mark as ECE.
        let ce = pkt.outer_ipv4().is_some_and(netsim_net::Ipv4Header::is_ce);
        let flags = 0x10 | if ce { ECE_FLAG } else { 0 };
        let mut ack = Packet::new(
            vec![
                netsim_net::Layer::Ipv4(netsim_net::Ipv4Header::new(
                    dst,
                    src,
                    netsim_net::ip::proto::TCP,
                    pkt.dscp().unwrap_or_default(),
                )),
                netsim_net::Layer::Tcp(TcpHeader {
                    src_port: dp,
                    dst_port: sp,
                    seq: 0,
                    ack: f.expected as u32,
                    flags,
                }),
            ],
            Default::default(),
        );
        ack.meta.flow = flow;
        ack.meta.seq = f.expected;
        ack.meta.created_ns = pkt.meta.created_ns;
        ctx.send(iface, ack);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{LinkConfig, Network};
    use crate::{LinkId, MSEC, SEC};
    use netsim_net::addr::ip;

    impl TcpSource {
        /// Current congestion window (segments).
        fn cwnd(&self) -> f64 {
            self.cwnd
        }
    }

    fn tcp_cfg(flow: u64) -> SourceConfig {
        SourceConfig {
            tcp: true,
            ..SourceConfig::udp(flow, ip("10.0.0.1"), ip("10.0.0.2"), 80, 1000)
        }
    }

    /// Direct source↔sink over a fat link: everything is delivered in
    /// order, no retransmissions, cwnd opens up.
    #[test]
    fn clean_path_no_retransmits() {
        let mut net = Network::new();
        let src = net.add_node(Box::new(TcpSource::new(tcp_cfg(1), Some(SEC))));
        let dst = net.add_node(Box::new(TcpSink::new()));
        net.connect(src, dst, LinkConfig::new(100_000_000, MSEC));
        net.arm_timer(src, 0, 0);
        net.run_until(2 * SEC);
        let s = net.node_ref::<TcpSource>(src);
        assert_eq!(s.retransmits, 0);
        assert_eq!(s.timeouts, 0);
        assert!(s.cwnd() > 10.0, "cwnd should open: {}", s.cwnd());
        let k = net.node_ref::<TcpSink>(dst);
        assert!(k.delivered(1) > 100, "delivered {}", k.delivered(1));
        assert_eq!(k.flow(1).unwrap().rx_packets, k.delivered(1));
    }

    /// Through a tight bottleneck the flow fills the pipe (≥70% of the
    /// link) and adapts via drops rather than collapsing.
    #[test]
    fn bottleneck_is_filled_adaptively() {
        let mut net = Network::new();
        let src = net.add_node(Box::new(TcpSource::new(tcp_cfg(1), Some(5 * SEC))));
        let dst = net.add_node(Box::new(TcpSink::new()));
        let cfg = LinkConfig::new(5_000_000, MSEC).fifo_cap(16 * 1024);
        let (l, _, _) = net.connect(src, dst, cfg);
        net.arm_timer(src, 0, 0);
        net.run_until(6 * SEC);
        let util = net.link_stats(l, 0).utilization(5 * SEC);
        assert!(util > 0.7, "TCP should fill the pipe, util {util}");
        let s = net.node_ref::<TcpSource>(src);
        assert!(s.retransmits > 0, "a tight buffer must force retransmits");
        // Loss recovery works: delivered count keeps growing to the end.
        let k = net.node_ref::<TcpSink>(dst);
        assert!(k.delivered(1) > 1000, "delivered {}", k.delivered(1));
        let _ = LinkId(0);
    }

    /// An ECN flow through an ECN-RED bottleneck adapts with *zero* data
    /// loss: congestion is signalled by marks, not drops.
    #[test]
    fn ecn_flow_adapts_without_loss() {
        use netsim_qos::{RedParams, RedQueue};
        let mut net = Network::new();
        let src = net.add_node(Box::new(TcpSource::new(tcp_cfg(1), Some(5 * SEC)).with_ecn()));
        let dst = net.add_node(Box::new(TcpSink::new()));
        let cfg = LinkConfig::new(5_000_000, MSEC);
        let red =
            RedQueue::new(64 * 1024, RedParams::new(8 * 1024, 24 * 1024), 42, 1_600).with_ecn();
        net.connect_with_qdiscs(
            src,
            dst,
            cfg,
            cfg,
            Box::new(red),
            Box::new(netsim_qos::FifoQueue::new(1 << 20)),
        );
        net.arm_timer(src, 0, 0);
        net.run_until(6 * SEC);
        let s = net.node_ref::<TcpSource>(src);
        assert!(s.ecn_reductions > 3, "ECN must throttle the window: {}", s.ecn_reductions);
        assert_eq!(s.retransmits, 0, "marks replace drops");
        assert_eq!(s.timeouts, 0);
        let k = net.node_ref::<TcpSink>(dst);
        // The pipe still fills: ≥60% of 5 Mb/s over 5 s ≈ 1500+ segments.
        assert!(k.delivered(1) > 1500, "delivered {}", k.delivered(1));
    }

    /// Two competing flows share a bottleneck roughly fairly.
    #[test]
    fn two_flows_share_roughly_fairly() {
        let mut net = Network::new();
        let dst = net.add_node(Box::new(TcpSink::new()));
        let hub = {
            // Simple forwarder toward iface 0.
            struct Fwd;
            impl Node for Fwd {
                fn on_packet(&mut self, i: IfaceId, pkt: Pkt, ctx: &mut Ctx) {
                    // Data (from sources, ifaces ≥1) goes out iface 0; ACKs
                    // (from the sink on iface 0) go back by flow id.
                    if i.0 == 0 {
                        let out = 1 + (pkt.meta.flow as usize % 2);
                        ctx.send(IfaceId(out), pkt);
                    } else {
                        ctx.send(IfaceId(0), pkt);
                    }
                }
                fn as_any(&self) -> &dyn Any {
                    self
                }
                fn as_any_mut(&mut self) -> &mut dyn Any {
                    self
                }
            }
            net.add_node(Box::new(Fwd))
        };
        let bottleneck = LinkConfig::new(5_000_000, MSEC).fifo_cap(20 * 1024);
        net.connect(hub, dst, bottleneck); // hub iface 0
        let mut cfg0 = tcp_cfg(0);
        cfg0.src_port = 1000;
        let mut cfg1 = tcp_cfg(1);
        cfg1.src_port = 1001;
        let s0 = net.add_node(Box::new(TcpSource::new(cfg0, Some(5 * SEC))));
        let s1 = net.add_node(Box::new(TcpSource::new(cfg1, Some(5 * SEC))));
        net.connect(s0, hub, LinkConfig::new(1_000_000_000, 10_000)); // hub iface 1
        net.connect(s1, hub, LinkConfig::new(1_000_000_000, 10_000)); // hub iface 2
        net.arm_timer(s0, 0, 0);
        net.arm_timer(s1, 0, 0);
        net.run_until(6 * SEC);
        let k = net.node_ref::<TcpSink>(dst);
        let (d0, d1) = (k.delivered(0) as f64, k.delivered(1) as f64);
        assert!(d0 > 100.0 && d1 > 100.0, "both must progress: {d0} {d1}");
        let ratio = d0.max(d1) / d0.min(d1);
        assert!(ratio < 3.0, "gross unfairness: {d0} vs {d1}");
    }
}
