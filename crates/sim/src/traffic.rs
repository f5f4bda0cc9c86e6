//! Traffic generators and the measuring sink.
//!
//! Sources are [`Node`]s driven entirely by timers; they emit IPv4/UDP or
//! TCP-framed packets with simulation metadata (`flow`, `seq`, creation
//! time) that the [`Sink`] turns into latency/jitter/loss statistics.
//! Randomized sources own a seeded RNG, keeping runs reproducible.

use netsim_net::{Dscp, Ip, Packet, Pkt};
use netsim_qos::Nanos;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::any::Any;

use crate::fxmap::FxHashMap;
use crate::node::{Ctx, IfaceId, Node};
use crate::stats::FlowStats;

/// What a source emits.
#[derive(Clone, Copy, Debug)]
pub struct SourceConfig {
    /// Flow identifier stamped into packet metadata.
    pub flow: u64,
    /// Source address.
    pub src: Ip,
    /// Destination address.
    pub dst: Ip,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Emit TCP segments instead of UDP datagrams.
    pub tcp: bool,
    /// DSCP marking applied at the source (hosts usually send BE and let
    /// the CPE classifier mark).
    pub dscp: Dscp,
    /// Payload bytes per packet.
    pub payload: usize,
    /// Local interface to emit on.
    pub iface: IfaceId,
    /// Stamp emitted packets as synthetic SLA probes: they traverse the
    /// network exactly like data, but edge marking leaves their DSCP alone
    /// (the probe *is* the class under measurement).
    pub probe: bool,
}

impl SourceConfig {
    /// A UDP flow with sensible defaults.
    pub fn udp(flow: u64, src: Ip, dst: Ip, dst_port: u16, payload: usize) -> Self {
        SourceConfig {
            flow,
            src,
            dst,
            src_port: 10_000 + flow as u16,
            dst_port,
            tcp: false,
            dscp: Dscp::BE,
            payload,
            iface: IfaceId(0),
            probe: false,
        }
    }

    /// Sets the DSCP the source itself marks.
    pub fn with_dscp(mut self, d: Dscp) -> Self {
        self.dscp = d;
        self
    }

    /// Marks the flow as a synthetic SLA probe.
    pub fn as_probe(mut self) -> Self {
        self.probe = true;
        self
    }

    fn make_packet(&self, seq: u64, now: Nanos) -> Packet {
        let mut p = if self.tcp {
            Packet::tcp(
                self.src,
                self.dst,
                self.src_port,
                self.dst_port,
                self.dscp,
                seq as u32,
                self.payload,
            )
        } else {
            Packet::udp(self.src, self.dst, self.src_port, self.dst_port, self.dscp, self.payload)
        };
        p.meta.flow = self.flow;
        p.meta.seq = seq;
        p.meta.created_ns = now;
        p.meta.probe = self.probe;
        p
    }
}

/// Shared transmit-side counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct TxStats {
    /// Packets emitted.
    pub tx_packets: u64,
    /// Wire bytes emitted.
    pub tx_bytes: u64,
}

impl TxStats {
    /// Emits the open-loop sources' next packet per `cfg` and counts it.
    /// Its sequence number is the count of packets emitted before it.
    fn emit(&mut self, cfg: &SourceConfig, ctx: &mut Ctx) {
        let p = ctx.boxed(cfg.make_packet(self.tx_packets, ctx.now()));
        self.tx_packets += 1;
        self.tx_bytes += p.wire_len() as u64;
        ctx.send(cfg.iface, p);
    }
}

/// Constant-bit-rate source: one packet every `interval` ns, optionally
/// bounded to `count` packets, from its first timer on (see
/// [`crate::Network::attach_source`]).
pub struct CbrSource {
    cfg: SourceConfig,
    interval: Nanos,
    remaining: Option<u64>,
    /// Transmit counters.
    pub tx: TxStats,
}

impl CbrSource {
    /// Creates a CBR source; `count = None` means unbounded.
    pub fn new(cfg: SourceConfig, interval: Nanos, count: Option<u64>) -> Self {
        assert!(interval > 0, "CBR interval must be positive");
        CbrSource { cfg, interval, remaining: count, tx: TxStats::default() }
    }
}

impl Node for CbrSource {
    fn on_packet(&mut self, _iface: IfaceId, _pkt: Pkt, _ctx: &mut Ctx) {}

    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx) {
        if let Some(0) = self.remaining {
            return;
        }
        self.tx.emit(&self.cfg, ctx);
        if let Some(n) = self.remaining.as_mut() {
            *n -= 1;
            if *n == 0 {
                return;
            }
        }
        ctx.schedule(self.interval, 0);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Poisson source: exponentially distributed inter-packet gaps with the
/// given mean. Deterministic per seed.
pub struct PoissonSource {
    cfg: SourceConfig,
    mean_interval: Nanos,
    rng: SmallRng,
    until: Option<Nanos>,
    /// Transmit counters.
    pub tx: TxStats,
}

impl PoissonSource {
    /// Creates a Poisson source with the given mean inter-arrival time.
    /// `until = Some(t)` stops emission at simulation time `t`.
    pub fn new(cfg: SourceConfig, mean_interval: Nanos, seed: u64, until: Option<Nanos>) -> Self {
        assert!(mean_interval > 0, "mean interval must be positive");
        PoissonSource {
            cfg,
            mean_interval,
            rng: SmallRng::seed_from_u64(seed),
            until,
            tx: TxStats::default(),
        }
    }

    fn next_gap(&mut self) -> Nanos {
        let u: f64 = self.rng.random_range(1e-12..1.0);
        (-u.ln() * self.mean_interval as f64).ceil() as Nanos
    }
}

impl Node for PoissonSource {
    fn on_packet(&mut self, _iface: IfaceId, _pkt: Pkt, _ctx: &mut Ctx) {}

    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx) {
        if let Some(t) = self.until {
            if ctx.now() >= t {
                return;
            }
        }
        self.tx.emit(&self.cfg, ctx);
        let gap = self.next_gap();
        ctx.schedule(gap, 0);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Markov on-off (bursty) source: exponentially distributed ON and OFF
/// periods; during ON it emits CBR at `interval`. A common voice/data burst
/// model. Deterministic per seed.
pub struct OnOffSource {
    cfg: SourceConfig,
    interval: Nanos,
    mean_on: Nanos,
    mean_off: Nanos,
    rng: SmallRng,
    on: bool,
    epoch: u64,
    until: Option<Nanos>,
    /// Transmit counters.
    pub tx: TxStats,
}

/// Timer token layout for [`OnOffSource`]: low bit selects the handler,
/// upper bits carry the epoch so stale timers are ignored after a state
/// flip. The start timer, token 0, is a toggle of epoch 0.
const KIND_TOGGLE: u64 = 0;
const KIND_EMIT: u64 = 1;

impl OnOffSource {
    /// Creates an on-off source. It starts OFF, and its first timer
    /// toggles it ON.
    pub fn new(
        cfg: SourceConfig,
        interval: Nanos,
        mean_on: Nanos,
        mean_off: Nanos,
        seed: u64,
        until: Option<Nanos>,
    ) -> Self {
        assert!(interval > 0 && mean_on > 0 && mean_off > 0);
        OnOffSource {
            cfg,
            interval,
            mean_on,
            mean_off,
            rng: SmallRng::seed_from_u64(seed),
            on: false,
            epoch: 0,
            until,
            tx: TxStats::default(),
        }
    }

    fn exp_sample(&mut self, mean: Nanos) -> Nanos {
        let u: f64 = self.rng.random_range(1e-12..1.0);
        (-u.ln() * mean as f64).ceil() as Nanos
    }

    fn token(&self, kind: u64) -> u64 {
        (self.epoch << 1) | kind
    }
}

impl Node for OnOffSource {
    fn on_packet(&mut self, _iface: IfaceId, _pkt: Pkt, _ctx: &mut Ctx) {}

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        let (epoch, kind) = (token >> 1, token & 1);
        if epoch != self.epoch {
            return; // stale timer from before a state flip
        }
        if let Some(t) = self.until {
            if ctx.now() >= t {
                return;
            }
        }
        match kind {
            KIND_TOGGLE => {
                self.on = !self.on;
                self.epoch += 1;
                let dwell = if self.on {
                    self.exp_sample(self.mean_on)
                } else {
                    self.exp_sample(self.mean_off)
                };
                ctx.schedule(dwell, self.token(KIND_TOGGLE));
                if self.on {
                    ctx.schedule(0, self.token(KIND_EMIT));
                }
            }
            _ => {
                if !self.on {
                    return;
                }
                self.tx.emit(&self.cfg, ctx);
                ctx.schedule(self.interval, self.token(KIND_EMIT));
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The measuring sink: absorbs every packet and aggregates per-flow
/// statistics keyed by `meta.flow`.
#[derive(Default)]
pub struct Sink {
    flows: FxHashMap<u64, FlowStats>,
    /// Total packets absorbed (all flows).
    pub total_packets: u64,
    /// Total wire bytes absorbed.
    pub total_bytes: u64,
}

impl Sink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Sink::default()
    }

    /// Statistics of one flow, if any packets arrived.
    pub fn flow(&self, flow: u64) -> Option<&FlowStats> {
        self.flows.get(&flow)
    }

    /// Iterates over `(flow, stats)` pairs.
    pub fn flows(&self) -> impl Iterator<Item = (u64, &FlowStats)> {
        self.flows.iter().map(|(k, v)| (*k, v))
    }
}

impl Node for Sink {
    fn on_packet(&mut self, _iface: IfaceId, pkt: Pkt, ctx: &mut Ctx) {
        let bytes = pkt.wire_len();
        self.total_packets += 1;
        self.total_bytes += bytes as u64;
        self.flows.entry(pkt.meta.flow).or_default().record(
            ctx.now(),
            pkt.meta.created_ns,
            pkt.meta.seq,
            bytes,
        );
        ctx.recycle(pkt);
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
    use crate::MSEC;
    use netsim_net::addr::ip;

    #[test]
    fn cbr_emits_exact_count_and_spacing() {
        let mut net = Network::new();
        let cfg = SourceConfig::udp(1, ip("10.0.0.1"), ip("10.0.0.2"), 5000, 100);
        let src = net.add_node(Box::new(CbrSource::new(cfg, MSEC, Some(10))));
        let dst = net.add_node(Box::new(Sink::new()));
        net.connect(src, dst, LinkConfig::new(1_000_000_000, 0));
        net.arm_timer(src, 0, 0);
        net.run_to_quiescence();
        let sink = net.node_ref::<Sink>(dst);
        let f = sink.flow(1).expect("flow 1 delivered");
        assert_eq!(f.rx_packets, 10);
        assert_eq!(net.node_ref::<CbrSource>(src).tx.tx_packets, 10);
        // CBR through an uncongested fast link: zero jitter.
        assert_eq!(f.jitter_ns, 0.0);
        assert_eq!(f.reordered, 0);
    }

    #[test]
    fn poisson_is_deterministic_per_seed_and_roughly_calibrated() {
        let run = |seed: u64| {
            let mut net = Network::new();
            let cfg = SourceConfig::udp(7, ip("10.0.0.1"), ip("10.0.0.2"), 5000, 100);
            let src = net.add_node(Box::new(PoissonSource::new(cfg, MSEC, seed, Some(crate::SEC))));
            let dst = net.add_node(Box::new(Sink::new()));
            net.connect(src, dst, LinkConfig::new(1_000_000_000, 0));
            net.arm_timer(src, 0, 0);
            net.run_to_quiescence();
            net.node_ref::<Sink>(dst).total_packets
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed, same trajectory");
        // Mean gap 1 ms over 1 s ⇒ ~1000 packets; allow wide tolerance.
        assert!((600..1500).contains(&a), "got {a}");
        assert_ne!(a, run(43));
    }

    #[test]
    fn onoff_produces_bursts_and_silences() {
        let mut net = Network::new();
        let cfg = SourceConfig::udp(3, ip("10.0.0.1"), ip("10.0.0.2"), 5000, 100);
        let src = net.add_node(Box::new(OnOffSource::new(
            cfg,
            100_000, // 10 kpps while on
            20 * MSEC,
            20 * MSEC,
            9,
            Some(crate::SEC),
        )));
        let dst = net.add_node(Box::new(Sink::new()));
        net.connect(src, dst, LinkConfig::new(1_000_000_000, 0));
        net.arm_timer(src, 0, 0);
        net.run_to_quiescence();
        let got = net.node_ref::<Sink>(dst).total_packets;
        // ~50% duty cycle of 10 kpps over 1 s ≈ 5000; very wide bounds.
        assert!((1000..9500).contains(&got), "got {got}");
        let tx = &net.node_ref::<OnOffSource>(src).tx;
        assert_eq!(tx.tx_packets, got, "fast link loses nothing");
    }

    #[test]
    fn sink_separates_flows() {
        let mut net = Network::new();
        let c1 = SourceConfig::udp(1, ip("10.0.0.1"), ip("10.0.0.9"), 5000, 100);
        let c2 = SourceConfig::udp(2, ip("10.0.0.2"), ip("10.0.0.9"), 5000, 200);
        let s1 = net.add_node(Box::new(CbrSource::new(c1, MSEC, Some(5))));
        let s2 = net.add_node(Box::new(CbrSource::new(c2, MSEC, Some(7))));
        let dst = net.add_node(Box::new(Sink::new()));
        net.connect(s1, dst, LinkConfig::new(1_000_000_000, 0));
        net.connect(s2, dst, LinkConfig::new(1_000_000_000, 0));
        net.arm_timer(s1, 0, 0);
        net.arm_timer(s2, 0, 0);
        net.run_to_quiescence();
        let sink = net.node_ref::<Sink>(dst);
        assert_eq!(sink.flow(1).unwrap().rx_packets, 5);
        assert_eq!(sink.flow(2).unwrap().rx_packets, 7);
        assert_eq!(sink.total_packets, 12);
        assert!(sink.flow(3).is_none());
    }
}
