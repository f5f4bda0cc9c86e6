//! The per-layer ledger, measured from the outside: spans placed around
//! calls into each layer from this package, never inside the program.
//!
//! * qos — every link egress discipline is wrapped in [`Probe`], which
//!   times each `enqueue`/`dequeue` in the real run (in-situ spans);
//! * mpls, net, routing, obs — the layer's public entry point is replayed
//!   against the tables the run itself built (LFIBs, VRF FIBs, the
//!   topology, a flight recorder), and its cost per call is multiplied by
//!   the calls the run made, read from the program's own counters;
//! * sim — the engine (calendar, dispatch, link model, traffic sources)
//!   is replayed with nodes that do no work, per calendar event;
//! * the router handlers and everything else — what remains of the traced
//!   run's CPU time once the attributed layers and the span overhead are
//!   taken out.
//!
//! The wrapped disciplines are rebuilt exactly as `BackboneBuilder` built them;
//! the traced run must reproduce the untraced run's outcome bit for bit.

use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

use mplsvpn_core::network::make_core_qdisc;
use mplsvpn_core::{CoreQos, CoreRouter, PeRouter};
use netsim_mpls::Lfib;
use netsim_net::{Dscp, Ip, Layer, MplsLabel, Packet, Pkt};
use netsim_obs::{DropCause, FlightRecorder};
use netsim_qos::{EnqueueOutcome, FifoQueue, Nanos, QueueDiscipline};
use netsim_routing::Igp;
use netsim_sim::node::BlackHole;
use netsim_sim::{CbrSource, Ctx, IfaceId, LinkConfig, LinkId, Network, Node, SourceConfig};

use crate::workloads::Instance;

/// A cheap timestamp for in-situ spans: the time-stamp counter on x86-64
/// (a few nanoseconds to read, against tens for the monotonic clock under
/// a hypervisor), the monotonic clock in nanoseconds elsewhere.
#[cfg(target_arch = "x86_64")]
fn stamp() -> u64 {
    // SAFETY: RDTSC has no preconditions and exists on every x86-64 CPU.
    unsafe { std::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn stamp() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

thread_local! {
    static QDISC_CALLS: Cell<u64> = const { Cell::new(0) };
    static QDISC_TICKS: Cell<u64> = const { Cell::new(0) };
}

/// Span totals of the qos layer since the last call: (calls, ticks).
pub fn take_qdisc() -> (u64, u64) {
    (QDISC_CALLS.with(|c| c.replace(0)), QDISC_TICKS.with(|c| c.replace(0)))
}

fn note_qdisc(start: u64) {
    let ticks = stamp().wrapping_sub(start);
    QDISC_CALLS.with(|c| c.set(c.get() + 1));
    QDISC_TICKS.with(|c| c.set(c.get() + ticks));
}

/// A link egress discipline with a span around every enqueue and dequeue.
struct Probe(Box<dyn QueueDiscipline>);

impl QueueDiscipline for Probe {
    fn enqueue(&mut self, pkt: Pkt, now: Nanos) -> EnqueueOutcome {
        let t = stamp();
        let out = self.0.enqueue(pkt, now);
        note_qdisc(t);
        out
    }

    fn dequeue(&mut self, now: Nanos) -> Option<Pkt> {
        let t = stamp();
        let out = self.0.dequeue(now);
        note_qdisc(t);
        out
    }

    fn len_packets(&self) -> usize {
        self.0.len_packets()
    }

    fn len_bytes(&self) -> usize {
        self.0.len_bytes()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn peek_len(&self) -> Option<usize> {
        self.0.peek_len()
    }

    fn next_ready(&self, now: Nanos) -> Option<Nanos> {
        self.0.next_ready(now)
    }

    fn purge(&mut self) -> Vec<Pkt> {
        self.0.purge()
    }
}

/// Wraps every egress of the built network in a [`Probe`]. Backbone links
/// come first in link order and get the core profile seeded per direction
/// as `BackboneBuilder` seeds them (its default seed 1); every other link
/// is an access, sink or source link with the default 256 KiB FIFO.
pub fn install(inst: &mut Instance, core_qos: &CoreQos) {
    let backbone = inst.pn.topo.link_count();
    for l in 0..inst.pn.net.link_count() {
        for dir in 0..2u8 {
            let inner: Box<dyn QueueDiscipline> = if l < backbone {
                make_core_qdisc(core_qos, 1u64.wrapping_add(l as u64 * 2 + u64::from(dir)))
            } else {
                Box::new(FifoQueue::new(256 * 1024))
            };
            inst.pn.net.set_qdisc(LinkId(l), dir, Box::new(Probe(inner)));
        }
    }
}

/// What a span costs, measured on this host.
pub struct SpanCost {
    /// Nanoseconds per [`stamp`] tick.
    pub ns_per_tick: f64,
    /// Ticks an empty span reads: subtracted from every measured span.
    pub bias_ticks: f64,
    /// Nanoseconds one probe adds to the run, inside and outside its span.
    pub probe_ns: f64,
}

pub fn span_cost() -> SpanCost {
    let t = Instant::now();
    let s = stamp();
    while t.elapsed() < std::time::Duration::from_millis(50) {}
    let ns_per_tick = t.elapsed().as_nanos() as f64 / stamp().wrapping_sub(s) as f64;

    let n = 20_000u64;
    let mut bias: Vec<f64> = (0..31)
        .map(|_| {
            let mut acc = 0u64;
            for _ in 0..n {
                let s = stamp();
                acc += black_box(stamp()).wrapping_sub(s);
            }
            acc as f64 / n as f64
        })
        .collect();
    let mut probe: Vec<f64> = (0..31)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..n {
                let s = stamp();
                black_box(());
                note_qdisc(s);
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    take_qdisc();
    SpanCost { ns_per_tick, bias_ticks: median(&mut bias), probe_ns: median(&mut probe) }
}

pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        f64::midpoint(v[n / 2 - 1], v[n / 2])
    }
}

/// Runs `batch` (which performs `ops` calls) repeatedly and returns the
/// median nanoseconds per call. `prepare` rebuilds the inputs untimed.
fn per_call<T>(ops: usize, mut prepare: impl FnMut() -> T, mut batch: impl FnMut(T)) -> f64 {
    if ops == 0 {
        return 0.0;
    }
    let mut rounds: Vec<f64> = (0..15)
        .map(|_| {
            let input = prepare();
            let t = Instant::now();
            batch(input);
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&mut rounds)
}

/// Per-call cost of the layers replayed against the run's own tables.
pub struct Replay {
    /// One calendar event of the engine with idle nodes (sim).
    pub engine_ns: f64,
    /// `Lfib::forward` on a labeled packet (mpls).
    pub lfib_ns: f64,
    /// `LpmTrie::lookup` in a PE's VRF table (net).
    pub lpm_ns: f64,
    /// One SPF tree of the backbone (routing).
    pub spf_ns: f64,
    /// One flight-recorder write (obs).
    pub recorder_ns: f64,
}

pub fn replay(inst: &Instance, cost: &SpanCost) -> Replay {
    let pn = &inst.pn;
    let lfibs: Vec<&Lfib> = (0..pn.topo.node_count())
        .map(|u| {
            let id = pn.backbone_node(u);
            if inst.pe_nodes.contains(&id) {
                &pn.net.node_ref::<PeRouter>(id).lfib
            } else {
                &pn.net.node_ref::<CoreRouter>(id).lfib
            }
        })
        .collect();

    // mpls: every installed label entry of every router, in turn.
    let base = Packet::udp(Ip(0x0A01_0001), Ip(0x0A02_0001), 1, 2, Dscp::AF41, 472);
    let mut labeled: Vec<(usize, Packet)> = Vec::new();
    for (r, lfib) in lfibs.iter().enumerate() {
        for (label, _) in lfib.iter() {
            let mut p = base.clone();
            p.push_outer(Layer::Mpls(MplsLabel::new(label, 3, 64)));
            labeled.push((r, p));
        }
    }
    let mut batch_in = Vec::new();
    while !labeled.is_empty() && batch_in.len() < 4096 {
        batch_in.extend(labeled.iter().cloned());
    }
    let lfib_ns = per_call(
        batch_in.len(),
        || batch_in.clone(),
        |mut pkts| {
            for (r, p) in &mut pkts {
                black_box(lfibs[*r].forward(p));
            }
        },
    );

    // net: the workload's destinations in every VRF of every PE.
    let fibs: Vec<_> = inst
        .pe_nodes
        .iter()
        .flat_map(|&id| pn.net.node_ref::<PeRouter>(id).vrfs.iter().map(|v| &v.fib))
        .collect();
    let lookups = fibs.len() * inst.dsts.len();
    let reps = 4096usize.div_ceil(lookups.max(1));
    let lpm_ns = per_call(
        lookups * reps,
        || (),
        |()| {
            for _ in 0..reps {
                for fib in &fibs {
                    for &d in &inst.dsts {
                        black_box(fib.lookup(black_box(d)));
                    }
                }
            }
        },
    );

    // routing: all-pairs SPF over the backbone, per tree.
    let nodes = pn.topo.node_count();
    let spf_ns = per_call(
        nodes * 8,
        || (),
        |()| {
            for _ in 0..8 {
                black_box(Igp::converge(black_box(&pn.topo)));
            }
        },
    );

    // obs: drop records into a fresh recorder.
    let rec = FlightRecorder::default();
    let recorder_ns = per_call(
        4096,
        || (),
        |()| {
            for i in 0..4096u64 {
                rec.record(i, black_box(i % 16), i, DropCause::QueueOverflow);
            }
        },
    );
    Replay { engine_ns: engine_ns_per_event(cost), lfib_ns, lpm_ns, spf_ns, recorder_ns }
}

/// Forwards every packet out of the other of its two interfaces.
struct Relay;

impl Node for Relay {
    fn on_packet(&mut self, iface: IfaceId, pkt: Pkt, ctx: &mut Ctx) {
        ctx.send(IfaceId(1 - iface.0), pkt);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// sim: eight CBR sources, each feeding a chain of six relays into a black
/// hole — the hop count of a VPN path — with probed FIFO egresses whose
/// time (and probe cost) is taken out again.
fn engine_ns_per_event(cost: &SpanCost) -> f64 {
    let mut rounds: Vec<f64> = (0..7)
        .map(|_| {
            let mut net = Network::new();
            for chain in 0..8u64 {
                let cfg = SourceConfig::udp(chain, Ip(0x0A00_0001), Ip(0x0A00_0002), 5000, 472);
                let src = net.add_node(Box::new(CbrSource::new(cfg, 40_000 + chain, Some(2_500))));
                let mut prev = src;
                for _ in 0..6 {
                    let relay = net.add_node(Box::new(Relay));
                    connect_probed(&mut net, prev, relay);
                    prev = relay;
                }
                let end = net.add_node(Box::new(BlackHole::default()));
                connect_probed(&mut net, prev, end);
                net.arm_timer(src, 0, 0);
            }
            take_qdisc();
            let t = crate::clock::thread_cpu_ns();
            let events = net.run_to_quiescence();
            let ns = (crate::clock::thread_cpu_ns() - t) as f64;
            let (calls, ticks) = take_qdisc();
            let qdisc = (ticks as f64 - calls as f64 * cost.bias_ticks) * cost.ns_per_tick;
            (ns - qdisc - calls as f64 * cost.probe_ns) / events as f64
        })
        .collect();
    median(&mut rounds)
}

fn connect_probed(net: &mut Network, a: netsim_sim::NodeId, b: netsim_sim::NodeId) {
    let fifo =
        || -> Box<dyn QueueDiscipline> { Box::new(Probe(Box::new(FifoQueue::new(256 * 1024)))) };
    let cfg = LinkConfig::new(1_000_000_000, 100_000);
    net.connect_with_qdiscs(a, b, cfg, cfg, fifo(), fifo());
}
