//! The event calendar, link model and [`Network`] container.

use netsim_net::{Packet, Pkt};
use netsim_obs::{DropCause, FlightRecorder};
use netsim_qos::{Admit, EnqueueOutcome, FifoQueue, Nanos, QueueDiscipline, TxCost};

use crate::calendar::TimingWheel;
use crate::node::{Ctx, IfaceId, Node, NodeId};
use crate::trace::TraceLog;

/// Identifies a duplex link within one [`Network`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LinkId(pub usize);

/// Configuration of one link direction (both directions share it unless
/// connected with [`Network::connect_with_qdiscs`]).
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    /// Serialization rate in bits per second.
    pub rate_bps: u64,
    /// Propagation delay in nanoseconds.
    pub delay_ns: Nanos,
    /// Byte capacity of the default FIFO attached to each egress. Ignored
    /// when an explicit discipline is supplied.
    fifo_cap_bytes: usize,
}

impl LinkConfig {
    /// A link with the given rate and delay and a 256 KiB default FIFO.
    pub const fn new(rate_bps: u64, delay_ns: Nanos) -> Self {
        LinkConfig { rate_bps, delay_ns, fifo_cap_bytes: 256 * 1024 }
    }

    /// Overrides the default FIFO capacity.
    pub fn fifo_cap(mut self, bytes: usize) -> Self {
        self.fifo_cap_bytes = bytes;
        self
    }
}

/// The LAN a customer host hangs off its edge on (1 Gb/s, 10 µs, the
/// default FIFO): every host [`Network::attach_host`] attaches, in every
/// VPN model, sits behind one of these.
pub const HOST_LINK: LinkConfig = LinkConfig::new(1_000_000_000, 10_000);

/// Per-direction transmit statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LinkStats {
    /// Packets fully serialized onto the wire.
    pub tx_packets: u64,
    /// Bytes fully serialized onto the wire.
    pub tx_bytes: u64,
    /// Packets refused by the egress discipline.
    pub dropped: u64,
    /// Nanoseconds the transmitter was busy (utilization = busy / elapsed).
    pub busy_ns: Nanos,
    /// Transmitted packets broken down by wire class (MPLS EXP of the top
    /// label, or IP precedence when unlabeled).
    pub tx_by_class: [u64; 8],
    /// Dropped packets broken down the same way.
    pub dropped_by_class: [u64; 8],
}

impl LinkStats {
    /// Link utilization over an observation window of `elapsed` ns.
    pub fn utilization(&self, elapsed: Nanos) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.busy_ns as f64 / elapsed as f64
        }
    }
}

/// The 3-bit wire class a queue drop or transmission is attributed to:
/// the MPLS EXP bits of the top label inside the core, or the DSCP's
/// default fold ([`netsim_net::Dscp::default_exp`]) at the unlabeled
/// edge — the class an EXP-or-DSCP scheduler serves the packet from.
fn wire_class(pkt: &Pkt) -> usize {
    match pkt.top_label() {
        Some(l) => (l.exp & 0x7) as usize,
        None => pkt.dscp().map_or(0, |d| usize::from(d.default_exp())),
    }
}

struct Direction {
    /// Link rate plus its fixed-point reciprocal: serialization times come
    /// from a multiply instead of a per-packet division (bit-exact).
    tx_cost: TxCost,
    delay_ns: Nanos,
    qdisc: Box<dyn QueueDiscipline>,
    enabled: bool,
    /// The transmitter is serializing until this instant; it is idle when
    /// `now >= busy_until`. Tracking the completion time instead of a busy
    /// flag lets an empty egress skip its completion event entirely: the
    /// next enqueue observes the timestamp and either starts transmitting
    /// immediately or arms one [`Event::TxIdle`] poke at `busy_until`.
    busy_until: Nanos,
    /// Earliest outstanding [`Event::TxIdle`] poke for this direction, or
    /// `Nanos::MAX` when none is known. Pokes are never cancelled — a
    /// superseded one fires as a harmless no-op — the field only
    /// deduplicates arming so the calendar is not flooded.
    poke_at: Nanos,
    dst_node: NodeId,
    dst_iface: IfaceId,
    stats: LinkStats,
}

impl Direction {
    /// An idle, enabled direction toward `dst` (node, interface).
    fn new(cfg: LinkConfig, qdisc: Box<dyn QueueDiscipline>, dst: (NodeId, IfaceId)) -> Self {
        Direction {
            tx_cost: TxCost::new(cfg.rate_bps),
            delay_ns: cfg.delay_ns,
            qdisc,
            enabled: true,
            busy_until: 0,
            poke_at: Nanos::MAX,
            dst_node: dst.0,
            dst_iface: dst.1,
            stats: LinkStats::default(),
        }
    }

    /// Counts `pkt` as lost here for `cause` (refused by the egress,
    /// offered while disabled, or purged from the buffer) and keeps its
    /// box in `spare`.
    fn lose(
        &mut self,
        rec: Option<&FlightRecorder>,
        now: Nanos,
        pkt: Pkt,
        cause: DropCause,
        spare: &mut SpareBoxes,
    ) {
        self.stats.dropped += 1;
        self.stats.dropped_by_class[wire_class(&pkt)] += 1;
        if let Some(rec) = rec {
            rec.record(now, pkt.meta.flow, pkt.meta.seq, cause);
        }
        spare.recycle(pkt);
    }
}

struct Link {
    dirs: [Direction; 2],
}

enum Event {
    /// Packet finishes propagation and arrives at a node.
    Arrival { node: NodeId, iface: IfaceId, pkt: Pkt },
    /// A transmitter finished serialization (or a retry poke): try to start
    /// the next transmission on (link, dir).
    TxIdle { link: LinkId, dir: u8 },
    /// A node timer fires.
    Timer { node: NodeId, token: u64 },
    /// A deferred send (see [`Ctx::send_after`]) reaches its egress queue.
    DeferredSend { node: NodeId, iface: IfaceId, pkt: Pkt },
}

/// Most consumed packet boxes a network keeps for reuse. Counted per
/// repetition of the perfbench workloads at seed 1: `forward` finds the
/// stack empty in 153 of 14 482 [`SpareBoxes::boxed`] calls and
/// `congested` in 144 of 12 522, all while their first packets are still
/// in flight, with this cap as with none (uncapped, the stack grows to
/// 153 and 144 boxes). `control` misses 74 times in 5 592 calls here and
/// 60 times with no cap, where its stack grows to 60 boxes.
const SPARE_PKTS: usize = 32;

/// The network's one stack of consumed packet boxes: every packet a node
/// or a link ends returns its box here, and every packet a node builds
/// takes one from here before it allocates.
pub(crate) struct SpareBoxes(Vec<Pkt>);

impl SpareBoxes {
    /// Keeps `pkt`'s box for [`SpareBoxes::boxed`] unless the stack is full.
    pub(crate) fn recycle(&mut self, pkt: Pkt) {
        if self.0.len() < SPARE_PKTS {
            self.0.push(pkt);
        }
    }

    /// Boxes `pkt` in the most recently recycled box when there is one,
    /// otherwise in a new allocation.
    pub(crate) fn boxed(&mut self, pkt: Packet) -> Pkt {
        let Some(mut b) = self.0.pop() else { return Box::new(pkt) };
        *b = pkt;
        b
    }
}

/// Everything of a [`Network`] but its nodes: the interface table, the
/// links, the calendar and its clock, the spare packet boxes, the flight
/// recorder and the hop trace. The [`Ctx`] every handler gets owns it, so
/// what a handler does lands here at once.
pub(crate) struct LinkLayer {
    /// Per node: iface index → (link, direction owned by this node).
    ifaces: Vec<Vec<(LinkId, u8)>>,
    links: Vec<Link>,
    calendar: TimingWheel<Event>,
    pub(crate) now: Nanos,
    seq: u64,
    pub(crate) spare: SpareBoxes,
    /// Optional drop-cause flight recorder. When attached, every packet the
    /// link layer discards (egress refusal, AQM, purge on failure) lands
    /// here with its cause, and so does every packet a node handler passes
    /// to [`Ctx::discard`] or [`Ctx::absorb`], attributed to that node;
    /// `None` keeps the hot path to a single branch.
    pub(crate) recorder: Option<FlightRecorder>,
    /// Optional hop trace ([`Network::enable_trace`]). When enabled, every
    /// send by any node is recorded here, before the egress decides the
    /// packet's fate; `None` costs one branch per send.
    trace: Option<TraceLog>,
}

/// The simulated network: nodes, links, and the event calendar.
pub struct Network {
    nodes: Vec<Box<dyn Node>>,
    events_processed: u64,
    /// The handler context every dispatch lends its node, holding the rest
    /// of the network.
    ctx: Ctx,
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    /// Creates an empty network at time zero.
    pub fn new() -> Self {
        let wire = LinkLayer {
            ifaces: Vec::new(),
            links: Vec::new(),
            calendar: TimingWheel::new(),
            now: 0,
            seq: 0,
            spare: SpareBoxes(Vec::new()),
            recorder: None,
            trace: None,
        };
        Network { nodes: Vec::new(), events_processed: 0, ctx: Ctx { node: NodeId(0), wire } }
    }

    /// Attaches a drop-cause flight recorder. The recorder is a shared
    /// handle: clone it before attaching to keep a reader on the outside.
    pub fn set_recorder(&mut self, rec: FlightRecorder) {
        self.ctx.wire.recorder = Some(rec);
    }

    /// The attached flight recorder, if any.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.ctx.wire.recorder.as_ref()
    }

    /// Starts the hop trace: from now on every send by any node is
    /// recorded, under the device names the nodes have now.
    pub fn enable_trace(&mut self) {
        if self.ctx.wire.trace.is_none() {
            let mut t = TraceLog::default();
            self.nodes.iter().for_each(|n| t.add_device(n.name()));
            self.ctx.wire.trace = Some(t);
        }
    }

    /// The hop trace, if enabled.
    pub fn trace(&self) -> Option<&TraceLog> {
        self.ctx.wire.trace.as_ref()
    }

    /// Current simulation time.
    pub fn now(&self) -> Nanos {
        self.ctx.wire.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len());
        if let Some(t) = &mut self.ctx.wire.trace {
            t.add_device(node.name());
        }
        self.nodes.push(node);
        self.ctx.wire.ifaces.push(Vec::new());
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Runs `f` on node `id` (of type `T`, else panics) as a handler runs:
    /// what it does through the [`Ctx`] takes effect now, as if the node
    /// had acted on its own.
    pub fn with_node<T: 'static, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx) -> R,
    ) -> R {
        let node = self.nodes[id.0].as_any_mut().downcast_mut::<T>().expect("node type mismatch");
        self.ctx.node = id;
        f(node, &mut self.ctx)
    }

    /// Downcasts node `id` to its concrete type.
    ///
    /// # Panics
    /// Panics if the node is not of type `T`.
    pub fn node_ref<T: 'static>(&self, id: NodeId) -> &T {
        self.nodes[id.0].as_any().downcast_ref::<T>().expect("node type mismatch")
    }

    /// Mutable downcast of node `id` to its concrete type.
    ///
    /// # Panics
    /// Panics if the node is not of type `T`.
    pub fn node_mut<T: 'static>(&mut self, id: NodeId) -> &mut T {
        self.nodes[id.0].as_any_mut().downcast_mut::<T>().expect("node type mismatch")
    }

    /// Adds `host` and hangs it off `edge` over [`HOST_LINK`]. Returns the
    /// host's id and the edge-side interface, for the edge's host route.
    /// It arms no timer.
    pub fn attach_host(&mut self, edge: NodeId, host: Box<dyn Node>) -> (NodeId, IfaceId) {
        let id = self.add_node(host);
        let (_, _, edge_if) = self.connect(id, edge, HOST_LINK);
        (id, edge_if)
    }

    /// Attaches a traffic source as [`Network::attach_host`] does and
    /// starts it: its timer fires with token 0 at the current instant.
    /// Every source starts on that timer.
    pub fn attach_source(&mut self, edge: NodeId, src: Box<dyn Node>) -> (NodeId, IfaceId) {
        let (id, edge_if) = self.attach_host(edge, src);
        self.arm_timer(id, 0, 0);
        (id, edge_if)
    }

    /// Connects `a` and `b` with a symmetric duplex link using default FIFO
    /// egress queues. Returns `(link, iface at a, iface at b)`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) -> (LinkId, IfaceId, IfaceId) {
        let qa: Box<dyn QueueDiscipline> = Box::new(FifoQueue::new(cfg.fifo_cap_bytes));
        let qb: Box<dyn QueueDiscipline> = Box::new(FifoQueue::new(cfg.fifo_cap_bytes));
        self.connect_with_qdiscs(a, b, cfg, cfg, qa, qb)
    }

    /// Fully explicit connection: per-direction configs and disciplines
    /// (`qdisc_a` schedules a→b traffic at node `a`).
    pub fn connect_with_qdiscs(
        &mut self,
        a: NodeId,
        b: NodeId,
        cfg_ab: LinkConfig,
        cfg_ba: LinkConfig,
        qdisc_a: Box<dyn QueueDiscipline>,
        qdisc_b: Box<dyn QueueDiscipline>,
    ) -> (LinkId, IfaceId, IfaceId) {
        assert!(a.0 < self.nodes.len() && b.0 < self.nodes.len(), "unknown node");
        assert!(cfg_ab.rate_bps > 0 && cfg_ba.rate_bps > 0, "link rate must be positive");
        let w = &mut self.ctx.wire;
        let link = LinkId(w.links.len());
        let ia = IfaceId(w.ifaces[a.0].len());
        let ib = IfaceId(w.ifaces[b.0].len());
        w.ifaces[a.0].push((link, 0));
        w.ifaces[b.0].push((link, 1));
        let dirs =
            [Direction::new(cfg_ab, qdisc_a, (b, ib)), Direction::new(cfg_ba, qdisc_b, (a, ia))];
        w.links.push(Link { dirs });
        (link, ia, ib)
    }

    /// Replaces the egress discipline on the `dir`-th direction of `link`
    /// (0 = the direction away from the first-connected node). Packets
    /// queued in the old discipline are discarded, and counted into this
    /// direction's [`LinkStats::dropped`] so mid-run swaps don't corrupt
    /// loss accounting.
    pub fn set_qdisc(&mut self, link: LinkId, dir: u8, qdisc: Box<dyn QueueDiscipline>) {
        let w = &mut self.ctx.wire;
        let d = &mut w.links[link.0].dirs[dir as usize];
        for pkt in d.qdisc.purge() {
            d.lose(w.recorder.as_ref(), w.now, pkt, DropCause::LinkDownPurge, &mut w.spare);
        }
        d.qdisc = qdisc;
    }

    /// Number of links in the network.
    pub fn link_count(&self) -> usize {
        self.ctx.wire.links.len()
    }

    /// Transmit statistics of one direction of a link.
    pub fn link_stats(&self, link: LinkId, dir: u8) -> LinkStats {
        self.ctx.wire.links[link.0].dirs[dir as usize].stats
    }

    /// Propagation delay of one direction of a link.
    pub fn link_delay(&self, link: LinkId, dir: u8) -> Nanos {
        self.ctx.wire.links[link.0].dirs[dir as usize].delay_ns
    }

    /// Enables or disables both directions of a link (fiber cut / repair).
    /// While disabled, packets offered to either egress are dropped and
    /// counted in [`LinkStats::dropped`]; packets already in flight still
    /// arrive.
    pub fn set_link_enabled(&mut self, link: LinkId, enabled: bool) {
        if self.link_enabled(link) == enabled {
            return; // idempotent: re-failing a dead link must not re-purge
        }
        let w = &mut self.ctx.wire;
        let now = w.now;
        let mut kick = [false; 2];
        for (i, d) in w.links[link.0].dirs.iter_mut().enumerate() {
            d.enabled = enabled;
            if enabled {
                kick[i] = now >= d.busy_until;
            } else {
                // A cut link loses whatever its egress buffer holds; count
                // the flush so conservation (delivered + dropped + in-flight
                // == sent) survives any failure schedule.
                for pkt in d.qdisc.purge() {
                    d.lose(w.recorder.as_ref(), now, pkt, DropCause::LinkDownPurge, &mut w.spare);
                }
            }
        }
        // Kick idle transmitters in case traffic queued while down.
        for (i, k) in kick.into_iter().enumerate() {
            if k {
                w.arm_poke(link, i as u8, now);
            }
        }
    }

    /// Whether the link is currently enabled.
    pub fn link_enabled(&self, link: LinkId) -> bool {
        self.ctx.wire.links[link.0].dirs[0].enabled
    }

    /// Packets currently buffered across every link egress — the "in
    /// flight or queued" term of the chaos harness's conservation check
    /// (delivered + dropped + queued == sent).
    pub fn queued_packets(&self) -> u64 {
        let dirs = self.ctx.wire.links.iter().flat_map(|l| l.dirs.iter());
        dirs.map(|d| d.qdisc.len_packets() as u64).sum()
    }

    /// Packets between nodes: propagating on a link or awaiting a deferred
    /// send. With [`Network::queued_packets`], what a conservation check
    /// counts as still in the network before the calendar drains.
    pub fn packets_in_flight(&self) -> u64 {
        let held = |ev: &&Event| matches!(ev, Event::Arrival { .. } | Event::DeferredSend { .. });
        self.ctx.wire.calendar.items().filter(held).count() as u64
    }

    /// Injects a packet as if node `node` had sent it on `iface` now.
    pub fn inject(&mut self, node: NodeId, iface: IfaceId, pkt: impl Into<Pkt>) {
        self.ctx.wire.send(node, iface, pkt.into());
    }

    /// Arms a timer for `node` to fire `delay` after the current instant
    /// with `token` ([`Network::attach_source`] starts a source with one).
    pub fn arm_timer(&mut self, node: NodeId, delay: Nanos, token: u64) {
        self.ctx.wire.arm_timer(node, delay, token);
    }

    /// Runs until the calendar is empty or `t_end` is reached (events at
    /// exactly `t_end` are processed). Returns events processed.
    pub fn run_until(&mut self, t_end: Nanos) -> u64 {
        let start_events = self.events_processed;
        while let Some((at, _seq, ev)) = self.ctx.wire.calendar.pop_due(t_end) {
            self.ctx.wire.now = at;
            self.events_processed += 1;
            self.dispatch(ev);
        }
        if t_end != Nanos::MAX {
            // Advance the clock to the deadline so consecutive run_until
            // calls observe contiguous windows.
            self.ctx.wire.now = self.ctx.wire.now.max(t_end);
        }
        self.events_processed - start_events
    }

    /// Runs until the calendar drains completely. Returns events processed.
    pub fn run_to_quiescence(&mut self) -> u64 {
        self.run_until(Nanos::MAX)
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Arrival { node, iface, pkt } => {
                self.ctx.node = node;
                self.nodes[node.0].on_packet(iface, pkt, &mut self.ctx);
            }
            Event::Timer { node, token } => {
                self.ctx.node = node;
                self.nodes[node.0].on_timer(token, &mut self.ctx);
            }
            Event::TxIdle { link, dir } => {
                let w = &mut self.ctx.wire;
                let d = &mut w.links[link.0].dirs[dir as usize];
                if d.poke_at <= w.now {
                    d.poke_at = Nanos::MAX;
                }
                w.try_start_tx(link, dir);
            }
            Event::DeferredSend { node, iface, pkt } => self.ctx.wire.send(node, iface, pkt),
        }
    }
}

impl LinkLayer {
    fn push(&mut self, at: Nanos, ev: Event) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        self.calendar.push(at, self.seq, ev);
        self.seq += 1;
    }

    /// The link and direction behind `node`'s interface `iface`.
    fn port(&self, node: NodeId, iface: IfaceId) -> (LinkId, u8) {
        let Some(&port) = self.ifaces[node.0].get(iface.0) else {
            panic!("node {node:?} has no interface {iface:?}");
        };
        port
    }

    /// [`Ctx::schedule`]: `node`'s timer fires `delay` from now.
    pub(crate) fn arm_timer(&mut self, node: NodeId, delay: Nanos, token: u64) {
        self.push(self.now + delay, Event::Timer { node, token });
    }

    /// [`Ctx::send_after`]: `pkt` reaches the egress queue `delay` from now.
    pub(crate) fn send_after(&mut self, node: NodeId, delay: Nanos, iface: IfaceId, pkt: Pkt) {
        self.push(self.now + delay, Event::DeferredSend { node, iface, pkt });
    }

    /// [`Ctx::send`]: `node` transmits `pkt` on `iface` now. An idle
    /// transmitter takes it through [`QueueDiscipline::admit`], which is
    /// an enqueue then the dequeue [`LinkLayer::try_start_tx`] would make,
    /// so it costs no poke.
    pub(crate) fn send(&mut self, node: NodeId, iface: IfaceId, pkt: Pkt) {
        let now = self.now;
        let (link, dir) = self.port(node, iface);
        if let Some(t) = &mut self.trace {
            t.record(now, node, iface, &pkt);
        }
        let d = &mut self.links[link.0].dirs[dir as usize];
        if !d.enabled {
            let cause = DropCause::LinkDownPurge;
            return d.lose(self.recorder.as_ref(), now, pkt, cause, &mut self.spare);
        }
        let busy_until = d.busy_until;
        if now < busy_until {
            if let EnqueueOutcome::Dropped(pkt, cause) = d.qdisc.enqueue(pkt, now) {
                return d.lose(self.recorder.as_ref(), now, pkt, cause, &mut self.spare);
            }
            // Transmitter is mid-serialization: make sure it polls the
            // queue again the moment it finishes.
            return self.arm_poke(link, dir, busy_until);
        }
        match d.qdisc.admit(pkt, now) {
            Admit::Transmit(pkt) => self.transmit(link, dir, pkt),
            Admit::Queued => self.retry_later(link, dir),
            Admit::Dropped(pkt, cause) => {
                d.lose(self.recorder.as_ref(), now, pkt, cause, &mut self.spare);
            }
        }
    }

    /// [`Ctx::deliver`]: the packet arrives at the far end of `iface`'s
    /// link at this instant, or is lost if the link is disabled.
    pub(crate) fn deliver(&mut self, node: NodeId, iface: IfaceId, pkt: Pkt) {
        let (link, dir) = self.port(node, iface);
        let d = &mut self.links[link.0].dirs[dir as usize];
        if !d.enabled {
            let cause = DropCause::LinkDownPurge;
            return d.lose(self.recorder.as_ref(), self.now, pkt, cause, &mut self.spare);
        }
        let (node, iface) = (d.dst_node, d.dst_iface);
        self.push(self.now, Event::Arrival { node, iface, pkt });
    }

    /// Schedules a [`Event::TxIdle`] poke at `at` unless an earlier (or
    /// equal) one is already outstanding for this direction.
    fn arm_poke(&mut self, link: LinkId, dir: u8, at: Nanos) {
        let d = &mut self.links[link.0].dirs[dir as usize];
        if at < d.poke_at {
            d.poke_at = at;
            self.push(at, Event::TxIdle { link, dir });
        }
    }

    fn try_start_tx(&mut self, link: LinkId, dir: u8) {
        let now = self.now;
        let d = &mut self.links[link.0].dirs[dir as usize];
        if !d.enabled {
            return;
        }
        if now < d.busy_until {
            // A poke consumed mid-serialization must hand the baton on, or
            // a backlogged queue would never be polled again.
            if d.qdisc.len_packets() > 0 {
                let at = d.busy_until;
                self.arm_poke(link, dir, at);
            }
            return;
        }
        match d.qdisc.dequeue(now) {
            Some(pkt) => self.transmit(link, dir, pkt),
            None => self.retry_later(link, dir),
        }
    }

    /// Starts serializing `pkt`, which the idle, enabled (link, dir) just
    /// took off its discipline.
    fn transmit(&mut self, link: LinkId, dir: u8, pkt: Pkt) {
        let now = self.now;
        let d = &mut self.links[link.0].dirs[dir as usize];
        let bytes = pkt.wire_len();
        let tx = d.tx_cost.tx_time(bytes);
        d.busy_until = now + tx;
        d.stats.tx_packets += 1;
        d.stats.tx_bytes += bytes as u64;
        d.stats.busy_ns += tx;
        d.stats.tx_by_class[wire_class(&pkt)] += 1;
        let arrive = now + tx + d.delay_ns;
        let dst_node = d.dst_node;
        let dst_iface = d.dst_iface;
        // Only a backlogged egress needs a completion event; an empty one
        // restarts lazily from the next send. The poke precedes the
        // arrival push so same-instant events keep the historical order
        // (transmitter poll, then receiver).
        if d.qdisc.len_packets() > 0 {
            self.arm_poke(link, dir, now + tx);
        }
        self.push(arrive, Event::Arrival { node: dst_node, iface: dst_iface, pkt });
    }

    /// Nothing is eligible to leave the idle (link, dir) now. If its
    /// discipline holds deferred packets (shaped / bounded classes), poke
    /// it again when one could be.
    fn retry_later(&mut self, link: LinkId, dir: u8) {
        let now = self.now;
        if let Some(t) = self.links[link.0].dirs[dir as usize].qdisc.next_ready(now) {
            self.arm_poke(link, dir, t.max(now + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::BlackHole;
    use crate::traffic::{CbrSource, OnOffSource, SourceConfig};
    use netsim_net::addr::ip;
    use netsim_net::{Dscp, Packet};
    use netsim_qos::{CbqNodeConfig, HierCbq, MSEC, SEC};

    fn pkt(payload: usize) -> Packet {
        Packet::udp(ip("10.0.0.1"), ip("10.0.0.2"), 1, 2, Dscp::BE, payload)
    }

    /// A node named `.0` that echoes every packet back out the interface
    /// it came in on.
    struct Echo(&'static str);
    impl Node for Echo {
        fn on_packet(&mut self, iface: IfaceId, pkt: Pkt, ctx: &mut Ctx) {
            ctx.send(iface, pkt);
        }
        fn name(&self) -> &str {
            self.0
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// A node that records arrival times.
    #[derive(Default)]
    struct Recorder {
        arrivals: Vec<Nanos>,
    }
    impl Node for Recorder {
        fn on_packet(&mut self, _iface: IfaceId, _pkt: Pkt, ctx: &mut Ctx) {
            self.arrivals.push(ctx.now());
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn single_packet_timing_is_exact() {
        // 10 Mb/s, 1 ms propagation: a 1250 B packet (incl. headers) takes
        // 1 ms serialization + 1 ms propagation = 2 ms.
        let mut net = Network::new();
        let a = net.add_node(Box::new(BlackHole::default()));
        let b = net.add_node(Box::new(Recorder::default()));
        let (_, ia, _) = net.connect(a, b, LinkConfig::new(10_000_000, MSEC));
        let p = pkt(1250 - 28); // wire_len = 1250
        net.inject(a, ia, p);
        net.run_to_quiescence();
        assert_eq!(net.node_ref::<Recorder>(b).arrivals, vec![2 * MSEC]);
    }

    #[test]
    fn serialization_queueing_delays_back_to_back_packets() {
        let mut net = Network::new();
        let a = net.add_node(Box::new(BlackHole::default()));
        let b = net.add_node(Box::new(Recorder::default()));
        let (_, ia, _) = net.connect(a, b, LinkConfig::new(10_000_000, 0));
        for _ in 0..3 {
            net.inject(a, ia, pkt(1250 - 28));
        }
        net.run_to_quiescence();
        // Packets serialize sequentially: arrivals at 1, 2, 3 ms.
        assert_eq!(net.node_ref::<Recorder>(b).arrivals, vec![MSEC, 2 * MSEC, 3 * MSEC]);
        let st = net.link_stats(LinkId(0), 0);
        assert_eq!(st.tx_packets, 3);
        assert_eq!(st.tx_bytes, 3 * 1250);
        assert_eq!(st.busy_ns, 3 * MSEC);
    }

    /// A node that hands every packet to the far end of its interface 0
    /// with [`Ctx::deliver`].
    struct Deliverer;
    impl Node for Deliverer {
        fn on_packet(&mut self, _iface: IfaceId, pkt: Pkt, ctx: &mut Ctx) {
            ctx.deliver(IfaceId(0), pkt);
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn deliver_arrives_now_off_the_link_and_dies_on_a_cut() {
        let mut net = Network::new();
        let rec = FlightRecorder::default();
        net.set_recorder(rec.clone());
        let a = net.add_node(Box::new(Deliverer));
        let b = net.add_node(Box::new(Recorder::default()));
        let feed = net.add_node(Box::new(BlackHole::default()));
        let (l, _, _) = net.connect(a, b, LinkConfig::new(1_000_000, 5 * MSEC));
        let (_, f_if, _) = net.connect(feed, a, LinkConfig::new(1_000_000_000, 0));
        net.inject(feed, f_if, pkt(1000));
        net.run_to_quiescence();
        // The feed link takes 8.224 us; the deliver adds nothing.
        assert_eq!(net.node_ref::<Recorder>(b).arrivals, vec![8_224]);
        assert_eq!(net.link_stats(l, 0), LinkStats::default(), "no queue, no link bytes");

        net.set_link_enabled(l, false);
        net.inject(feed, f_if, pkt(1000));
        net.run_to_quiescence();
        assert_eq!(net.node_ref::<Recorder>(b).arrivals.len(), 1);
        assert_eq!(net.link_stats(l, 0).dropped, 1, "lost as a send on a cut link is");
        assert_eq!(rec.total_drops(), 1);
    }

    #[test]
    fn echo_round_trip() {
        let mut net = Network::new();
        let a = net.add_node(Box::new(Recorder::default()));
        let b = net.add_node(Box::new(Echo("echo")));
        let (_, ia, _) = net.connect(a, b, LinkConfig::new(100_000_000, 500_000));
        net.inject(a, ia, pkt(100));
        net.run_to_quiescence();
        let rec = net.node_ref::<Recorder>(a);
        assert_eq!(rec.arrivals.len(), 1);
        // 128 B at 100 Mb/s = 10.24 us each way + 0.5 ms each way.
        assert_eq!(rec.arrivals[0], 2 * (10_240 + 500_000));
    }

    #[test]
    fn fifo_overflow_counts_drops() {
        let mut net = Network::new();
        let a = net.add_node(Box::new(BlackHole::default()));
        let b = net.add_node(Box::new(Recorder::default()));
        let cfg = LinkConfig::new(1_000_000, 0).fifo_cap(300);
        let (l, ia, _) = net.connect(a, b, cfg);
        // 128 B wire each; one serializing + two queued fit, 4th drops.
        for _ in 0..5 {
            net.inject(a, ia, pkt(100));
        }
        net.run_to_quiescence();
        let st = net.link_stats(l, 0);
        assert_eq!(st.tx_packets + st.dropped, 5);
        assert!(st.dropped >= 1, "expected tail drops, got {st:?}");
        assert_eq!(net.node_ref::<Recorder>(b).arrivals.len() as u64, st.tx_packets);
    }

    #[test]
    fn attach_host_returns_the_edges_next_iface() {
        let mut net = Network::new();
        let edge = net.add_node(Box::new(Recorder::default()));
        let peer = net.add_node(Box::new(BlackHole::default()));
        net.connect(peer, edge, LinkConfig::new(1_000_000, 0)); // edge iface 0
        let (host, edge_if) = net.attach_host(edge, Box::new(BlackHole::default()));
        assert_eq!((host, edge_if), (NodeId(2), IfaceId(1)));
        let (_, edge_if) = net.attach_host(edge, Box::new(BlackHole::default()));
        assert_eq!(edge_if, IfaceId(2));
    }

    #[test]
    fn host_link_adds_serialization_and_ten_microseconds() {
        let mut net = Network::new();
        let edge = net.add_node(Box::new(Recorder::default()));
        let (host, _) = net.attach_host(edge, Box::new(BlackHole::default()));
        net.inject(host, IfaceId(0), pkt(100 - 28)); // wire_len = 100
        net.run_to_quiescence();
        // 800 bits at 1 Gb/s is 800 ns, then 10 us of propagation.
        assert_eq!(net.node_ref::<Recorder>(edge).arrivals, vec![800 + 10_000]);
    }

    #[test]
    fn attach_host_arms_no_timer() {
        let mut net = Network::new();
        let edge = net.add_node(Box::new(Recorder::default()));
        let cfg = SourceConfig::udp(1, ip("10.0.0.1"), ip("10.0.0.2"), 5000, 100);
        net.attach_host(edge, Box::new(CbrSource::new(cfg, MSEC, Some(3))));
        net.run_to_quiescence();
        assert_eq!(net.events_processed(), 0);
        assert!(net.node_ref::<Recorder>(edge).arrivals.is_empty());
    }

    #[test]
    fn attach_source_starts_at_the_current_instant() {
        let cfg = SourceConfig::udp(1, ip("10.0.0.1"), ip("10.0.0.2"), 5000, 100);
        // 128 B on the wire: 1024 ns at 1 Gb/s, then 10 us.
        let first_arrival = 5 * MSEC + 1_024 + 10_000;
        let cbr = Box::new(CbrSource::new(cfg, MSEC, Some(2)));
        let onoff = Box::new(OnOffSource::new(cfg, MSEC, 20 * MSEC, 20 * MSEC, 9, None));
        for src in [cbr as Box<dyn Node>, onoff] {
            let mut net = Network::new();
            let edge = net.add_node(Box::new(Recorder::default()));
            net.run_until(5 * MSEC);
            net.attach_source(edge, src);
            net.run_until(10 * MSEC);
            let arrivals = &net.node_ref::<Recorder>(edge).arrivals;
            assert_eq!(arrivals.first(), Some(&first_arrival), "{arrivals:?}");
        }
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Vec<(Nanos, u64)>,
        }
        impl Node for TimerNode {
            fn on_packet(&mut self, _: IfaceId, _: Pkt, _: &mut Ctx) {}
            fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
                self.fired.push((ctx.now(), token));
                if token < 3 {
                    ctx.schedule(10, token + 1);
                }
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut net = Network::new();
        let n = net.add_node(Box::new(TimerNode { fired: vec![] }));
        net.arm_timer(n, 5, 1);
        net.run_to_quiescence();
        assert_eq!(net.node_ref::<TimerNode>(n).fired, vec![(5, 1), (15, 2), (25, 3)]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut net = Network::new();
        let a = net.add_node(Box::new(BlackHole::default()));
        let b = net.add_node(Box::new(Recorder::default()));
        let (_, ia, _) = net.connect(a, b, LinkConfig::new(1_000_000, SEC));
        net.inject(a, ia, pkt(100));
        net.run_until(MSEC); // propagation alone is 1 s; nothing arrives yet
        assert!(net.node_ref::<Recorder>(b).arrivals.is_empty());
        net.run_to_quiescence();
        assert_eq!(net.node_ref::<Recorder>(b).arrivals.len(), 1);
    }

    /// A CBQ bounded class must drain via next_ready retries instead of
    /// wedging the link.
    #[test]
    fn non_work_conserving_qdisc_drains_via_retries() {
        let mut net = Network::new();
        let a = net.add_node(Box::new(BlackHole::default()));
        let b = net.add_node(Box::new(Recorder::default()));
        let cbq = HierCbq::new(
            vec![CbqNodeConfig {
                parent: None,
                rate_bps: 800_000,
                bounded: true,
                cap_bytes: 1 << 20,
            }],
            Box::new(|_| 0),
        );
        let cfg = LinkConfig::new(1_000_000_000, 0);
        let (_, ia, _) = net.connect_with_qdiscs(
            a,
            b,
            cfg,
            cfg,
            Box::new(cbq),
            Box::new(netsim_qos::FifoQueue::new(1 << 20)),
        );
        // 20 packets of 1000 B at a shaped 800 kb/s ≈ 10 ms each beyond the burst.
        for _ in 0..20 {
            net.inject(a, ia, pkt(972));
        }
        net.run_to_quiescence();
        let rec = net.node_ref::<Recorder>(b);
        assert_eq!(rec.arrivals.len(), 20, "all packets must eventually arrive");
        let last = *rec.arrivals.last().unwrap();
        // 20 kB at 800 kb/s = 200 ms minus the ~burst credit.
        assert!(last > 100 * MSEC, "shaping must spread arrivals, last={last}");
    }

    #[test]
    fn disabled_link_drops_and_reenabling_resumes() {
        let mut net = Network::new();
        let a = net.add_node(Box::new(BlackHole::default()));
        let b = net.add_node(Box::new(Recorder::default()));
        let (l, ia, _) = net.connect(a, b, LinkConfig::new(100_000_000, 0));
        assert!(net.link_enabled(l));
        net.inject(a, ia, pkt(100));
        net.run_to_quiescence();
        assert_eq!(net.node_ref::<Recorder>(b).arrivals.len(), 1);

        net.set_link_enabled(l, false);
        assert!(!net.link_enabled(l));
        for _ in 0..5 {
            net.inject(a, ia, pkt(100));
        }
        net.run_to_quiescence();
        assert_eq!(net.node_ref::<Recorder>(b).arrivals.len(), 1, "down link delivers nothing");
        assert_eq!(net.link_stats(l, 0).dropped, 5);

        net.set_link_enabled(l, true);
        net.inject(a, ia, pkt(100));
        net.run_to_quiescence();
        assert_eq!(net.node_ref::<Recorder>(b).arrivals.len(), 2, "repair restores service");
    }

    #[test]
    fn packet_in_flight_survives_link_failure() {
        // Failure cuts the *egress*; a packet already propagating arrives.
        let mut net = Network::new();
        let a = net.add_node(Box::new(BlackHole::default()));
        let b = net.add_node(Box::new(Recorder::default()));
        let (l, ia, _) = net.connect(a, b, LinkConfig::new(1_000_000_000, SEC));
        net.inject(a, ia, pkt(100));
        net.run_until(MSEC); // serialized, now propagating
        net.set_link_enabled(l, false);
        net.run_to_quiescence();
        assert_eq!(net.node_ref::<Recorder>(b).arrivals.len(), 1);
    }

    #[test]
    fn cutting_a_link_flushes_queued_packets_into_dropped() {
        // 1 Mb/s link, five 128 B packets (1.024 ms serialization each):
        // by 1.5 ms one has been delivered and a second is on the wire,
        // leaving three in the egress buffer when the fiber is cut.
        let mut net = Network::new();
        let a = net.add_node(Box::new(BlackHole::default()));
        let b = net.add_node(Box::new(Recorder::default()));
        let (l, ia, _) = net.connect(a, b, LinkConfig::new(1_000_000, 0));
        for _ in 0..5 {
            net.inject(a, ia, pkt(100));
        }
        net.run_until(1_500_000);
        net.set_link_enabled(l, false);
        assert_eq!(net.link_stats(l, 0).dropped, 3, "queued packets land in dropped");
        // Failing an already-failed link must not double-count.
        net.set_link_enabled(l, false);
        assert_eq!(net.link_stats(l, 0).dropped, 3);
        net.run_to_quiescence();
        assert_eq!(net.node_ref::<Recorder>(b).arrivals.len(), 2, "in-flight packet survives");
        assert_eq!(net.queued_packets(), 0);
    }

    #[test]
    fn set_qdisc_counts_stranded_packets_as_dropped() {
        // 1 Mb/s link: the first packet occupies the transmitter while the
        // rest sit in the FIFO; swapping the qdisc mid-run must account the
        // stranded ones as drops instead of losing them silently.
        let mut net = Network::new();
        let a = net.add_node(Box::new(BlackHole::default()));
        let b = net.add_node(Box::new(Recorder::default()));
        let (l, ia, _) = net.connect(a, b, LinkConfig::new(1_000_000, 0));
        for _ in 0..5 {
            net.inject(a, ia, pkt(100));
        }
        // One packet is serializing; four are queued.
        net.set_qdisc(l, 0, Box::new(FifoQueue::new(1 << 20)));
        net.run_to_quiescence();
        let st = net.link_stats(l, 0);
        assert_eq!(st.dropped, 4, "stranded packets must be counted");
        assert_eq!(st.tx_packets, 1);
        assert_eq!(net.node_ref::<Recorder>(b).arrivals.len(), 1);
    }

    /// Drops every packet with TTL 1 and absorbs the rest.
    struct Terminator;
    impl Node for Terminator {
        fn on_packet(&mut self, _iface: IfaceId, pkt: Pkt, ctx: &mut Ctx) {
            if pkt.outer_ipv4().is_some_and(|h| h.ttl == 1) {
                ctx.discard(pkt, DropCause::Ttl);
            } else {
                ctx.absorb(pkt);
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn handler_terminations_are_recorded_against_the_node() {
        let mut net = Network::new();
        let rec = FlightRecorder::default();
        net.set_recorder(rec.clone());
        let a = net.add_node(Box::new(BlackHole::default()));
        let b = net.add_node(Box::new(Terminator));
        let (_, ia, _) = net.connect(a, b, LinkConfig::new(1_000_000_000, MSEC));
        let mut dying = pkt(10);
        dying.meta.flow = 7;
        dying.outer_ipv4_mut().expect("ipv4").ttl = 1;
        net.inject(a, ia, dying);
        net.inject(a, ia, pkt(10));
        net.run_to_quiescence();
        assert_eq!(rec.node_total(b.0, DropCause::Ttl), 1);
        assert_eq!(rec.node_absorbed(b.0), 1);
        assert_eq!(rec.total_drops(), 1);
        assert_eq!(rec.flow_drops(7), 1);
        let at = rec.recent()[0].at;
        assert!(at > MSEC, "recorded at the handler's instant, not at send: {at}");
        assert_eq!(rec.node_total(a.0, DropCause::Ttl), 0);
    }

    #[test]
    fn every_send_is_traced_even_onto_a_dead_link() {
        let mut net = Network::new();
        net.enable_trace();
        let a = net.add_node(Box::new(BlackHole::default()));
        let b = net.add_node(Box::new(Echo("echo")));
        let (l, ia, _) = net.connect(a, b, LinkConfig::new(10_000_000, MSEC));
        net.inject(a, ia, pkt(1250 - 28));
        net.run_to_quiescence();
        net.set_link_enabled(l, false);
        let mut lost = pkt(10);
        lost.meta.seq = 1;
        net.inject(a, ia, lost);
        let records = net.trace().expect("trace enabled").flow(0);
        let hops: Vec<(Nanos, &str, u64)> =
            records.iter().map(|r| (r.at, r.device.as_str(), r.seq)).collect();
        assert_eq!(hops, [(0, "", 0), (2 * MSEC, "echo", 0), (4 * MSEC, "", 1)]);
        assert_eq!(net.link_stats(l, 0).dropped, 1);
    }

    #[test]
    #[should_panic(expected = "no interface")]
    fn sending_on_unknown_interface_panics() {
        let mut net = Network::new();
        let a = net.add_node(Box::new(BlackHole::default()));
        net.inject(a, IfaceId(0), pkt(10));
    }

    #[test]
    #[should_panic(expected = "no interface")]
    fn delivering_on_unknown_interface_panics() {
        let mut net = Network::new();
        let a = net.add_node(Box::new(BlackHole::default()));
        net.with_node(a, |_: &mut BlackHole, ctx| ctx.deliver(IfaceId(0), Box::new(pkt(10))));
    }

    #[test]
    fn trace_names_nodes_added_before_and_after_it_starts() {
        let mut net = Network::new();
        let cfg = LinkConfig::new(1_000_000_000, 0);
        let host = net.add_node(Box::new(BlackHole::default()));
        let before = net.add_node(Box::new(Echo("before")));
        let (_, to_before, _) = net.connect(host, before, cfg);
        net.enable_trace();
        let after = net.add_node(Box::new(Echo("after")));
        let (_, to_after, _) = net.connect(host, after, cfg);
        net.inject(host, to_before, pkt(10));
        let mut second = pkt(10);
        second.meta.seq = 1;
        net.inject(host, to_after, second);
        net.run_to_quiescence();
        let records = net.trace().expect("trace enabled").flow(0);
        let hops: Vec<(&str, u64)> = records.iter().map(|r| (r.device.as_str(), r.seq)).collect();
        assert_eq!(hops, [("", 0), ("", 1), ("before", 0), ("after", 1)]);
    }

    /// Pins the order in which one handler's mixed effects dispatch: its
    /// timer, its two sends on a slow link (the second queues behind a
    /// poke), a send on a cut link and a discard.
    #[test]
    #[allow(clippy::disallowed_types)] // the network owns the logging nodes and qdisc
    fn one_handlers_mixed_effects_land_in_call_order() {
        use std::cell::RefCell;
        thread_local! {
            static LOG: RefCell<Vec<(Nanos, &'static str, u64)>> = const { RefCell::new(Vec::new()) };
        }
        fn log(at: Nanos, what: &'static str, n: u64) {
            LOG.with(|l| l.borrow_mut().push((at, what, n)));
        }
        fn numbered(seq: u64) -> Packet {
            let mut p = pkt(100);
            p.meta.seq = seq;
            p
        }
        /// Logs every packet it takes off its FIFO.
        struct Logged(FifoQueue);
        impl QueueDiscipline for Logged {
            fn enqueue(&mut self, pkt: Pkt, now: Nanos) -> EnqueueOutcome {
                self.0.enqueue(pkt, now)
            }
            fn dequeue(&mut self, now: Nanos) -> Option<Pkt> {
                let out = self.0.dequeue(now);
                out.inspect(|p| log(now, "tx", p.meta.seq))
            }
            fn len_packets(&self) -> usize {
                self.0.len_packets()
            }
            fn len_bytes(&self) -> usize {
                self.0.len_bytes()
            }
            fn purge(&mut self) -> Vec<Pkt> {
                self.0.purge()
            }
        }
        /// Logs its timer and every arrival; on a packet at interface 2 it
        /// does everything at once.
        struct Mixer;
        impl Node for Mixer {
            fn on_packet(&mut self, iface: IfaceId, pkt: Pkt, ctx: &mut Ctx) {
                log(ctx.now(), "arrival", pkt.meta.seq);
                if iface != IfaceId(2) {
                    return;
                }
                ctx.schedule(0, 7);
                for (iface, seq) in [(0, 1), (0, 2), (1, 3)] {
                    let p = ctx.boxed(numbered(seq));
                    ctx.send(IfaceId(iface), p);
                }
                ctx.discard(pkt, DropCause::Ttl);
            }
            fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
                log(ctx.now(), "timer", token);
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut net = Network::new();
        let rec = FlightRecorder::default();
        net.set_recorder(rec.clone());
        let mixer = net.add_node(Box::new(Mixer));
        let far = net.add_node(Box::new(Mixer));
        let feed = net.add_node(Box::new(BlackHole::default()));
        let slow = LinkConfig::new(1_000_000, 0);
        let fifo = || Box::new(Logged(FifoQueue::new(1 << 20)));
        net.connect_with_qdiscs(mixer, far, slow, slow, fifo(), fifo()); // iface 0
        let (cut, _, _) = net.connect(mixer, far, slow); // iface 1
        net.set_link_enabled(cut, false);
        let (_, f_if, _) = net.connect(feed, mixer, LinkConfig::new(1_000_000_000, 0)); // iface 2
        net.inject(feed, f_if, numbered(0));
        net.run_to_quiescence();
        // 128 B on the wire: 1 024 ns at 1 Gb/s, 1.024 ms at 1 Mb/s.
        let (t, tx) = (1_024, 1_024_000);
        let want = [
            (t, "arrival", 0),
            (t, "tx", 1),
            (t, "timer", 7),
            (t + tx, "arrival", 1),
            (t + tx, "tx", 2),
            (t + 2 * tx, "arrival", 2),
        ];
        assert_eq!(LOG.with(RefCell::take), want);
        let drops: Vec<(u64, DropCause)> = rec.recent().iter().map(|r| (r.seq, r.cause)).collect();
        assert_eq!(drops, [(3, DropCause::LinkDownPurge), (0, DropCause::Ttl)]);
    }
}
