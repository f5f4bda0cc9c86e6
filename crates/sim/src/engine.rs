//! The event calendar, link model and [`Network`] container.

use netsim_net::Pkt;
use netsim_obs::{DropCause, FlightRecorder};
use netsim_qos::{EnqueueOutcome, FifoQueue, Nanos, QueueDiscipline, TxCost};

use crate::calendar::TimingWheel;
use crate::node::{Action, Ctx, IfaceId, Node, NodeId};
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
    pub fn new(rate_bps: u64, delay_ns: Nanos) -> Self {
        LinkConfig { rate_bps, delay_ns, fifo_cap_bytes: 256 * 1024 }
    }

    /// Overrides the default FIFO capacity.
    pub fn fifo_cap(mut self, bytes: usize) -> Self {
        self.fifo_cap_bytes = bytes;
        self
    }
}

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
/// the MPLS EXP bits of the top label inside the core, or the IP
/// precedence (DSCP >> 3) at the unlabeled edge — the same fold every
/// EXP-classifying discipline applies.
fn wire_class(pkt: &Pkt) -> usize {
    match pkt.top_label() {
        Some(l) => (l.exp & 0x7) as usize,
        None => pkt.dscp().map_or(0, |d| (d.value() >> 3) as usize),
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

/// The simulated network: nodes, links, and the event calendar.
pub struct Network {
    nodes: Vec<Box<dyn Node>>,
    /// Per node: iface index → (link, direction owned by this node).
    ifaces: Vec<Vec<(LinkId, u8)>>,
    links: Vec<Link>,
    calendar: TimingWheel<Event>,
    now: Nanos,
    seq: u64,
    events_processed: u64,
    /// The handler context every dispatch lends its node. Its action
    /// buffer and spare packet boxes keep their capacity across events, so
    /// handlers don't allocate per event, and every node shares one spare
    /// stack.
    ctx: Ctx,
    /// Optional drop-cause flight recorder. When attached, every packet the
    /// link layer discards (egress refusal, AQM, purge on failure) lands
    /// here with its cause, and so does every packet a node handler passes
    /// to [`Ctx::discard`] or [`Ctx::absorb`], attributed to that node;
    /// `None` keeps the hot path to a single branch.
    recorder: Option<FlightRecorder>,
    /// Optional hop trace ([`Network::enable_trace`]). When enabled, every
    /// send by any node is recorded here, before the egress decides the
    /// packet's fate; `None` costs one branch per send.
    trace: Option<TraceLog>,
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    /// Creates an empty network at time zero.
    pub fn new() -> Self {
        Network {
            nodes: Vec::new(),
            ifaces: Vec::new(),
            links: Vec::new(),
            calendar: TimingWheel::new(),
            now: 0,
            seq: 0,
            events_processed: 0,
            ctx: Ctx { now: 0, actions: Vec::new(), spare: Vec::new() },
            recorder: None,
            trace: None,
        }
    }

    /// Attaches a drop-cause flight recorder. The recorder is a shared
    /// handle: clone it before attaching to keep a reader on the outside.
    pub fn set_recorder(&mut self, rec: FlightRecorder) {
        self.recorder = Some(rec);
    }

    /// The attached flight recorder, if any.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_ref()
    }

    /// Starts the hop trace: from now on every send by any node is
    /// recorded.
    pub fn enable_trace(&mut self) {
        self.trace.get_or_insert_with(TraceLog::default);
    }

    /// The hop trace, if enabled.
    pub fn trace(&self) -> Option<&TraceLog> {
        self.trace.as_ref()
    }

    /// Current simulation time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(node);
        self.ifaces.push(Vec::new());
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
        self.ctx.now = self.now;
        let out = f(node, &mut self.ctx);
        self.apply_actions(id);
        out
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
        let link = LinkId(self.links.len());
        let ia = IfaceId(self.ifaces[a.0].len());
        let ib = IfaceId(self.ifaces[b.0].len());
        self.ifaces[a.0].push((link, 0));
        self.ifaces[b.0].push((link, 1));
        self.links.push(Link {
            dirs: [
                Direction {
                    tx_cost: TxCost::new(cfg_ab.rate_bps),
                    delay_ns: cfg_ab.delay_ns,
                    qdisc: qdisc_a,
                    enabled: true,
                    busy_until: 0,
                    poke_at: Nanos::MAX,
                    dst_node: b,
                    dst_iface: ib,
                    stats: LinkStats::default(),
                },
                Direction {
                    tx_cost: TxCost::new(cfg_ba.rate_bps),
                    delay_ns: cfg_ba.delay_ns,
                    qdisc: qdisc_b,
                    enabled: true,
                    busy_until: 0,
                    poke_at: Nanos::MAX,
                    dst_node: a,
                    dst_iface: ia,
                    stats: LinkStats::default(),
                },
            ],
        });
        (link, ia, ib)
    }

    /// Replaces the egress discipline on the `dir`-th direction of `link`
    /// (0 = the direction away from the first-connected node). Packets
    /// queued in the old discipline are discarded, and counted into this
    /// direction's [`LinkStats::dropped`] so mid-run swaps don't corrupt
    /// loss accounting.
    pub fn set_qdisc(&mut self, link: LinkId, dir: u8, qdisc: Box<dyn QueueDiscipline>) {
        let now = self.now;
        let d = &mut self.links[link.0].dirs[dir as usize];
        for pkt in d.qdisc.purge() {
            d.stats.dropped += 1;
            d.stats.dropped_by_class[wire_class(&pkt)] += 1;
            if let Some(rec) = &self.recorder {
                rec.record(now, pkt.meta.flow, pkt.meta.seq, DropCause::LinkDownPurge);
            }
        }
        d.qdisc = qdisc;
    }

    /// Number of links in the network.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Transmit statistics of one direction of a link.
    pub fn link_stats(&self, link: LinkId, dir: u8) -> LinkStats {
        self.links[link.0].dirs[dir as usize].stats
    }

    /// Enables or disables both directions of a link (fiber cut / repair).
    /// While disabled, packets offered to either egress are dropped and
    /// counted in [`LinkStats::dropped`]; packets already in flight still
    /// arrive.
    pub fn set_link_enabled(&mut self, link: LinkId, enabled: bool) {
        if self.link_enabled(link) == enabled {
            return; // idempotent: re-failing a dead link must not re-purge
        }
        let now = self.now;
        let mut kick = [false; 2];
        for (i, d) in self.links[link.0].dirs.iter_mut().enumerate() {
            d.enabled = enabled;
            if enabled {
                kick[i] = now >= d.busy_until;
            } else {
                // A cut link loses whatever its egress buffer holds; count
                // the flush so conservation (delivered + dropped + in-flight
                // == sent) survives any failure schedule.
                for pkt in d.qdisc.purge() {
                    d.stats.dropped += 1;
                    d.stats.dropped_by_class[wire_class(&pkt)] += 1;
                    if let Some(rec) = &self.recorder {
                        rec.record(now, pkt.meta.flow, pkt.meta.seq, DropCause::LinkDownPurge);
                    }
                }
            }
        }
        // Kick idle transmitters in case traffic queued while down.
        for (i, k) in kick.into_iter().enumerate() {
            if k {
                self.arm_poke(link, i as u8, now);
            }
        }
    }

    /// Whether the link is currently enabled.
    pub fn link_enabled(&self, link: LinkId) -> bool {
        self.links[link.0].dirs[0].enabled
    }

    /// Packets currently buffered across every link egress — the "in
    /// flight or queued" term of the chaos harness's conservation check
    /// (delivered + dropped + queued == sent).
    pub fn queued_packets(&self) -> u64 {
        self.links.iter().flat_map(|l| l.dirs.iter()).map(|d| d.qdisc.len_packets() as u64).sum()
    }

    /// Packets between nodes: propagating on a link or awaiting a deferred
    /// send. With [`Network::queued_packets`], what a conservation check
    /// counts as still in the network before the calendar drains.
    pub fn packets_in_flight(&self) -> u64 {
        let held = |ev: &&Event| matches!(ev, Event::Arrival { .. } | Event::DeferredSend { .. });
        self.calendar.items().filter(held).count() as u64
    }

    /// Injects a packet as if node `node` had sent it on `iface` now.
    pub fn inject(&mut self, node: NodeId, iface: IfaceId, pkt: impl Into<Pkt>) {
        self.do_send(node, iface, pkt.into());
    }

    /// Arms a timer for `node` to fire after `delay` (used to bootstrap
    /// sources before the run starts).
    pub fn arm_timer(&mut self, node: NodeId, delay: Nanos, token: u64) {
        let at = self.now + delay;
        self.push(at, Event::Timer { node, token });
    }

    fn push(&mut self, at: Nanos, ev: Event) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        self.calendar.push(at, self.seq, ev);
        self.seq += 1;
    }

    /// Runs until the calendar is empty or `t_end` is reached (events at
    /// exactly `t_end` are processed). Returns events processed.
    pub fn run_until(&mut self, t_end: Nanos) -> u64 {
        let start_events = self.events_processed;
        while let Some(at) = self.calendar.peek_at() {
            if at > t_end {
                break;
            }
            let (at, _seq, ev) = self.calendar.pop().expect("peeked");
            self.now = at;
            self.events_processed += 1;
            self.dispatch(ev);
        }
        if t_end != Nanos::MAX {
            // Advance the clock to the deadline so consecutive run_until
            // calls observe contiguous windows.
            self.now = self.now.max(t_end);
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
                self.ctx.now = self.now;
                self.nodes[node.0].on_packet(iface, pkt, &mut self.ctx);
                self.apply_actions(node);
            }
            Event::Timer { node, token } => {
                self.ctx.now = self.now;
                self.nodes[node.0].on_timer(token, &mut self.ctx);
                self.apply_actions(node);
            }
            Event::TxIdle { link, dir } => {
                let d = &mut self.links[link.0].dirs[dir as usize];
                if d.poke_at <= self.now {
                    d.poke_at = Nanos::MAX;
                }
                self.try_start_tx(link, dir);
            }
            Event::DeferredSend { node, iface, pkt } => self.do_send(node, iface, pkt),
        }
    }

    fn apply_actions(&mut self, node: NodeId) {
        let mut actions = std::mem::take(&mut self.ctx.actions);
        for action in actions.drain(..) {
            match action {
                Action::Send { iface, pkt } => self.do_send(node, iface, pkt),
                Action::Deliver { iface, pkt } => self.do_deliver(node, iface, pkt),
                Action::SendLater { iface, pkt, delay } => {
                    let at = self.now + delay;
                    self.push(at, Event::DeferredSend { node, iface, pkt });
                }
                Action::Timer { delay, token } => {
                    let at = self.now + delay;
                    self.push(at, Event::Timer { node, token });
                }
                Action::Discard { pkt, cause } => {
                    if let Some(rec) = &self.recorder {
                        rec.record_at(node.0, self.now, pkt.meta.flow, pkt.meta.seq, cause);
                    }
                }
                Action::Absorb { pkt } => {
                    if let Some(rec) = &self.recorder {
                        rec.record_absorbed(node.0, pkt.meta.flow);
                    }
                }
            }
        }
        // Return the drained buffer so the next dispatch reuses its capacity.
        self.ctx.actions = actions;
    }

    fn do_send(&mut self, node: NodeId, iface: IfaceId, pkt: Pkt) {
        let Some(&(link, dir)) = self.ifaces[node.0].get(iface.0) else {
            panic!("node {node:?} has no interface {iface:?}");
        };
        if let Some(t) = &mut self.trace {
            t.record(self.now, self.nodes[node.0].name(), iface, &pkt);
        }
        let d = &mut self.links[link.0].dirs[dir as usize];
        if !d.enabled {
            return lose_on_down_link(d, self.recorder.as_ref(), self.now, &pkt);
        }
        match d.qdisc.enqueue(pkt, self.now) {
            EnqueueOutcome::Queued => {}
            EnqueueOutcome::Dropped(pkt, cause) => {
                d.stats.dropped += 1;
                d.stats.dropped_by_class[wire_class(&pkt)] += 1;
                if let Some(rec) = &self.recorder {
                    rec.record(self.now, pkt.meta.flow, pkt.meta.seq, cause);
                }
                return;
            }
        }
        let busy_until = d.busy_until;
        if self.now >= busy_until {
            self.try_start_tx(link, dir);
        } else {
            // Transmitter is mid-serialization: make sure it polls the
            // queue again the moment it finishes.
            self.arm_poke(link, dir, busy_until);
        }
    }

    /// [`Ctx::deliver`]: the packet arrives at the far end of `iface`'s
    /// link at this instant, or is lost if the link is disabled.
    fn do_deliver(&mut self, node: NodeId, iface: IfaceId, pkt: Pkt) {
        let (link, dir) = self.ifaces[node.0][iface.0];
        let d = &mut self.links[link.0].dirs[dir as usize];
        if !d.enabled {
            return lose_on_down_link(d, self.recorder.as_ref(), self.now, &pkt);
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
            Some(pkt) => {
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
                // Only a backlogged egress needs a completion event; an
                // empty one restarts lazily from the next enqueue. The poke
                // precedes the arrival push so same-instant events keep the
                // historical order (transmitter poll, then receiver).
                if d.qdisc.len_packets() > 0 {
                    self.arm_poke(link, dir, now + tx);
                }
                self.push(arrive, Event::Arrival { node: dst_node, iface: dst_iface, pkt });
            }
            None => {
                // Nothing eligible now. If the discipline holds deferred
                // packets (shaped / bounded classes), poke it again later.
                if let Some(t) = d.qdisc.next_ready(now) {
                    let at = t.max(now + 1);
                    self.arm_poke(link, dir, at);
                }
            }
        }
    }
}

/// Counts `pkt`, offered to disabled direction `d`, as lost on the floor.
fn lose_on_down_link(d: &mut Direction, rec: Option<&FlightRecorder>, now: Nanos, pkt: &Pkt) {
    d.stats.dropped += 1;
    d.stats.dropped_by_class[wire_class(pkt)] += 1;
    if let Some(rec) = rec {
        rec.record(now, pkt.meta.flow, pkt.meta.seq, DropCause::LinkDownPurge);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::BlackHole;
    use netsim_net::addr::ip;
    use netsim_net::{Dscp, Packet};
    use netsim_qos::{CbqNodeConfig, HierCbq, MSEC, SEC};

    fn pkt(payload: usize) -> Packet {
        Packet::udp(ip("10.0.0.1"), ip("10.0.0.2"), 1, 2, Dscp::BE, payload)
    }

    /// A node that echoes every packet back out the interface it came in on.
    struct Echo;
    impl Node for Echo {
        fn on_packet(&mut self, iface: IfaceId, pkt: Pkt, ctx: &mut Ctx) {
            ctx.send(iface, pkt);
        }
        fn name(&self) -> &str {
            "echo"
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
        let b = net.add_node(Box::new(Echo));
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
        let b = net.add_node(Box::new(Echo));
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
}
