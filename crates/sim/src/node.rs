//! The node abstraction: anything attached to the network — routers, hosts,
//! traffic sources and sinks — implements [`Node`].

use std::any::Any;

use netsim_net::{Packet, Pkt};
use netsim_obs::DropCause;
use netsim_qos::Nanos;

use crate::engine::LinkLayer;

/// Identifies a node within one [`crate::Network`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

/// Identifies an interface local to one node (dense, assigned in connection
/// order by [`crate::Network::connect`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct IfaceId(pub usize);

/// Handler context: lets a node emit packets, arm timers, and end a
/// packet's life. It owns the network's links, calendar, clock, flight
/// recorder and hop trace, so each call takes effect at once, in call
/// order, against the node the handler runs for. A handler still observes
/// the network only through [`Ctx::now`]. It also lends the network's one
/// stack of spare packet boxes ([`Ctx::recycle`], [`Ctx::boxed`]), shared
/// by every node and link: every packet whose life ends in a handler or
/// on a link returns its box there, and every packet a handler builds is
/// boxed from there.
pub struct Ctx {
    /// The node whose handler (or [`crate::Network::with_node`] closure)
    /// holds this context.
    pub(crate) node: NodeId,
    pub(crate) wire: LinkLayer,
}

impl Ctx {
    /// Current simulation time in nanoseconds.
    #[inline]
    pub fn now(&self) -> Nanos {
        self.wire.now
    }

    /// Transmits `pkt` out of local interface `iface`. The packet enters
    /// that egress's queueing discipline immediately. A handler that
    /// builds a packet boxes it with [`Ctx::boxed`].
    pub fn send(&mut self, iface: IfaceId, pkt: Pkt) {
        self.wire.send(self.node, iface, pkt);
    }

    /// Hands `pkt` to the far end of `iface`'s link now, as a zero-latency
    /// out-of-band transport would: it skips the egress queue, takes no
    /// transmission or propagation time and adds nothing to the link's
    /// transmit counters. A disabled link loses it as [`Ctx::send`] does.
    pub fn deliver(&mut self, iface: IfaceId, pkt: Pkt) {
        self.wire.deliver(self.node, iface, pkt);
    }

    /// Like [`Ctx::send`], but the packet reaches the egress queue only
    /// after `delay` ns — models local processing time (e.g. IPsec crypto)
    /// spent before transmission.
    pub fn send_after(&mut self, delay: Nanos, iface: IfaceId, pkt: Pkt) {
        self.wire.send_after(self.node, delay, iface, pkt);
    }

    /// Arms a one-shot timer that fires `on_timer(token)` after `delay`.
    pub fn schedule(&mut self, delay: Nanos, token: u64) {
        self.wire.arm_timer(self.node, delay, token);
    }

    /// Drops `pkt` here for `cause`. The network records the drop in its
    /// flight recorder, if one is attached, against this node, and keeps
    /// the box.
    pub fn discard(&mut self, pkt: Pkt, cause: DropCause) {
        if let Some(rec) = &self.wire.recorder {
            rec.record_at(self.node.0, self.wire.now, pkt.meta.flow, pkt.meta.seq, cause);
        }
        self.wire.spare.recycle(pkt);
    }

    /// Ends `pkt`'s life here by design (it was addressed to this node).
    /// The network records it as absorbed at this node, not as a drop,
    /// and keeps the box.
    pub fn absorb(&mut self, pkt: Pkt) {
        if let Some(rec) = &self.wire.recorder {
            rec.record_absorbed(self.node.0, pkt.meta.flow);
        }
        self.wire.spare.recycle(pkt);
    }

    /// Ends a consumed packet's life here without a record, keeping its
    /// box for [`Ctx::boxed`] unless the network's spare stack is full.
    pub fn recycle(&mut self, pkt: Pkt) {
        self.wire.spare.recycle(pkt);
    }

    /// Boxes `pkt` for sending: in the most recently recycled box when
    /// there is one, otherwise in a new allocation.
    pub fn boxed(&mut self, pkt: Packet) -> Pkt {
        self.wire.spare.boxed(pkt)
    }
}

/// A network-attached device.
///
/// Implementations are plain state machines: they react to packet arrivals
/// and timer expiries through the [`Ctx`] and hold whatever state they need.
/// `as_any`/`as_any_mut` allow experiment code to downcast a node back to
/// its concrete type to read statistics after (or during) a run.
pub trait Node: Any {
    /// A packet arrived on local interface `iface`. Packets travel boxed
    /// (see [`Pkt`]) so forwarding a packet on is a pointer move.
    fn on_packet(&mut self, iface: IfaceId, pkt: Pkt, ctx: &mut Ctx);

    /// A timer armed via [`Ctx::schedule`] fired.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx) {}

    /// Device name shown in hop traces; hosts keep the empty default. The
    /// network reads it when tracing starts
    /// ([`crate::Network::enable_trace`]), or when the node is added if
    /// tracing is already on.
    fn name(&self) -> &str {
        ""
    }

    /// Upcast for downcasting in experiment code.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for downcasting in experiment code.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// A node that silently discards everything (useful as a placeholder peer).
#[derive(Default)]
pub struct BlackHole {
    /// Packets absorbed.
    pub absorbed: u64,
}

impl Node for BlackHole {
    fn on_packet(&mut self, _iface: IfaceId, pkt: Pkt, ctx: &mut Ctx) {
        self.absorbed += 1;
        ctx.recycle(pkt);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
