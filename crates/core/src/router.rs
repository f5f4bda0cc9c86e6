//! The three router roles of the RFC 2547 / paper architecture.
//!
//! * [`CoreRouter`] — a P router / LSR: pure label swapping in the
//!   backbone, plus a plain IP FIB so the same device can serve the
//!   unlabeled baselines. It never sees customer addresses.
//! * [`PeRouter`] — the provider edge: VRFs, two-level label imposition at
//!   the ingress, VPN-label dispatch at the egress, and the DSCP→EXP QoS
//!   mapping (paper §5).
//! * [`CeRouter`] — the customer edge / CPE: classifies and marks traffic
//!   (the CBQ + DiffServ role) and forwards between the site LAN and the
//!   PE uplink.

use std::any::Any;

use netsim_mpls::lfib::{LfibVerdict, LOCAL_IFACE};
use netsim_mpls::{FtnEntry, Lfib};
use netsim_net::{Ip, Layer, LpmCache, LpmTrie, MplsLabel, Pkt, Prefix};
use netsim_obs::DropCause;
use netsim_qos::MarkingPolicy;
use netsim_sim::{Ctx, FxHashMap, IfaceId, Node};

use crate::control::{NodeControl, NodeTables, CTRL_FLOW_BASE};

/// Forwarding counters shared by all router roles. A packet a router
/// drops or absorbs is not counted here: the handler passes it to
/// [`Ctx::discard`] or [`Ctx::absorb`], and the network's flight recorder
/// tallies it against this router.
#[derive(Clone, Copy, Debug, Default)]
pub struct RouterCounters {
    /// Packets forwarded.
    pub forwarded: u64,
    /// Label operations performed (push/swap/pop, counted per packet).
    pub label_ops: u64,
    /// Longest-prefix-match lookups on the forwarding path. In the MPLS
    /// VPN these are a CE's delivery into its site and a PE's ingress and
    /// egress VRF lookups; a P router counts its plain IP FIB lookups,
    /// which only the unlabeled baselines use. An edge device's upstream
    /// check for a local destination is not counted.
    pub lpm_lookups: u64,
}

// ---------------------------------------------------------------------------
// P router
// ---------------------------------------------------------------------------

/// A provider core router (LSR). Interfaces are numbered exactly like the
/// backbone topology's adjacency list for this node.
pub struct CoreRouter {
    /// Device name for traces.
    pub name: String,
    /// The label-switching table.
    pub lfib: Lfib,
    /// Plain IP FIB: prefix → egress interface (used by the unlabeled
    /// baselines; empty in pure-MPLS operation).
    pub fib: LpmTrie<usize>,
    /// Forwarding counters.
    pub counters: RouterCounters,
    /// This router's control plane, in a provider network's backbone
    /// (boxed: the forwarding fields stay together).
    pub(crate) control: Option<Box<NodeControl>>,
}

impl CoreRouter {
    /// Creates a P router with an empty FIB.
    pub fn new(name: impl Into<String>, lfib: Lfib) -> Self {
        CoreRouter {
            name: name.into(),
            lfib,
            fib: LpmTrie::new(),
            counters: RouterCounters::default(),
            control: None,
        }
    }

    /// The control plane (a provider network's backbone routers own one)
    /// and the tables it writes.
    pub(crate) fn control_plane(&mut self) -> Option<(&mut NodeControl, NodeTables<'_>)> {
        let control = self.control.as_deref_mut()?;
        Some((control, NodeTables { lfib: &mut self.lfib, vrfs: None, tunnels: None }))
    }

    fn forward_ip(&mut self, mut pkt: Pkt, ctx: &mut Ctx) {
        self.counters.lpm_lookups += 1;
        let Some(hdr) = pkt.outer_ipv4_mut() else {
            return ctx.discard(pkt, DropCause::NoRoute);
        };
        if !hdr.decrement_ttl() {
            return ctx.discard(pkt, DropCause::Ttl);
        }
        let dst = hdr.dst;
        let Some(&out) = self.fib.lookup(dst) else {
            return ctx.discard(pkt, DropCause::NoRoute);
        };
        self.counters.forwarded += 1;
        ctx.send(IfaceId(out), pkt);
    }
}

impl Node for CoreRouter {
    fn on_packet(&mut self, iface: IfaceId, mut pkt: Pkt, ctx: &mut Ctx) {
        if pkt.meta.flow >= CTRL_FLOW_BASE {
            if let Some((control, mut tables)) = self.control_plane() {
                return control.on_control_packet(iface.0, pkt, &mut tables, ctx);
            }
        }
        if pkt.top_label().is_none() {
            return self.forward_ip(pkt, ctx);
        }
        self.counters.label_ops += 1;
        match self.lfib.forward(&mut pkt) {
            LfibVerdict::Forward { out_iface } if out_iface == LOCAL_IFACE => {
                // A tunnel terminated at this LSR (non-PHP egress, e.g. a
                // bypass LSP merging here): keep forwarding on the newly
                // exposed label.
                self.on_packet(IfaceId(LOCAL_IFACE), pkt, ctx);
            }
            LfibVerdict::Forward { out_iface } => {
                self.counters.forwarded += 1;
                ctx.send(IfaceId(out_iface), pkt);
            }
            LfibVerdict::PoppedToLocal => ctx.absorb(pkt),
            LfibVerdict::TtlExpired => ctx.discard(pkt, DropCause::Ttl),
            LfibVerdict::NoEntry => ctx.discard(pkt, DropCause::NoRoute),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        if let Some((control, mut tables)) = self.control_plane() {
            control.on_iface_timer(token, &mut tables, ctx);
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// PE router
// ---------------------------------------------------------------------------

/// A route in a VRF FIB.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VrfRoute {
    /// The destination is a site attached to this same PE.
    Local {
        /// Customer-facing interface of that site.
        out_iface: usize,
    },
    /// The destination is behind a remote PE: push the VPN label, then the
    /// labels of the tunnel toward `egress_pe` (see
    /// [`PeRouter::resolve_tunnel`]).
    Remote {
        /// Egress PE ordinal: the BGP next hop, resolved through the PE's
        /// tunnel table.
        egress_pe: usize,
        /// VPN label advertised by the egress PE.
        vpn_label: u32,
        /// An explicit TE binding; `None` follows the PE's LDP tunnel
        /// toward `egress_pe`.
        tunnel: Option<FtnEntry>,
    },
}

/// One VRF's data-plane state on a PE. It is named by the VPN whose VRF
/// fills its slot (see `ProviderNetwork::vrf_handle`).
#[derive(Debug, Default)]
pub struct VrfFib {
    /// Per-VRF forwarding table.
    pub fib: LpmTrie<VrfRoute>,
    /// Route cache for ingress (customer → label imposition) lookups.
    ingress_cache: LpmCache,
    /// Route cache for egress (VPN label → local site) lookups.
    egress_cache: LpmCache,
    /// Packets this VRF forwarded (ingress impositions and egress
    /// dispatches alike).
    pub forwarded: u64,
}

impl VrfFib {
    /// Installs a remote route learned from the BGP/MPLS fabric; `tunnel`
    /// is an explicit TE binding, or `None` to follow the PE's LDP tunnel
    /// toward `egress_pe`. A locally attached route for the same prefix
    /// always wins (standard preference for locally originated paths —
    /// this is what keeps a dual-homed site's traffic local at each of its
    /// homes).
    pub fn install_remote(
        &mut self,
        prefix: Prefix,
        egress_pe: usize,
        vpn_label: u32,
        tunnel: Option<FtnEntry>,
    ) {
        if !self.is_local(prefix) {
            self.fib.insert(prefix, VrfRoute::Remote { egress_pe, vpn_label, tunnel });
        }
    }

    /// Removes a remote route. A locally attached route is never removed
    /// this way; returns `false` when one holds the prefix.
    pub fn remove_remote(&mut self, prefix: Prefix) -> bool {
        if self.is_local(prefix) {
            return false;
        }
        self.fib.remove(prefix);
        true
    }

    fn is_local(&self, prefix: Prefix) -> bool {
        matches!(self.fib.get(prefix), Some(VrfRoute::Local { .. }))
    }
}

/// What a PE interface is attached to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeIfaceRole {
    /// Backbone-facing.
    Core,
    /// A customer site in VRF `vrf`.
    Customer {
        /// Index into the PE's VRF table.
        vrf: usize,
    },
}

/// The provider edge router.
pub struct PeRouter {
    /// Device name for traces.
    pub name: String,
    /// Transit LFIB (the PE is also an LSR for through traffic).
    pub lfib: Lfib,
    /// VPN label dispatch: incoming VPN label → VRF index.
    pub vpn_ilm: FxHashMap<u32, usize>,
    /// VRF tables.
    pub vrfs: Vec<VrfFib>,
    /// LDP tunnel table, indexed by egress-PE ordinal: the one place a
    /// BGP next hop meets its LSP, so an LSP change rewrites one slot.
    pub tunnels: Vec<Option<FtnEntry>>,
    /// Role of each interface, indexed by [`IfaceId`].
    iface_roles: Vec<PeIfaceRole>,
    /// Forwarding counters.
    pub counters: RouterCounters,
    /// This router's control plane, in a provider network's backbone
    /// (boxed: the forwarding fields stay together).
    pub(crate) control: Option<Box<NodeControl>>,
}

impl PeRouter {
    /// Creates a PE with `core_ifaces` backbone interfaces (numbered 0..n,
    /// matching the backbone adjacency order) and no customers yet.
    pub fn new(name: impl Into<String>, lfib: Lfib, core_ifaces: usize) -> Self {
        PeRouter {
            name: name.into(),
            lfib,
            vpn_ilm: FxHashMap::default(),
            vrfs: Vec::new(),
            tunnels: Vec::new(),
            iface_roles: vec![PeIfaceRole::Core; core_ifaces],
            counters: RouterCounters::default(),
            control: None,
        }
    }

    /// Adds a VRF, returning its index.
    pub fn add_vrf(&mut self) -> usize {
        self.vrfs.push(VrfFib::default());
        self.vrfs.len() - 1
    }

    /// Declares the next interface (in attachment order) as a customer
    /// port in `vrf`. Must be called in the same order the simulator
    /// connects the access links.
    pub fn attach_customer_iface(&mut self, vrf: usize) -> usize {
        assert!(vrf < self.vrfs.len(), "unknown vrf {vrf}");
        self.iface_roles.push(PeIfaceRole::Customer { vrf });
        self.iface_roles.len() - 1
    }

    /// Installs a local route: `prefix` is reachable via customer
    /// interface `out_iface` in `vrf`.
    pub fn install_local_route(&mut self, vrf: usize, prefix: Prefix, out_iface: usize) {
        self.vrfs[vrf].fib.insert(prefix, VrfRoute::Local { out_iface });
    }

    /// Registers an incoming VPN label as belonging to `vrf`.
    pub fn install_vpn_label(&mut self, label: u32, vrf: usize) {
        self.vpn_ilm.insert(label, vrf);
    }

    /// The tunnel a VPN route rides, resolved recursively (RFC 4364 §5):
    /// its explicit TE binding if it has one, else the `tunnels` entry for
    /// its egress PE. `None` for a local route, or a remote one with
    /// neither. Takes the table rather than `&self` so the forwarding path
    /// can call it while it holds a VRF borrowed for its route cache.
    pub fn resolve_tunnel<'a>(
        tunnels: &'a [Option<FtnEntry>],
        route: &'a VrfRoute,
    ) -> Option<&'a FtnEntry> {
        match route {
            VrfRoute::Local { .. } => None,
            VrfRoute::Remote { tunnel: Some(t), .. } => Some(t),
            VrfRoute::Remote { egress_pe, tunnel: None, .. } => tunnels.get(*egress_pe)?.as_ref(),
        }
    }

    /// The control plane (a provider network's backbone routers own one)
    /// and the tables it writes.
    pub(crate) fn control_plane(&mut self) -> Option<(&mut NodeControl, NodeTables<'_>)> {
        let control = self.control.as_deref_mut()?;
        let (lfib, vrfs, tunnels) = (&mut self.lfib, Some(&mut self.vrfs), Some(&mut self.tunnels));
        Some((control, NodeTables { lfib, vrfs, tunnels }))
    }

    fn handle_customer(&mut self, vrf: usize, mut pkt: Pkt, ctx: &mut Ctx) {
        let Some(hdr) = pkt.outer_ipv4_mut() else {
            return ctx.discard(pkt, DropCause::NoRoute);
        };
        if !hdr.decrement_ttl() {
            return ctx.discard(pkt, DropCause::Ttl);
        }
        let (dst, dscp, ttl) = (hdr.dst, hdr.dscp, hdr.ttl);
        self.counters.lpm_lookups += 1;
        let VrfFib { fib, ingress_cache, .. } = &mut self.vrfs[vrf];
        let Some(route) = fib.lookup_cached(dst, ingress_cache) else {
            return ctx.discard(pkt, DropCause::NoRoute);
        };
        match route {
            VrfRoute::Local { out_iface } => {
                let out_iface = *out_iface;
                self.counters.forwarded += 1;
                self.vrfs[vrf].forwarded += 1;
                ctx.send(IfaceId(out_iface), pkt);
            }
            VrfRoute::Remote { vpn_label, .. } => {
                let Some(tunnel) = PeRouter::resolve_tunnel(&self.tunnels, route) else {
                    return ctx.discard(pkt, DropCause::NoRoute);
                };
                // §5: map the CPE's DiffServ marking into the MPLS QoS field.
                let exp = dscp.default_exp();
                pkt.push_outer(Layer::Mpls(MplsLabel::new(*vpn_label, exp, ttl)));
                self.counters.label_ops += 1;
                if let Some(l) = tunnel.push {
                    pkt.push_outer(Layer::Mpls(MplsLabel::new(l, exp, ttl)));
                    self.counters.label_ops += 1;
                }
                self.counters.forwarded += 1;
                // Fast reroute: if the primary core interface is held down
                // by link-failure detection and a bypass is installed, the
                // LFIB pushes the bypass label and redirects locally.
                let out_iface = match self.lfib.bypass(tunnel.out_iface) {
                    Some(bypass) => self.lfib.impose_bypass(&mut pkt, bypass),
                    None => tunnel.out_iface,
                };
                self.vrfs[vrf].forwarded += 1;
                ctx.send(IfaceId(out_iface), pkt);
            }
        }
    }

    fn dispatch_vpn_label(&mut self, mut pkt: Pkt, ctx: &mut Ctx) {
        let Some(top) = pkt.top_label() else {
            return ctx.discard(pkt, DropCause::NoRoute);
        };
        let Some(&vrf) = self.vpn_ilm.get(&top.label) else {
            // Unknown VPN label: an isolation drop, not a routing miss.
            return ctx.discard(pkt, DropCause::VrfMiss);
        };
        pkt.pop_outer();
        self.counters.label_ops += 1;
        let Some(dst) = pkt.outer_ipv4().map(|h| h.dst) else {
            return ctx.discard(pkt, DropCause::NoRoute);
        };
        self.counters.lpm_lookups += 1;
        let VrfFib { fib, egress_cache, .. } = &mut self.vrfs[vrf];
        match fib.lookup_cached(dst, egress_cache) {
            Some(&VrfRoute::Local { out_iface }) => {
                self.counters.forwarded += 1;
                self.vrfs[vrf].forwarded += 1;
                ctx.send(IfaceId(out_iface), pkt);
            }
            _ => {
                // A VPN label must terminate at a local site; anything else
                // is a misdelivery and is dropped (isolation property).
                ctx.discard(pkt, DropCause::VrfMiss);
            }
        }
    }

    fn handle_core(&mut self, mut pkt: Pkt, ctx: &mut Ctx) {
        let Some(top) = pkt.top_label() else {
            // Unlabeled traffic from the core is addressed to the PE
            // itself (control plane) in this architecture.
            return ctx.absorb(pkt);
        };
        if self.lfib.lookup(top.label).is_some() {
            // Transit LSR role (or non-PHP tunnel egress).
            self.counters.label_ops += 1;
            match self.lfib.forward(&mut pkt) {
                LfibVerdict::Forward { out_iface } if out_iface != LOCAL_IFACE => {
                    self.counters.forwarded += 1;
                    ctx.send(IfaceId(out_iface), pkt);
                }
                LfibVerdict::Forward { .. } | LfibVerdict::PoppedToLocal => {
                    // Tunnel terminated here (non-PHP): what remains is
                    // either another tunnel label (a bypass LSP merging at
                    // this PE) or the VPN label — re-run the split.
                    self.handle_core(pkt, ctx);
                }
                LfibVerdict::TtlExpired => ctx.discard(pkt, DropCause::Ttl),
                _ => ctx.discard(pkt, DropCause::NoRoute),
            }
        } else {
            // PHP already removed the tunnel label: top is the VPN label.
            self.dispatch_vpn_label(pkt, ctx);
        }
    }
}

impl Node for PeRouter {
    fn on_packet(&mut self, iface: IfaceId, pkt: Pkt, ctx: &mut Ctx) {
        if pkt.meta.flow >= CTRL_FLOW_BASE {
            if let Some((control, mut tables)) = self.control_plane() {
                return control.on_control_packet(iface.0, pkt, &mut tables, ctx);
            }
        }
        match self.iface_roles.get(iface.0).copied() {
            Some(PeIfaceRole::Customer { vrf }) => self.handle_customer(vrf, pkt, ctx),
            Some(PeIfaceRole::Core) => self.handle_core(pkt, ctx),
            None => ctx.discard(pkt, DropCause::NoRoute),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        if let Some((control, mut tables)) = self.control_plane() {
            control.on_iface_timer(token, &mut tables, ctx);
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// CE router
// ---------------------------------------------------------------------------

/// The customer edge / CPE device: marks upstream traffic (the paper's CBQ
/// + DiffServ role) and routes between site hosts and the PE uplink.
pub struct CeRouter {
    /// Device name for traces.
    pub name: String,
    /// Interface toward the PE (always interface 0: the access link is
    /// connected before any hosts).
    pub uplink: usize,
    /// Host-facing routes: destination prefix → local interface.
    pub local: LpmTrie<usize>,
    /// Route cache for [`CeRouter::local`] lookups (self-invalidating).
    local_cache: LpmCache,
    /// Upstream classification/marking policy (CPE role). `None` leaves
    /// host markings untouched.
    pub marking: Option<MarkingPolicy>,
    /// Forwarding counters.
    pub counters: RouterCounters,
}

impl CeRouter {
    /// Creates a CE whose uplink is interface 0.
    pub fn new(name: impl Into<String>, marking: Option<MarkingPolicy>) -> Self {
        CeRouter {
            name: name.into(),
            local_cache: LpmCache::default(),
            uplink: 0,
            local: LpmTrie::new(),
            marking,
            counters: RouterCounters::default(),
        }
    }

    /// Registers a host route: `prefix` lives on local interface `iface`.
    pub fn add_host_route(&mut self, prefix: Prefix, iface: usize) {
        self.local.insert(prefix, iface);
    }

    /// Delivers to a local host route. Returns the packet back when no
    /// route exists so the caller owns the drop accounting.
    fn deliver_local(&mut self, dst: Ip, pkt: Pkt, ctx: &mut Ctx) -> Option<Pkt> {
        self.counters.lpm_lookups += 1;
        if let Some(&out) = self.local.lookup_cached(dst, &mut self.local_cache) {
            self.counters.forwarded += 1;
            ctx.send(IfaceId(out), pkt);
            None
        } else {
            Some(pkt)
        }
    }
}

impl Node for CeRouter {
    fn on_packet(&mut self, iface: IfaceId, mut pkt: Pkt, ctx: &mut Ctx) {
        let Some(hdr) = pkt.outer_ipv4_mut() else {
            return ctx.discard(pkt, DropCause::NoRoute);
        };
        if !hdr.decrement_ttl() {
            return ctx.discard(pkt, DropCause::Ttl);
        }
        let dst = hdr.dst;
        if iface.0 == self.uplink {
            // Downstream: from the provider into the site.
            if let Some(pkt) = self.deliver_local(dst, pkt, ctx) {
                ctx.discard(pkt, DropCause::NoRoute);
            }
            return;
        }
        // Upstream from a host. Local destinations short-circuit.
        if self.local.lookup_cached(dst, &mut self.local_cache).is_some() {
            let undelivered = self.deliver_local(dst, pkt, ctx);
            debug_assert!(undelivered.is_none());
            return;
        }
        // CPE classification + marking, then off to the PE. SLA probes are
        // exempt: the probe already carries the DSCP of the class it
        // measures, and remarking it would fold every probe into one class.
        if !pkt.meta.probe {
            if let Some(policy) = &self.marking {
                policy.mark(&mut pkt);
            }
        }
        self.counters.forwarded += 1;
        ctx.send(IfaceId(self.uplink), pkt);
    }

    fn name(&self) -> &str {
        &self.name
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
    use netsim_mpls::lfib::{LabelOp, Nhlfe};
    use netsim_net::addr::{ip, pfx};
    use netsim_net::ip::proto;
    use netsim_net::{Dscp, Packet};
    use netsim_obs::FlightRecorder;
    use netsim_qos::MatchRule;
    use netsim_sim::{LinkConfig, Network, Sink};

    fn fast() -> LinkConfig {
        LinkConfig::new(1_000_000_000, 1000)
    }

    /// A network with a flight recorder attached, and a reader of it.
    fn recorded_network() -> (Network, FlightRecorder) {
        let mut net = Network::new();
        let rec = FlightRecorder::default();
        net.set_recorder(rec.clone());
        (net, rec)
    }

    /// Hand-built two-PE network: host→CE0→PE0→P→PE1→CE1→sink, PHP mode.
    ///
    /// Label plan: PE0 pushes [tunnel=100 above vpn=500]; P is penultimate
    /// and pops 100; PE1 dispatches VPN label 500. Interface numbering is
    /// deterministic (backbone links first), so the routers are fully
    /// configured before wiring.
    #[test]
    fn end_to_end_vpn_path_php() {
        // PE0: core iface 0 (to P), customer iface 1 (to CE0).
        let mut pe0 = PeRouter::new("PE0", Lfib::new(), 1);
        let v0 = pe0.add_vrf();
        pe0.attach_customer_iface(v0); // iface 1
        pe0.tunnels = vec![None, Some(FtnEntry { push: Some(100), out_iface: 0 })];
        pe0.vrfs[v0].install_remote(pfx("10.2.0.0/16"), 1, 500, None);

        // P: iface 0 to PE0, iface 1 to PE1; PHP-pops tunnel label 100.
        let mut p_lfib = Lfib::new();
        p_lfib.install(100, Nhlfe { op: LabelOp::Pop, out_iface: 1 });
        let p = CoreRouter::new("P", p_lfib);

        // PE1: core iface 0 (to P), customer iface 1 (to CE1).
        let mut pe1 = PeRouter::new("PE1", Lfib::new(), 1);
        let v1 = pe1.add_vrf();
        pe1.attach_customer_iface(v1); // iface 1
        pe1.install_vpn_label(500, v1);
        pe1.install_local_route(v1, pfx("10.2.0.0/16"), 1);

        let ce0 = CeRouter::new("CE0", Some(MarkingPolicy::enterprise_default()));
        let mut ce1 = CeRouter::new("CE1", None);
        ce1.add_host_route(pfx("10.2.0.0/16"), 1);

        let mut net = Network::new();
        let pe0_id = net.add_node(Box::new(pe0));
        let p_id = net.add_node(Box::new(p));
        let pe1_id = net.add_node(Box::new(pe1));
        let ce0_id = net.add_node(Box::new(ce0));
        let ce1_id = net.add_node(Box::new(ce1));
        let host_id = net.add_node(Box::new(netsim_sim::node::BlackHole::default()));
        let sink_id = net.add_node(Box::new(Sink::new()));

        // Backbone first so core ifaces are 0.
        net.connect(pe0_id, p_id, fast()); // PE0 if0 ↔ P if0
        net.connect(p_id, pe1_id, fast()); // P if1 ↔ PE1 if0
                                           // Access links: CE uplink is CE iface 0.
        net.connect(ce0_id, pe0_id, fast()); // CE0 if0 ↔ PE0 if1
        net.connect(ce1_id, pe1_id, fast()); // CE1 if0 ↔ PE1 if1
                                             // Hosts.
        net.connect(host_id, ce0_id, fast()); // host if0 ↔ CE0 if1
        net.connect(sink_id, ce1_id, fast()); // sink if0 ↔ CE1 if1

        // Voice packet from site A host to site B.
        let mut pkt = Packet::udp(ip("10.1.0.5"), ip("10.2.0.9"), 30000, 16400, Dscp::BE, 160);
        pkt.meta.flow = 1;
        net.inject(host_id, IfaceId(0), pkt);
        net.run_to_quiescence();

        let sink = net.node_ref::<Sink>(sink_id);
        assert_eq!(sink.total_packets, 1, "packet must traverse the VPN");
        let pe0r = net.node_ref::<PeRouter>(pe0_id);
        assert_eq!(pe0r.counters.forwarded, 1);
        assert_eq!(pe0r.counters.label_ops, 2, "vpn + tunnel push");
        let pr = net.node_ref::<CoreRouter>(p_id);
        assert_eq!(pr.counters.label_ops, 1);
        assert_eq!(pr.counters.lpm_lookups, 0, "the P router never does IP lookups");
        let pe1r = net.node_ref::<PeRouter>(pe1_id);
        assert_eq!(pe1r.counters.forwarded, 1);
    }

    #[test]
    fn pe_drops_unknown_vpn_label() {
        let mut pe = PeRouter::new("PE", Lfib::new(), 1);
        pe.add_vrf();
        let (mut net, rec) = recorded_network();
        let pe_id = net.add_node(Box::new(pe));
        let peer = net.add_node(Box::new(netsim_sim::node::BlackHole::default()));
        net.connect(pe_id, peer, fast());
        let mut pkt = Packet::udp(ip("10.0.0.1"), ip("10.0.0.2"), 1, 2, Dscp::BE, 10);
        pkt.push_outer(Layer::Mpls(MplsLabel::new(999, 0, 64)));
        net.inject(peer, IfaceId(0), pkt);
        net.run_to_quiescence();
        let n = pe_id.0;
        assert_eq!(rec.node_total(n, DropCause::VrfMiss), 1, "an isolation drop");
        assert_eq!(rec.node_total(n, DropCause::NoRoute), 0);
    }

    #[test]
    fn ce_marks_with_policy() {
        let mut policy = MarkingPolicy::new(Dscp::BE);
        policy.push(MatchRule::any().protocol(proto::UDP).dst_port(9999), Dscp::AF41);
        let mut ce = CeRouter::new("CE", Some(policy));
        ce.add_host_route(pfx("10.1.0.0/16"), 1);

        let mut net = Network::new();
        let ce_id = net.add_node(Box::new(ce));
        let pe = net.add_node(Box::new(Sink::new()));
        let host = net.add_node(Box::new(netsim_sim::node::BlackHole::default()));
        net.connect(ce_id, pe, fast()); // uplink = CE if0
        net.connect(host, ce_id, fast()); // host on CE if1
        let pkt = Packet::udp(ip("10.1.0.5"), ip("10.9.0.1"), 5, 9999, Dscp::BE, 10);
        net.inject(host, IfaceId(0), pkt);
        net.run_to_quiescence();
        let sink = net.node_ref::<Sink>(pe);
        assert_eq!(sink.total_packets, 1);
        // The sink saw the marked packet — verify via flow stats existence;
        // marking itself is asserted in the classify unit tests, here we
        // assert the CE forwarded upstream.
        assert_eq!(net.node_ref::<CeRouter>(ce_id).counters.forwarded, 1);
    }

    #[test]
    fn ce_routes_between_local_hosts_without_uplink() {
        let mut ce = CeRouter::new("CE", None);
        ce.add_host_route(pfx("10.1.1.0/24"), 1);
        ce.add_host_route(pfx("10.1.2.0/24"), 2);
        let mut net = Network::new();
        let ce_id = net.add_node(Box::new(ce));
        let pe = net.add_node(Box::new(Sink::new()));
        let h1 = net.add_node(Box::new(netsim_sim::node::BlackHole::default()));
        let h2 = net.add_node(Box::new(Sink::new()));
        net.connect(ce_id, pe, fast());
        net.connect(h1, ce_id, fast());
        net.connect(h2, ce_id, fast());
        let pkt = Packet::udp(ip("10.1.1.5"), ip("10.1.2.7"), 1, 2, Dscp::BE, 10);
        net.inject(h1, IfaceId(0), pkt);
        net.run_to_quiescence();
        assert_eq!(net.node_ref::<Sink>(h2).total_packets, 1, "stays inside the site");
        assert_eq!(net.node_ref::<Sink>(pe).total_packets, 0, "nothing leaks to the uplink");
    }

    #[test]
    fn core_router_ttl_protection() {
        let mut p_lfib = Lfib::new();
        p_lfib.install(7, Nhlfe { op: LabelOp::Swap(8), out_iface: 0 });
        let p = CoreRouter::new("P", p_lfib);
        let (mut net, rec) = recorded_network();
        let p_id = net.add_node(Box::new(p));
        let peer = net.add_node(Box::new(netsim_sim::node::BlackHole::default()));
        net.connect(p_id, peer, fast());
        let mut pkt = Packet::udp(ip("1.1.1.1"), ip("2.2.2.2"), 1, 2, Dscp::BE, 10);
        pkt.push_outer(Layer::Mpls(MplsLabel::new(7, 0, 1)));
        net.inject(peer, IfaceId(0), pkt);
        net.run_to_quiescence();
        let pr = net.node_ref::<CoreRouter>(p_id);
        assert_eq!(rec.node_total(p_id.0, DropCause::Ttl), 1);
        assert_eq!(pr.counters.forwarded, 0);
    }

    /// Robustness: malformed or unroutable inputs are counted and dropped,
    /// never panicking or leaking.
    #[test]
    fn routers_absorb_garbage_gracefully() {
        let (mut net, rec) = recorded_network();
        let mut pe = PeRouter::new("PE", Lfib::new(), 1);
        let v = pe.add_vrf();
        pe.attach_customer_iface(v);
        let pe_id = net.add_node(Box::new(pe));
        let core_peer = net.add_node(Box::new(netsim_sim::node::BlackHole::default()));
        let cust_peer = net.add_node(Box::new(netsim_sim::node::BlackHole::default()));
        net.connect(pe_id, core_peer, fast()); // iface 0 = core
        net.connect(cust_peer, pe_id, fast()); // PE iface 1 = customer

        // 1. A payload-only frame with no headers at all, from the customer.
        net.inject(cust_peer, IfaceId(0), Packet::new(vec![], 4));
        // 2. An unlabeled IP packet arriving from the core (control plane).
        net.inject(
            core_peer,
            IfaceId(0),
            Packet::udp(ip("9.9.9.9"), ip("8.8.8.8"), 1, 2, Dscp::BE, 8),
        );
        // 3. A customer packet with no matching VRF route.
        net.inject(
            cust_peer,
            IfaceId(0),
            Packet::udp(ip("10.0.0.1"), ip("172.31.0.1"), 1, 2, Dscp::BE, 8),
        );
        // 4. A customer packet with TTL 1 (dies at the PE).
        let mut dying = Packet::udp(ip("10.0.0.1"), ip("172.31.0.1"), 1, 2, Dscp::BE, 8);
        dying.outer_ipv4_mut().unwrap().ttl = 1;
        net.inject(cust_peer, IfaceId(0), dying);
        net.run_to_quiescence();

        let per = net.node_ref::<PeRouter>(pe_id);
        assert_eq!(per.counters.forwarded, 0);
        let n = pe_id.0;
        assert_eq!(rec.node_absorbed(n), 1, "unlabeled core packet absorbed");
        assert_eq!(rec.node_total(n, DropCause::NoRoute), 2, "junk + unroutable");
        assert_eq!(rec.node_total(n, DropCause::Ttl), 1);
    }
}
