//! The provider-network builder: turns a backbone topology into a running
//! simulated MPLS VPN service.
//!
//! Construction order (all deterministic):
//!
//! 1. Every backbone router is created with an empty LFIB and a control
//!    plane that knows only the shared configuration ([`crate::control`]).
//! 2. Backbone links are materialized in topology order, so simulator
//!    interface numbers equal topology adjacency positions.
//! 3. Every router starts cold: its own SPF over the configured links of
//!    its domain ([`BackboneBuilder::domains`]; inter-AS links never
//!    count), then LDP label distribution for one tunnel FEC per PE, as the
//!    per-router deltas the routers run afterwards. The simulator runs at
//!    t = 0 until those messages drain over the zero-latency transport.
//!    [`ProviderNetwork::reconverge`] is the same cold restart.
//! 4. VPNs and sites are added through [`ProviderNetwork::new_vpn`] /
//!    [`ProviderNetwork::add_site`]; the BGP/MPLS fabric selects the
//!    routes and each change reaches the PE data planes as an MP-BGP
//!    delta, a control message from the origin PE
//!    ([`crate::control`]). Under either transport it lands when the
//!    simulator runs; under the oracle, at the instant it was sent.

use std::collections::HashSet;
use std::rc::Rc;

use netsim_mpls::walk::{walk, LabelTables, Walk};
use netsim_mpls::Lfib;
use netsim_net::{Ip, Prefix};
use netsim_obs::FlightRecorder;
use netsim_qos::sched::PriorityScheduler;
use netsim_qos::{
    queue::class_by_exp_or_dscp, ClassOf, DrrScheduler, FifoQueue, MarkingPolicy, Nanos,
    QueueDiscipline, RedParams, RedQueue, WfqScheduler,
};
use netsim_routing::{
    BgpVpnFabric, PrefixChange, RemoteRoute, RouteChange, RouteDistinguisher, RouteTarget,
    Topology, VrfHandle,
};
use netsim_sim::{
    CbrSource, Ctx, LinkConfig, LinkId, Network, Node, NodeId, OnOffSource, PoissonSource, Sink,
    SourceConfig,
};

use crate::control::{ControlConfig, ControlMode, CtrlMsg, CtrlStats, NodeControl, NodeTables};
use crate::router::{CeRouter, CoreRouter, PeRouter, VrfRoute};

/// Handle to a VPN created on a provider network.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VpnId(pub usize);

/// Handle to a customer site.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SiteId(pub usize);

/// Scheduler family used by the DiffServ core profile (ablation knob for
/// experiment Q1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DsSched {
    /// Strict priority by EXP (EF rides band 5).
    Priority,
    /// WFQ with weights rising with EXP.
    Wfq,
    /// DRR with quanta rising with EXP.
    Drr,
}

/// QoS profile applied to every backbone link egress.
#[derive(Clone, Copy, Debug)]
pub enum CoreQos {
    /// One best-effort FIFO (the paper's "IP VPNs cannot guarantee QoS"
    /// configuration).
    BestEffort {
        /// Buffer size per egress, bytes.
        cap_bytes: usize,
    },
    /// DiffServ-over-MPLS: classful scheduling on the EXP bits, RED on the
    /// assured-forwarding bands.
    DiffServ {
        /// Total buffer per egress, bytes.
        cap_bytes: usize,
        /// Scheduler family.
        sched: DsSched,
    },
}

/// The RED profile of each AF band (EXP 1–4) of a [`DsSched::Priority`]
/// egress holding `cap_bytes`, with the band's buffer: each of the eight
/// bands gets an eighth.
pub(crate) fn af_band_red(cap_bytes: usize) -> (RedParams, usize) {
    let per_band = cap_bytes / 8;
    (RedParams::new(per_band / 4, per_band * 3 / 4), per_band)
}

/// Builds a core-link egress discipline from a [`CoreQos`] profile (shared
/// with the baseline networks so comparisons hold the queueing constant).
pub fn make_core_qdisc(q: &CoreQos, seed: u64) -> Box<dyn QueueDiscipline> {
    let (cap_bytes, sched) = match *q {
        CoreQos::BestEffort { cap_bytes } => return Box::new(FifoQueue::new(cap_bytes)),
        CoreQos::DiffServ { cap_bytes, sched } => (cap_bytes, sched),
    };
    let class: ClassOf = class_by_exp_or_dscp();
    match sched {
        DsSched::Priority => {
            let (red, per_band) = af_band_red(cap_bytes);
            let bands = (0..8u64).map(|exp| -> Box<dyn QueueDiscipline> {
                match exp {
                    // AF bands (1..=4): RED keeps queues short.
                    1..=4 => Box::new(RedQueue::new(per_band, red, seed ^ exp, 12_000)),
                    // EF (5): shallow buffer for low delay.
                    5 => Box::new(FifoQueue::new(per_band / 2)),
                    _ => Box::new(FifoQueue::new(per_band)),
                }
            });
            Box::new(PriorityScheduler::new(bands.collect(), class))
        }
        DsSched::Wfq => {
            // Weights: BE=1, AF1..4 = 2,4,6,8, EF=32, control=4.
            let weights = [1u64, 2, 4, 6, 8, 32, 4, 4];
            Box::new(WfqScheduler::new(&weights, cap_bytes / 8, class))
        }
        DsSched::Drr => {
            let quanta = [1500usize, 3000, 6000, 9000, 12000, 48000, 6000, 6000];
            Box::new(DrrScheduler::new(&quanta, cap_bytes / 8, class))
        }
    }
}

/// Everything known about one customer site.
#[derive(Debug)]
pub struct SiteInfo {
    /// The VPN the site belongs to.
    pub vpn: VpnId,
    /// PE ordinal the site is homed on.
    pub pe: usize,
    /// The site's address block.
    pub prefix: Prefix,
    /// CE node in the simulator.
    pub ce: NodeId,
    /// Access link (CE↔PE); direction 0 is CE→PE.
    pub access_link: LinkId,
    /// The VPN label the site's prefix is advertised under: the one
    /// advertisement a detach withdraws.
    pub label: u32,
    /// The PE's interface toward the CE (32 bits, so the record stays
    /// six words).
    pub(crate) pe_iface: u32,
}

pub(crate) struct VpnInfo {
    pub(crate) name: String,
    pub(crate) rt: RouteTarget,
    pub(crate) rd: RouteDistinguisher,
}

/// Propagation delay of every backbone link: 1 ms per hop.
const BACKBONE_HOP_DELAY_NS: Nanos = 1_000_000;

/// Builder for a [`ProviderNetwork`].
pub struct BackboneBuilder {
    topo: Topology,
    pes: Vec<usize>,
    domains: Vec<usize>,
    php: bool,
    core_qos: CoreQos,
    access_rate_bps: u64,
    access_delay_ns: Nanos,
    seed: u64,
    detect_ns: Nanos,
    control_mode: ControlMode,
}

impl BackboneBuilder {
    /// Starts a builder over `topo`; `pes` lists the topology nodes acting
    /// as provider edges (the rest are P routers). With no PE, the
    /// backbone is a plain IP core.
    pub fn new(topo: Topology, pes: Vec<usize>) -> Self {
        assert!(pes.iter().all(|&p| p < topo.node_count()), "PE out of range");
        BackboneBuilder {
            domains: vec![0; topo.node_count()],
            topo,
            pes,
            php: true,
            core_qos: CoreQos::BestEffort { cap_bytes: 256 * 1024 },
            access_rate_bps: 100_000_000,
            access_delay_ns: 100_000,
            seed: 1,
            detect_ns: 50_000_000, // 50 ms: ~3 missed BFD hellos at slow timers
            control_mode: ControlMode::Oracle,
        }
    }

    /// Puts each backbone node in a routing domain (a carrier); all share
    /// domain 0 by default. A link whose ends lie in different domains is
    /// an inter-AS link: no router's IGP ever believes it up, so SPF, LSAs
    /// and LDP sessions stop at it, and cutting it floods nothing. Its ends
    /// must be PEs, the ASBRs, and MP-BGP crosses it only between them:
    /// each re-advertises a route from its own domain under a label of its
    /// own (RFC 4364 §10(b), option B).
    pub fn domains(mut self, domains: Vec<usize>) -> Self {
        assert_eq!(domains.len(), self.topo.node_count(), "one domain per backbone node");
        self.domains = domains;
        self
    }

    /// Selects how control messages travel: handed over at once by the
    /// zero-latency [`ControlMode::Oracle`] (default) or carried as packets
    /// by the in-band [`ControlMode::InBand`].
    pub fn control_mode(mut self, m: ControlMode) -> Self {
        self.control_mode = m;
        self
    }

    /// Sets the link-failure detection delay (BFD hold time): how long
    /// after a cut the adjacent routers learn the interface is down and
    /// fast reroute can switch over.
    pub fn detection(mut self, ns: Nanos) -> Self {
        self.detect_ns = ns;
        self
    }

    /// Enables or disables penultimate-hop popping.
    pub fn php(mut self, on: bool) -> Self {
        self.php = on;
        self
    }

    /// Sets the backbone QoS profile.
    pub fn core_qos(mut self, q: CoreQos) -> Self {
        self.core_qos = q;
        self
    }

    /// Sets access link rate and delay for subsequently added sites.
    pub fn access(mut self, rate_bps: u64, delay_ns: Nanos) -> Self {
        self.access_rate_bps = rate_bps;
        self.access_delay_ns = delay_ns;
        self
    }

    /// Seeds the RED queues (determinism knob).
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Materializes the simulated network and brings its control planes
    /// up from a cold start.
    pub fn build(self) -> ProviderNetwork {
        let mut net = Network::new();
        // Observability is always on: one flight recorder in the engine,
        // which every router reaches through its handler context.
        net.set_recorder(FlightRecorder::default());
        let inter_as: Vec<usize> = (0..self.topo.link_count())
            .filter(|&l| {
                let (u, v, _) = self.topo.link(l);
                self.domains[u] != self.domains[v]
            })
            .collect();
        for &l in &inter_as {
            let (u, v, _) = self.topo.link(l);
            assert!(
                self.pes.contains(&u) && self.pes.contains(&v),
                "inter-AS link {l} must join two PEs (ASBRs)"
            );
        }
        let cfg = Rc::new(ControlConfig {
            topo: self.topo.clone(),
            pes: self.pes.clone(),
            domains: self.domains,
            inter_as,
            php: self.php,
            mode: self.control_mode,
        });
        // Every backbone router owns its control plane in either mode.
        let mut node_ids = Vec::with_capacity(self.topo.node_count());
        for u in 0..self.topo.node_count() {
            let control = Some(Box::new(NodeControl::new(Rc::clone(&cfg), u)));
            let id = if let Some(k) = self.pes.iter().position(|&pe| pe == u) {
                let mut pe = PeRouter::new(format!("PE{k}"), Lfib::new(), self.topo.degree(u));
                pe.control = control;
                net.add_node(Box::new(pe))
            } else {
                let mut p = CoreRouter::new(format!("P{u}"), Lfib::new());
                p.control = control;
                net.add_node(Box::new(p))
            };
            node_ids.push(id);
        }
        // Materialize backbone links in id order, before any other link:
        // interface numbers now equal positions in `Topology::neighbors`,
        // which the control planes assume, and simulator link ids equal
        // topology link ids, so the engine's enabled bit is the one record
        // of a failed link.
        for l in 0..self.topo.link_count() {
            let (u, v, attrs) = self.topo.link(l);
            let cfg = LinkConfig::new(attrs.capacity_bps, BACKBONE_HOP_DELAY_NS);
            let qa = make_core_qdisc(&self.core_qos, self.seed.wrapping_add(l as u64 * 2));
            let qb = make_core_qdisc(&self.core_qos, self.seed.wrapping_add(l as u64 * 2 + 1));
            let (id, _, _) = net.connect_with_qdiscs(node_ids[u], node_ids[v], cfg, cfg, qa, qb);
            debug_assert_eq!(id, LinkId(l));
        }

        let links = self.topo.link_count();
        let mut pn = ProviderNetwork {
            net,
            topo: self.topo,
            fabric: BgpVpnFabric::new(self.pes.len()),
            node_ids,
            vrf_vpns: vec![Vec::new(); self.pes.len()],
            pes: self.pes,
            cfg,
            vpns: Vec::new(),
            sites: Vec::new(),
            access_rate_bps: self.access_rate_bps,
            access_delay_ns: self.access_delay_ns,
            link_seq: vec![0; links],
            detect_ns: self.detect_ns,
            core_qos: self.core_qos,
            extranets: Vec::new(),
            ef_contracts: Vec::new(),
            trunks: Vec::new(),
            probes: Vec::new(),
        };
        pn.restart();
        pn
    }
}

/// One row of [`ProviderNetwork::vrf_digest`]: the prefix plus `None`
/// for a locally attached route or `Some((egress_pe, vpn_label,
/// tunnel_path))` for a remote one.
pub type VrfDigestRow = (Prefix, Option<(usize, u32, Option<Vec<usize>>)>);

/// A running MPLS VPN provider network.
pub struct ProviderNetwork {
    /// The simulator (public: experiments drive it directly).
    pub net: Network,
    /// The backbone topology.
    pub topo: Topology,
    /// The BGP/MPLS VPN route fabric: every VPN routing change enters
    /// through this network, which sends what it changed as MP-BGP deltas.
    pub(crate) fabric: BgpVpnFabric,
    pub(crate) node_ids: Vec<NodeId>,
    pub(crate) pes: Vec<usize>,
    /// The configuration every backbone router's control plane reads.
    cfg: Rc<ControlConfig>,
    pub(crate) vpns: Vec<VpnInfo>,
    /// All sites added so far, indexed by [`SiteId`].
    pub sites: Vec<SiteInfo>,
    /// Per PE ordinal, the VPN of each VRF slot in creation order. A slot
    /// is the VRF's index on the PE router and in the fabric alike, so
    /// `VrfHandle { pe, index }` names VPN `vrf_vpns[pe][index]`'s VRF.
    pub(crate) vrf_vpns: Vec<Vec<VpnId>>,
    access_rate_bps: u64,
    access_delay_ns: Nanos,
    /// Per-link event sequence, bumped once per fail/repair and written
    /// into both endpoint routers, so both originate the same LSA.
    link_seq: Vec<u64>,
    pub(crate) detect_ns: Nanos,
    pub(crate) core_qos: CoreQos,
    pub(crate) extranets: Vec<(VpnId, VpnId)>,
    pub(crate) ef_contracts: Vec<netsim_verify::EfContract>,
    /// The admitted TE trunks ([`ProviderNetwork::admit_trunk`]): the one
    /// record of their reservations and LSPs.
    pub(crate) trunks: Vec<netsim_verify::Trunk>,
    pub(crate) probes: Vec<crate::obs::ProbeSpec>,
}

impl ProviderNetwork {
    /// Whether the backbone runs penultimate-hop popping.
    pub fn php(&self) -> bool {
        self.cfg.php
    }

    /// Number of PEs.
    pub fn pe_count(&self) -> usize {
        self.pes.len()
    }

    /// Simulator node of PE ordinal `k`.
    pub fn pe_node(&self, k: usize) -> NodeId {
        self.node_ids[self.pes[k]]
    }

    /// Simulator node of backbone topology node `u`.
    pub fn backbone_node(&self, u: usize) -> NodeId {
        self.node_ids[u]
    }

    /// Declares a new VPN; its sites will all import/export one route
    /// target.
    ///
    /// # Panics
    /// Panics if a VPN of the same name already exists: the name keys the
    /// VPN's `vrf.<name>.pe<k>.forwarded` metrics rows.
    pub fn new_vpn(&mut self, name: impl Into<String>) -> VpnId {
        let name = name.into();
        assert!(self.vpns.iter().all(|v| v.name != name), "VPN name {name:?} already in use");
        let id = VpnId(self.vpns.len());
        self.vpns.push(VpnInfo {
            name,
            rt: RouteTarget(100 + id.0 as u64),
            rd: RouteDistinguisher::new(65000, 1 + id.0 as u32),
        });
        id
    }

    /// The display name of a VPN.
    pub fn vpn_name(&self, vpn: VpnId) -> &str {
        &self.vpns[vpn.0].name
    }

    /// Adds a customer site: a CE homed on PE ordinal `pe`, owning
    /// `prefix`, optionally with a CPE marking policy. This is the paper's
    /// "one PE touch" provisioning action.
    pub fn add_site(
        &mut self,
        vpn: VpnId,
        pe: usize,
        prefix: Prefix,
        marking: Option<MarkingPolicy>,
    ) -> SiteId {
        assert!(pe < self.pes.len(), "unknown PE ordinal {pe}");
        let pe_topo = self.pes[pe];
        let pe_node = self.node_ids[pe_topo];

        // Ensure the VRF exists on this PE: the fabric and the PE router
        // create it together, in the same slot.
        let vrf = match self.vrf_handle(pe, vpn) {
            Some(vrf) => vrf,
            None => {
                let info = &self.vpns[vpn.0];
                let (vrf, routes) = self.fabric.add_vrf(pe, info.rd, vec![info.rt], vec![info.rt]);
                let slot = self.net.node_mut::<PeRouter>(pe_node).add_vrf();
                assert_eq!(vrf.index, slot, "fabric and PE VRF numbering out of sync");
                self.vrf_vpns[pe].push(vpn);
                // The new VRF's initial route download is local to the one
                // touched PE; afterwards only deltas arrive.
                self.apply_local(vrf, &routes);
                vrf
            }
        };

        // CE device + access link (CE first so its uplink is iface 0).
        let ce =
            CeRouter::new(format!("CE-{}-s{}", self.vpns[vpn.0].name, self.sites.len()), marking);
        let ce_id = self.net.add_node(Box::new(ce));
        let cfg = LinkConfig::new(self.access_rate_bps, self.access_delay_ns);
        let (access_link, _ce_if, pe_if) = self.net.connect(ce_id, pe_node, cfg);
        let declared = self.net.node_mut::<PeRouter>(pe_node).attach_customer_iface(vrf.index);
        assert_eq!(declared, pe_if.0, "PE interface numbering out of sync");

        // Advertise and install.
        let (label, changed) = self.fabric.advertise(vrf, prefix);
        {
            let per = self.net.node_mut::<PeRouter>(pe_node);
            per.install_local_route(vrf.index, prefix, pe_if.0);
            per.install_vpn_label(label, vrf.index);
        }
        // One MP-BGP update (VPN label piggybacked, §4) to every VRF whose
        // best path is now this route. The fabric never imports a PE's own
        // routes, so every target is remote.
        self.send_changes(pe, prefix, changed, false);

        let site = SiteId(self.sites.len());
        self.sites.push(SiteInfo {
            vpn,
            pe,
            prefix,
            ce: ce_id,
            access_link,
            label,
            pe_iface: u32::try_from(pe_if.0).expect("PE interface numbers fit 32 bits"),
        });
        site
    }

    /// Detaches a site: withdraws its prefix from the fabric, removes the
    /// homing PE's local route and VPN-label dispatch, and takes the
    /// access link down. If the same prefix is still advertised from
    /// another PE (a dual-homed site), every importer fails over to the
    /// surviving home. Only the site's own advertisement is withdrawn: when
    /// another attached site of the VPN on the same PE owns the same
    /// prefix, the PE's local route moves to that site's access
    /// interface. Detaching a site again does nothing.
    pub fn detach_site(&mut self, site: SiteId) {
        let SiteInfo { vpn, pe, prefix, access_link, label, .. } = self.sites[site.0];
        if !self.net.link_enabled(access_link) {
            return; // already detached: its label may serve another site now
        }
        let vrf = self.expect_vrf(pe, vpn);
        let changed = self.fabric.withdraw(vrf, prefix, label);
        let heir = self
            .sites
            .iter()
            .enumerate()
            .find(|&(i, s)| {
                i != site.0
                    && (s.vpn, s.pe, s.prefix) == (vpn, pe, prefix)
                    && self.net.link_enabled(s.access_link)
            })
            .map(|(_, s)| s.pe_iface as usize);
        {
            let per = self.net.node_mut::<PeRouter>(self.pe_node(pe));
            match heir {
                Some(iface) => per.install_local_route(vrf.index, prefix, iface),
                None => {
                    per.vrfs[vrf.index].fib.remove(prefix);
                }
            }
            per.vpn_ilm.remove(&label);
        }
        self.net.set_link_enabled(access_link, false);
        // The detaching PE is the one touched device: with no local owner
        // left, it fails over locally to the route its local one masked
        // (a dual-homed site).
        if let Some(&masked) = self.fabric.routes(vrf).get(prefix).filter(|_| heir.is_none()) {
            self.apply_local(vrf, &[(prefix, Some(masked))]);
        }
        // Each VRF that held the withdrawn route gets a withdraw carrying
        // its replacement, if any.
        self.send_changes(pe, prefix, changed, true);
    }

    /// The one MP-BGP sender of fabric changes: sends each VRF in
    /// `changed` its delta for `prefix` from PE `origin_pe`, in `(pe, vpn)`
    /// order. The delta is a withdraw carrying the new route, if any, when
    /// `withdraw` is set or no route is left, and an update otherwise.
    fn send_changes(
        &mut self,
        origin_pe: usize,
        prefix: Prefix,
        mut changed: Vec<RouteChange>,
        withdraw: bool,
    ) {
        changed.sort_unstable_by_key(|(h, _)| (h.pe, self.vrf_vpns[h.pe][h.index].0));
        for (VrfHandle { pe: target, index: vrf_idx }, now) in changed {
            let msg = match now.map(|r| (r.egress_pe, r.vpn_label)) {
                Some((egress_pe, vpn_label)) if !withdraw => {
                    CtrlMsg::BgpUpdate { target, vrf_idx, prefix, egress_pe, vpn_label }
                }
                replacement => CtrlMsg::BgpWithdraw { target, vrf_idx, prefix, replacement },
            };
            self.send_bgp(origin_pe, msg);
        }
    }

    /// Sends an MP-BGP delta from PE `origin_pe` toward its target PE
    /// along the origin's view of the shortest path (counted undeliverable
    /// when there is none). It is a control packet under either
    /// transport, so it changes the target's VRF when the simulator next
    /// runs: at the current instant under the oracle.
    fn send_bgp(&mut self, origin_pe: usize, msg: CtrlMsg) {
        self.with_control(self.pes[origin_pe], |control, tables, ctx| {
            control.originate_bgp(msg, tables.lfib, ctx);
        });
    }

    /// Whether PE ordinals `a` and `b` lie in one domain.
    pub(crate) fn same_domain(&self, a: usize, b: usize) -> bool {
        self.cfg.domains[self.pes[a]] == self.cfg.domains[self.pes[b]]
    }

    /// The one local apply of fabric changes: writes each prefix's new
    /// route (`None`: removed) into `vrf`'s slot of its PE, installing over
    /// the PE's current tunnels — a local step at the one PE that owns the
    /// VRF. A route from another domain reaches the VRF only through the
    /// ASBRs, so its origin PE sends it as an MP-BGP update instead.
    fn apply_local(&mut self, vrf: VrfHandle, changes: &[PrefixChange]) {
        let VrfHandle { pe, index: vrf_idx } = vrf;
        let cfg = Rc::clone(&self.cfg);
        let home = |r: &RemoteRoute| cfg.domains[cfg.pes[r.egress_pe]] == cfg.domains[cfg.pes[pe]];
        self.with_control(self.pes[pe], |control, tables, _| {
            let fib = &mut tables.vrfs.as_deref_mut().expect("a PE lends its VRFs")[vrf_idx];
            for &(prefix, now) in changes {
                match now {
                    None => {
                        fib.remove_remote(prefix);
                    }
                    Some(r) if home(&r) => {
                        control.install_route(fib, prefix, r.egress_pe, r.vpn_label);
                    }
                    Some(_) => {}
                }
            }
        });
        for &(prefix, now) in changes {
            if let Some(RemoteRoute { egress_pe, vpn_label, .. }) = now.filter(|r| !home(r)) {
                let msg = CtrlMsg::BgpUpdate { target: pe, vrf_idx, prefix, egress_pe, vpn_label };
                self.send_bgp(egress_pe, msg);
            }
        }
    }

    /// Re-installs every VRF's imported routes as LDP-following, which
    /// clears TE overrides. A route from another domain is left as it is:
    /// it rides an ASBR's stitch, which the cold restart kept. Only
    /// [`ProviderNetwork::reconverge`] calls this.
    fn sync_remote_routes(&mut self) {
        let vrfs: Vec<VrfHandle> = self.vrfs().map(|(vrf, _)| vrf).collect();
        for vrf in vrfs {
            let routes: Vec<_> = self
                .fabric
                .routes(vrf)
                .iter()
                .filter(|(_, r)| self.same_domain(vrf.pe, r.egress_pe))
                .map(|(p, r)| (p, Some(*r)))
                .collect();
            self.apply_local(vrf, &routes);
        }
    }

    /// Attaches a measuring sink host at `site` answering for
    /// `host_prefix` (must lie inside the site prefix). Returns the sink's
    /// node id.
    pub fn attach_sink(&mut self, site: SiteId, host_prefix: Prefix) -> NodeId {
        self.attach_site_host(site, host_prefix, Box::new(Sink::new()))
    }

    /// Attaches a CBR source host at `site` sending per `cfg` every
    /// `interval` ns (bounded to `count` packets if given), from the
    /// current instant on. Returns the source node id.
    pub fn attach_cbr_source(
        &mut self,
        site: SiteId,
        cfg: SourceConfig,
        interval: Nanos,
        count: Option<u64>,
    ) -> NodeId {
        let src = CbrSource::new(cfg, interval, count);
        self.net.attach_source(self.sites[site.0].ce, Box::new(src)).0
    }

    /// Attaches a Poisson source host (mean gap `mean_interval`, stops at
    /// `until` if given).
    pub fn attach_poisson_source(
        &mut self,
        site: SiteId,
        cfg: SourceConfig,
        mean_interval: Nanos,
        seed: u64,
        until: Option<Nanos>,
    ) -> NodeId {
        let src = PoissonSource::new(cfg, mean_interval, seed, until);
        self.net.attach_source(self.sites[site.0].ce, Box::new(src)).0
    }

    /// Attaches a bursty on-off source host.
    #[allow(clippy::too_many_arguments)] // mirrors the OnOffSource constructor
    pub fn attach_onoff_source(
        &mut self,
        site: SiteId,
        cfg: SourceConfig,
        interval: Nanos,
        mean_on: Nanos,
        mean_off: Nanos,
        seed: u64,
        until: Option<Nanos>,
    ) -> NodeId {
        let src = OnOffSource::new(cfg, interval, mean_on, mean_off, seed, until);
        self.net.attach_source(self.sites[site.0].ce, Box::new(src)).0
    }

    /// Attaches a closed-loop TCP-like source at `site`. Unlike the open-
    /// loop sources, its host address gets a return route on the CE so
    /// ACKs can reach it. `ecn` marks segments ECT(0) and reacts to echoed
    /// CE. Returns the source node id.
    pub fn attach_tcp_source(
        &mut self,
        site: SiteId,
        cfg: SourceConfig,
        until: Option<Nanos>,
        ecn: bool,
    ) -> NodeId {
        let ce = self.sites[site.0].ce;
        let src_addr = cfg.src;
        let mut tcp = netsim_sim::TcpSource::new(cfg, until);
        if ecn {
            tcp = tcp.with_ecn();
        }
        let (src, ce_if) = self.net.attach_source(ce, Box::new(tcp));
        self.net.node_mut::<CeRouter>(ce).add_host_route(Prefix::host(src_addr), ce_if.0);
        src
    }

    /// Attaches an acking TCP sink serving `host_prefix` at `site`.
    pub fn attach_tcp_sink(&mut self, site: SiteId, host_prefix: Prefix) -> NodeId {
        self.attach_site_host(site, host_prefix, Box::new(netsim_sim::TcpSink::new()))
    }

    /// Hangs `host` off the site's CE, which routes `host_prefix` to it.
    fn attach_site_host(
        &mut self,
        site: SiteId,
        host_prefix: Prefix,
        host: Box<dyn Node>,
    ) -> NodeId {
        let info = &self.sites[site.0];
        assert!(info.prefix.overlaps(host_prefix), "host prefix outside the site block");
        let ce = info.ce;
        let (host, ce_if) = self.net.attach_host(ce, host);
        self.net.node_mut::<CeRouter>(ce).add_host_route(host_prefix, ce_if.0);
        host
    }

    /// A convenience address inside a site's prefix.
    pub fn site_addr(&self, site: SiteId, host: u32) -> Ip {
        self.sites[site.0].prefix.nth(host)
    }

    /// Runs the simulation for `duration` ns.
    pub fn run_for(&mut self, duration: Nanos) {
        let end = self.net.now() + duration;
        self.net.run_until(end);
    }

    /// Runs the simulation until all events drain.
    pub fn run_to_quiescence(&mut self) {
        self.net.run_to_quiescence();
    }

    /// Signals an explicit-route LSP along `path` (backbone topology node
    /// ids) directly into the running routers — the RSVP-TE role. Labels
    /// come from each node's platform label space, so they can never alias
    /// LDP or VPN labels. Returns the ingress FTN for the new tunnel.
    ///
    /// # Panics
    /// Panics on a path shorter than 2 nodes, repeated nodes, or
    /// non-adjacent consecutive nodes.
    pub fn install_explicit_lsp(&mut self, path: &[usize]) -> netsim_mpls::FtnEntry {
        use netsim_mpls::lfib::{LabelOp, Nhlfe, LOCAL_IFACE};
        assert!(path.len() >= 2, "an LSP needs at least ingress and egress");
        {
            let mut seen = HashSet::new();
            assert!(path.iter().all(|&u| seen.insert(u)), "explicit route must be loop-free");
        }
        let php = self.cfg.php;
        let mut label_in: Vec<Option<u32>> = vec![None; path.len()];
        for i in (1..path.len()).rev() {
            let is_egress = i == path.len() - 1;
            label_in[i] = if is_egress && php {
                None
            } else {
                Some(self.with_control(path[i], |control, _, _| control.labels.allocate()))
            };
        }
        for (i, &u) in path.iter().enumerate() {
            let is_egress = i == path.len() - 1;
            let out_iface =
                if is_egress { LOCAL_IFACE } else { self.topo.iface_toward(u, path[i + 1]) };
            let out_label = if is_egress { None } else { label_in[i + 1] };
            if let Some(inl) = label_in[i] {
                let op = out_label.map_or(LabelOp::Pop, LabelOp::Swap);
                let nhlfe = Nhlfe { op, out_iface };
                self.with_control(u, |_, tables, _| tables.lfib.install(inl, nhlfe));
            }
        }
        netsim_mpls::FtnEntry {
            push: label_in[1],
            out_iface: self.topo.iface_toward(path[0], path[1]),
        }
    }

    /// Backbone node `u`'s LFIB and control plane, PE or P alike.
    pub(crate) fn backbone(&self, u: usize) -> (&Lfib, &NodeControl) {
        let id = self.node_ids[u];
        let (lfib, control) = if self.pes.contains(&u) {
            let r = self.net.node_ref::<PeRouter>(id);
            (&r.lfib, &r.control)
        } else {
            let r = self.net.node_ref::<CoreRouter>(id);
            (&r.lfib, &r.control)
        };
        (lfib, control.as_deref().expect("backbone routers own a control plane"))
    }

    /// Runs `f` on backbone node `u`'s control plane with the tables it
    /// writes and a handler context, PE or P alike; what it sends moves
    /// when the simulator next runs.
    pub(crate) fn with_control<R>(
        &mut self,
        u: usize,
        f: impl FnOnce(&mut NodeControl, &mut NodeTables<'_>, &mut Ctx) -> R,
    ) -> R {
        let id = self.node_ids[u];
        let missing = "backbone routers own a control plane";
        if self.pes.contains(&u) {
            self.net.with_node(id, |r: &mut PeRouter, ctx| {
                let (control, mut tables) = r.control_plane().expect(missing);
                f(control, &mut tables, ctx)
            })
        } else {
            self.net.with_node(id, |r: &mut CoreRouter, ctx| {
                let (control, mut tables) = r.control_plane().expect(missing);
                f(control, &mut tables, ctx)
            })
        }
    }

    /// Every backbone router's control plane, in topology order.
    fn controls(&self) -> impl Iterator<Item = &NodeControl> {
        (0..self.topo.node_count()).map(|u| self.backbone(u).1)
    }

    // -- RT policy deltas ---------------------------------------------------

    /// Adds an import route target to the VRF for `vpn` at PE `pe` and
    /// applies the resulting route deltas. An RT-policy change is a local
    /// Adj-RIB-In re-filtering — zero control messages in either mode;
    /// only the one touched PE's data plane changes.
    pub fn add_import_target(&mut self, pe: usize, vpn: VpnId, rt: RouteTarget) {
        let vrf = self.expect_vrf(pe, vpn);
        let changes = self.fabric.add_import_target(vrf, rt);
        self.apply_local(vrf, &changes);
    }

    /// Removes an import route target from the VRF for `vpn` at PE `pe`
    /// and applies the resulting route deltas (withdrawing imports that no
    /// longer match any policy).
    pub fn remove_import_target(&mut self, pe: usize, vpn: VpnId, rt: RouteTarget) {
        let vrf = self.expect_vrf(pe, vpn);
        let changes = self.fabric.remove_import_target(vrf, rt);
        self.apply_local(vrf, &changes);
    }

    // -- control-plane observability & parity hooks -------------------------

    /// Control-plane counters, summed over every backbone router. Always
    /// `Some`: every router owns its control plane under both transports;
    /// under the oracle the byte counters stay 0.
    pub fn control_stats(&self) -> Option<CtrlStats> {
        let mut sum = CtrlStats::default();
        for c in self.controls() {
            sum += &c.stats;
        }
        Some(sum)
    }

    /// LDP adjacencies: backbone links whose two routers each hold a
    /// label the other advertised.
    pub fn ldp_adjacencies(&self) -> u64 {
        let up = |a: usize, b: usize| self.backbone(a).1.holds_labels_from(b);
        let links = (0..self.topo.link_count()).map(|l| self.topo.link(l));
        links.filter(|&(a, b, _)| up(a, b) && up(b, a)).count() as u64
    }

    /// Labels allocated and not released, summed over every backbone
    /// router's label space: LDP bindings plus explicit-LSP labels.
    pub fn live_labels(&self) -> u64 {
        self.controls().map(|c| c.labels.live()).sum()
    }

    /// Route installs skipped for lack of an LSP toward the egress.
    pub fn no_lsp_to_egress(&self) -> u64 {
        self.controls().map(|c| c.stats.no_lsp_to_egress).sum()
    }

    /// Convergence-latency quantiles (p50, p99, max) in ns of LSA
    /// application at every router — the propagation + processing
    /// component of an outage window (0 under the oracle transport).
    /// `None` before any link event.
    pub fn control_convergence_ns(&self) -> Option<(u64, u64, u64)> {
        let mut h = netsim_obs::Histogram::new();
        for c in self.controls() {
            h.merge(&c.convergence);
        }
        (h.count() > 0).then(|| (h.quantile(0.5), h.quantile(0.99), h.max()))
    }

    /// Control bytes offered on backbone link `l` (both directions) since
    /// bring-up. Always 0 under the oracle transport.
    pub fn control_bytes_on_link(&self, l: usize) -> u64 {
        let (a, b, _) = self.topo.link(l);
        self.backbone(a).1.bytes_on_link(l) + self.backbone(b).1.bytes_on_link(l)
    }

    /// The SPF tree node `u` currently forwards on: its own view.
    pub fn effective_spf(&self, u: usize) -> &netsim_routing::SpfTree {
        &self.backbone(u).1.view.spf
    }

    /// The LDP tunnel PE ordinal `ingress`'s control-plane view holds
    /// toward PE ordinal `egress` (`None` without an LSP). Every
    /// LDP-following VPN route at `ingress` toward `egress` resolves
    /// through the PE's tunnel-table entry, which must equal this.
    pub fn view_tunnel(&self, ingress: usize, egress: usize) -> Option<netsim_mpls::FtnEntry> {
        self.backbone(self.pes[ingress]).1.ftn(egress)
    }

    /// Walks the LSP from PE ordinal `ingress` to PE ordinal `egress`
    /// through the live router LFIBs, returning the topology nodes
    /// visited. `None` when no complete LSP exists.
    pub fn lsp_path(&self, ingress: usize, egress: usize) -> Option<Vec<usize>> {
        let start = self.pes[ingress];
        let ftn = self.backbone(start).1.ftn(egress)?;
        self.walk_ftn(start, &ftn).path_to(self.pes[egress])
    }

    /// Follows a tunnel FTN from `start` through the live LFIBs.
    pub(crate) fn walk_ftn(&self, start: usize, ftn: &netsim_mpls::FtnEntry) -> Walk {
        walk(self, start, ftn.push.as_slice(), ftn.out_iface)
    }

    /// Digest of one VRF's state at PE `pe` for cross-mode parity
    /// checks: one sorted row per prefix — `None` for a locally attached
    /// route, `Some((egress_pe, vpn_label, tunnel_path))` for a remote
    /// one, where `tunnel_path` is the node walk of the tunnel the route
    /// resolves to through the live LFIBs (`None` = broken LSP or no
    /// tunnel). The tunnel is compared by the nodes it crosses, so the
    /// digest also holds against [`ProviderNetwork::reconverge`], which
    /// allocates labels afresh.
    pub fn vrf_digest(&self, pe: usize, vpn: VpnId) -> Vec<VrfDigestRow> {
        let vrf = self.expect_vrf(pe, vpn);
        let per = self.net.node_ref::<PeRouter>(self.pe_node(pe));
        let start = self.pes[pe];
        let mut out: Vec<_> = per.vrfs[vrf.index]
            .fib
            .iter()
            .map(|(p, r)| match *r {
                VrfRoute::Local { .. } => (p, None),
                VrfRoute::Remote { egress_pe, vpn_label, .. } => {
                    let path = PeRouter::resolve_tunnel(&per.tunnels, r)
                        .and_then(|t| self.walk_ftn(start, t).path_to(self.pes[egress_pe]));
                    (p, Some((egress_pe, vpn_label, path)))
                }
            })
            .collect();
        out.sort_by_key(|&(p, _)| p);
        out
    }

    /// Takes a backbone link down (fiber cut): the data plane starts
    /// dropping immediately — anything queued on the link is flushed into
    /// [`netsim_sim::LinkStats::dropped`] — and BFD-style detection timers
    /// are armed on both adjacent routers. After the detection delay
    /// (see [`BackboneBuilder::detection`]) those routers mark the
    /// interface down, which activates any fast-reroute bypass installed
    /// for it, and flood the failure; every router then repairs its own
    /// routes and labels (the detection + convergence outage experiment R1
    /// measures). A router with a bypass on the interface holds its own
    /// repair a little longer and lets the bypass carry its traffic.
    ///
    /// An inter-AS link's cut only stops its data plane: no IGP tracks
    /// it, so nothing is detected or flooded.
    ///
    /// Idempotent: failing an already-failed link is a no-op, so drops
    /// are never double-counted and timers never re-armed. Returns
    /// whether the link went down.
    pub fn fail_link(&mut self, topo_link: usize) -> bool {
        let (u, v, _) = self.topo.link(topo_link);
        self.link_event(topo_link, false, &[(u, v), (v, u)])
    }

    /// Brings a previously failed link back. The adjacent routers notice
    /// after the same detection delay (BFD session re-establishment), stop
    /// using any bypass and flood the repair, and routing converges back
    /// onto the link. Idempotent; returns whether the link came up.
    pub fn repair_link(&mut self, topo_link: usize) -> bool {
        let (u, v, _) = self.topo.link(topo_link);
        self.link_event(topo_link, true, &[(u, v), (v, u)])
    }

    /// Fails every backbone link incident to `topo_node` — a node (power
    /// or linecard) failure, modelled as the simultaneous loss of all its
    /// adjacencies. Already-failed links are skipped.
    ///
    /// The event is batched: one detection timer is armed per surviving
    /// *neighbor* (the far endpoint of each newly failed link), not two
    /// per link — the dead node itself has no working control plane to
    /// notice anything with.
    pub fn fail_node(&mut self, topo_node: usize) {
        assert!(topo_node < self.topo.node_count(), "unknown backbone node {topo_node}");
        let incident: Vec<(usize, usize)> =
            self.topo.neighbors(topo_node).map(|(far, _, l)| (l, far)).collect();
        for (l, far) in incident {
            self.link_event(l, false, &[(far, topo_node)]);
        }
    }

    /// Backbone links currently failed, in id order.
    pub fn failed_links(&self) -> Vec<usize> {
        (0..self.topo.link_count()).filter(|&l| !self.net.link_enabled(LinkId(l))).collect()
    }

    /// Takes backbone link `topo_link` up or down, unless it already is
    /// (no double-counted drops, no re-armed timers), and says whether it
    /// changed. The event bumps the link's LSA sequence and hands it to
    /// both endpoint routers with the instant detection fires, where their
    /// LSA's convergence clock starts; then each `(near, far)` end's
    /// detection timer is armed, `detect_ns` from now, at `near`.
    fn link_event(&mut self, topo_link: usize, up: bool, detect: &[(usize, usize)]) -> bool {
        assert!(topo_link < self.topo.link_count(), "unknown backbone link {topo_link}");
        if self.net.link_enabled(LinkId(topo_link)) == up {
            return false;
        }
        self.net.set_link_enabled(LinkId(topo_link), up);
        if self.cfg.inter_as.contains(&topo_link) {
            return true; // no router's IGP tracks it: nothing floods
        }
        self.link_seq[topo_link] += 1;
        let (seq, at) = (self.link_seq[topo_link], self.net.now() + self.detect_ns);
        let (a, b, _) = self.topo.link(topo_link);
        for u in [a, b] {
            self.with_control(u, |control, _, _| control.link_events[topo_link] = (seq, at));
        }
        for &(near, far) in detect {
            let token = crate::control::iface_timer_token(self.topo.iface_toward(near, far), !up);
            self.net.arm_timer(self.node_ids[near], self.detect_ns, token);
        }
        true
    }

    /// The reference recompute: a cold restart of every router over the
    /// links that are up. The control plane reaches the same routes by
    /// itself; this is what tests and benchmarks check it against. Labels
    /// are allocated afresh and every LFIB is rebuilt (its counters carry
    /// over), so explicit LSPs installed via
    /// [`ProviderNetwork::install_explicit_lsp`] (fast-reroute bypasses
    /// and admitted trunks included) are gone, the trunk record is
    /// cleared with them, and every pinned route is back on its LDP
    /// tunnel.
    pub fn reconverge(&mut self) {
        self.restart();
        self.trunks.clear();
        // Every VRF route is re-installed as LDP-following.
        self.sync_remote_routes();
    }

    /// Cold-restarts every backbone router over the links that are up and
    /// runs the simulator at the current instant until their LDP messages
    /// have drained: bring-up and [`ProviderNetwork::reconverge`] alike.
    /// Whatever was already due at this instant happens first. The
    /// messages ride the zero-latency transport under either control
    /// mode, so a restart takes no simulated time. Only egresses advertise
    /// at a restart; they do so in PE order, which is the order of LDP's
    /// first round.
    fn restart(&mut self) {
        self.net.run_until(self.net.now());
        let link_state: Vec<(u64, bool)> = (0..self.topo.link_count())
            .map(|l| (self.link_seq[l], !self.net.link_enabled(LinkId(l))))
            .collect();
        let p_routers = (0..self.topo.node_count()).filter(|u| !self.pes.contains(u));
        let order: Vec<usize> = self.pes.iter().copied().chain(p_routers).collect();
        for &u in &order {
            self.with_control(u, |control, tables, ctx| control.restart(&link_state, tables, ctx));
        }
        self.net.run_until(self.net.now());
        for u in order {
            self.with_control(u, |control, _, _| control.restarted());
        }
    }

    /// Pins a destination prefix at an ingress PE onto a tunnel (e.g. a TE
    /// LSP from [`ProviderNetwork::install_explicit_lsp`]). The prefix may
    /// be an existing route or a more-specific one; the egress PE and VPN
    /// label are inherited from the longest route in the VRF that covers
    /// the whole prefix (the route itself, if it exists), so the pin only
    /// changes the *path*, not the VPN semantics — the standard way to
    /// steer a subset of traffic onto a TE trunk.
    ///
    /// The pinned route stops following the PE's LDP tunnel table: site
    /// joins and detaches elsewhere leave the binding alone, and so does
    /// LDP repair after a link fails or recovers. Only the reference
    /// [`ProviderNetwork::reconverge`] restores the LDP tunnel.
    ///
    /// Pin after the provisioning has been delivered (`run_for(0)` under
    /// the oracle transport, longer in band): an MP-BGP update for the
    /// same prefix that lands after the pin replaces it.
    ///
    /// # Panics
    /// Panics if the VRF has no covering route for `prefix`.
    pub fn pin_prefix_to_tunnel(
        &mut self,
        vpn: VpnId,
        ingress_pe: usize,
        prefix: Prefix,
        tunnel: netsim_mpls::FtnEntry,
    ) {
        let vrf = self.expect_vrf(ingress_pe, vpn);
        let routes = self.fabric.routes(vrf);
        let r = *(0..=prefix.len())
            .rev()
            .find_map(|len| routes.get(Prefix::new(prefix.addr(), len)))
            .unwrap_or_else(|| panic!("no covering route for {prefix} at PE{ingress_pe}"));
        let pe_node = self.pe_node(ingress_pe);
        self.net.node_mut::<PeRouter>(pe_node).vrfs[vrf.index].install_remote(
            prefix,
            r.egress_pe,
            r.vpn_label,
            Some(tunnel),
        );
    }

    /// The VRF of a VPN on a PE, if that PE hosts any of the VPN's sites.
    /// The handle is the VRF in the fabric and, by its `index`, the VRF's
    /// slot on the PE router.
    pub fn vrf_handle(&self, pe: usize, vpn: VpnId) -> Option<VrfHandle> {
        let index = self.vrf_vpns.get(pe)?.iter().position(|&v| v == vpn)?;
        Some(VrfHandle { pe, index })
    }

    /// Every VRF the network created, with its VPN, in (PE, slot) order.
    pub(crate) fn vrfs(&self) -> impl Iterator<Item = (VrfHandle, VpnId)> + '_ {
        self.vrf_vpns.iter().enumerate().flat_map(|(pe, vpns)| {
            vpns.iter().enumerate().map(move |(index, &vpn)| (VrfHandle { pe, index }, vpn))
        })
    }

    /// [`Self::vrf_handle`] for a VRF that must exist.
    pub(crate) fn expect_vrf(&self, pe: usize, vpn: VpnId) -> VrfHandle {
        self.vrf_handle(pe, vpn).unwrap_or_else(|| panic!("no VRF for VPN {vpn:?} on PE{pe}"))
    }
}

/// The live backbone as label tables: the engine says which links are up,
/// each router's LFIB which bypasses are in force, and a PE dispatches the
/// VPN labels of its VRFs.
impl LabelTables for ProviderNetwork {
    fn node_count(&self) -> usize {
        self.topo.node_count()
    }
    fn far_end(&self, node: usize, iface: usize) -> Option<usize> {
        self.topo.neighbors(node).nth(iface).map(|(next, _, _)| next)
    }
    fn link_up(&self, node: usize, iface: usize) -> bool {
        self.topo
            .neighbors(node)
            .nth(iface)
            .is_some_and(|(_, _, l)| self.net.link_enabled(LinkId(l)))
    }
    fn nhlfe(&self, node: usize, label: u32) -> Option<netsim_mpls::Nhlfe> {
        self.backbone(node).0.lookup(label).copied()
    }
    fn bypass(&self, node: usize, iface: usize) -> Option<netsim_mpls::FtnEntry> {
        self.backbone(node).0.bypass(iface)
    }
    fn dispatches(&self, node: usize, label: u32) -> bool {
        self.pes.contains(&node)
            && self.net.node_ref::<PeRouter>(self.node_ids[node]).vpn_ilm.contains_key(&label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_net::addr::pfx;
    use netsim_net::Packet;
    use netsim_routing::LinkAttrs;
    use netsim_sim::{IfaceId, MSEC, SEC};

    /// PE0 — P — PE1 line, 100 Mb/s backbone.
    fn line() -> ProviderNetwork {
        let mut topo = Topology::new(3);
        let attrs = LinkAttrs { cost: 1, capacity_bps: 100_000_000 };
        topo.add_link(0, 1, attrs);
        topo.add_link(1, 2, attrs);
        BackboneBuilder::new(topo, vec![0, 2]).build()
    }

    fn send_flow(pn: &mut ProviderNetwork, from: SiteId, to_addr: Ip, flow: u64, n: u64) {
        let src_addr = pn.site_addr(from, 10);
        let cfg = SourceConfig::udp(flow, src_addr, to_addr, 5000, 200);
        pn.attach_cbr_source(from, cfg, 1_000_000, Some(n));
    }

    #[test]
    #[should_panic(expected = "already in use")]
    fn vpn_names_are_unique() {
        let mut pn = line();
        pn.new_vpn("acme");
        pn.new_vpn("acme");
    }

    #[test]
    fn two_sites_connect_across_backbone() {
        let mut pn = line();
        let vpn = pn.new_vpn("acme");
        let a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
        let b = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
        let sink = pn.attach_sink(b, pfx("10.2.0.0/16"));
        let to = pn.site_addr(b, 9);
        send_flow(&mut pn, a, to, 1, 50);
        pn.run_for(2 * SEC);
        let s = pn.net.node_ref::<Sink>(sink);
        assert_eq!(s.flow(1).map(|f| f.rx_packets), Some(50), "all packets delivered");
    }

    #[test]
    fn overlapping_vpns_are_isolated() {
        let mut pn = line();
        let acme = pn.new_vpn("acme");
        let globex = pn.new_vpn("globex");
        // Identical address plans in both VPNs.
        let a0 = pn.add_site(acme, 0, pfx("10.1.0.0/16"), None);
        let a1 = pn.add_site(acme, 1, pfx("10.2.0.0/16"), None);
        let g0 = pn.add_site(globex, 0, pfx("10.1.0.0/16"), None);
        let g1 = pn.add_site(globex, 1, pfx("10.2.0.0/16"), None);
        let sink_a = pn.attach_sink(a1, pfx("10.2.0.0/16"));
        let sink_g = pn.attach_sink(g1, pfx("10.2.0.0/16"));
        // Flow 1 in acme, flow 2 in globex, same destination address.
        let to_a = pn.site_addr(a1, 9);
        send_flow(&mut pn, a0, to_a, 1, 30);
        let to_g = pn.site_addr(g1, 9);
        send_flow(&mut pn, g0, to_g, 2, 40);
        pn.run_for(2 * SEC);
        let sa = pn.net.node_ref::<Sink>(sink_a);
        assert_eq!(sa.flow(1).map(|f| f.rx_packets), Some(30));
        assert!(sa.flow(2).is_none(), "globex traffic must never reach acme");
        let sg = pn.net.node_ref::<Sink>(sink_g);
        assert_eq!(sg.flow(2).map(|f| f.rx_packets), Some(40));
        assert!(sg.flow(1).is_none(), "acme traffic must never reach globex");
        let _ = (g0, a0);
    }

    #[test]
    fn sites_added_later_reach_existing_sites_both_ways() {
        let mut pn = line();
        let vpn = pn.new_vpn("acme");
        let a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
        let sink_a = pn.attach_sink(a, pfx("10.1.0.0/16"));
        // Add the second site after the first is fully installed.
        let b = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
        let sink_b = pn.attach_sink(b, pfx("10.2.0.0/16"));
        let to_b = pn.site_addr(b, 1);
        send_flow(&mut pn, a, to_b, 1, 10);
        let to_a = pn.site_addr(a, 1);
        send_flow(&mut pn, b, to_a, 2, 10);
        pn.run_for(SEC);
        assert_eq!(pn.net.node_ref::<Sink>(sink_b).flow(1).map(|f| f.rx_packets), Some(10));
        assert_eq!(pn.net.node_ref::<Sink>(sink_a).flow(2).map(|f| f.rx_packets), Some(10));
    }

    #[test]
    fn non_php_mode_also_connects() {
        let mut topo = Topology::new(3);
        let attrs = LinkAttrs { cost: 1, capacity_bps: 100_000_000 };
        topo.add_link(0, 1, attrs);
        topo.add_link(1, 2, attrs);
        let mut pn = BackboneBuilder::new(topo, vec![0, 2]).php(false).build();
        let vpn = pn.new_vpn("acme");
        let a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
        let b = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
        let sink = pn.attach_sink(b, pfx("10.2.0.0/16"));
        let to = pn.site_addr(b, 3);
        send_flow(&mut pn, a, to, 7, 20);
        pn.run_for(SEC);
        assert_eq!(pn.net.node_ref::<Sink>(sink).flow(7).map(|f| f.rx_packets), Some(20));
    }

    #[test]
    fn intra_pe_sites_hairpin_locally() {
        // Both sites on PE0: traffic must not enter the backbone.
        let mut pn = line();
        let vpn = pn.new_vpn("acme");
        let a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
        let b = pn.add_site(vpn, 0, pfx("10.2.0.0/16"), None);
        let sink = pn.attach_sink(b, pfx("10.2.0.0/16"));
        let to = pn.site_addr(b, 4);
        send_flow(&mut pn, a, to, 3, 15);
        pn.run_for(SEC);
        assert_eq!(pn.net.node_ref::<Sink>(sink).flow(3).map(|f| f.rx_packets), Some(15));
        // Backbone link 0 (PE0↔P) carried nothing.
        let st = pn.net.link_stats(LinkId(0), 0);
        assert_eq!(st.tx_packets, 0, "intra-PE traffic must hairpin at the PE");
    }

    #[test]
    fn diffserv_core_profile_builds_and_forwards() {
        let mut topo = Topology::new(3);
        let attrs = LinkAttrs { cost: 1, capacity_bps: 100_000_000 };
        topo.add_link(0, 1, attrs);
        topo.add_link(1, 2, attrs);
        for sched in [DsSched::Priority, DsSched::Wfq, DsSched::Drr] {
            let mut pn = BackboneBuilder::new(topo.clone(), vec![0, 2])
                .core_qos(CoreQos::DiffServ { cap_bytes: 512 * 1024, sched })
                .build();
            let vpn = pn.new_vpn("acme");
            let a =
                pn.add_site(vpn, 0, pfx("10.1.0.0/16"), Some(MarkingPolicy::enterprise_default()));
            let b = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
            let sink = pn.attach_sink(b, pfx("10.2.0.0/16"));
            let cfg = SourceConfig::udp(1, pn.site_addr(a, 10), pn.site_addr(b, 9), 16400, 160);
            pn.attach_cbr_source(a, cfg, 1_000_000, Some(25));
            pn.run_for(SEC);
            assert_eq!(
                pn.net.node_ref::<Sink>(sink).flow(1).map(|f| f.rx_packets),
                Some(25),
                "sched {sched:?}"
            );
        }
    }

    /// An unlabeled CS7 packet (a bare IP packet after PHP, or a baseline's
    /// traffic) rides band 6 of a strict-priority egress, and the link
    /// counts it there.
    #[test]
    fn unlabeled_cs7_counts_in_the_band_that_serves_it() {
        let mut topo = Topology::new(2);
        topo.add_link(0, 1, LinkAttrs { cost: 1, capacity_bps: 100_000_000 });
        let sched = DsSched::Priority;
        let mut pn = BackboneBuilder::new(topo, vec![0, 1])
            .core_qos(CoreQos::DiffServ { cap_bytes: 512 * 1024, sched })
            .build();
        let cs7 = Packet::udp(Ip(1), Ip(2), 1, 2, netsim_net::Dscp::new(56), 100);
        assert_eq!(class_by_exp_or_dscp()(&cs7), 6);
        let before = pn.net.link_stats(LinkId(0), 0).tx_by_class;
        pn.net.inject(pn.backbone_node(0), IfaceId(0), cs7);
        pn.run_for(10 * MSEC);
        let after = pn.net.link_stats(LinkId(0), 0).tx_by_class;
        let sent: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        assert_eq!(sent, [0, 0, 0, 0, 0, 0, 1, 0]);
    }

    #[test]
    fn provisioning_costs_are_counted_where_they_happen() {
        let mut pn = line();
        let vpn = pn.new_vpn("acme");
        pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
        pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
        pn.run_for(0);
        // Bring-up's LDP mappings, one per PE FEC on each direction of
        // each link (2 * 2 * 2), then the second site's update to PE0,
        // sent by PE1 and by P.
        let s = pn.control_stats().unwrap();
        assert_eq!(s.bgp_originated, 1);
        assert_eq!(s.pkts_by_proto, [0, 8, 2]);
        assert_eq!((s.pkts_sent, s.pkts_terminated, s.bytes_sent), (10, 10, 0));
    }

    /// Under the oracle an MP-BGP update is a packet like any other: the
    /// remote VRF changes when the simulator runs, at the instant of the
    /// call, not inside `add_site`.
    #[test]
    fn oracle_update_lands_when_the_simulator_runs() {
        let mut pn = line();
        let vpn = pn.new_vpn("acme");
        pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
        let prefix = pfx("10.2.0.0/16");
        pn.add_site(vpn, 1, prefix, None);
        let label = pn.sites[1].label;
        let vrf_idx = pn.vrf_handle(0, vpn).unwrap().index;
        let at_pe0 = |pn: &ProviderNetwork| {
            pn.net.node_ref::<PeRouter>(pn.pe_node(0)).vrfs[vrf_idx].fib.get(prefix).cloned()
        };
        assert_eq!(at_pe0(&pn), None, "sent, not yet delivered");
        pn.run_for(0);
        assert_eq!(pn.net.now(), 0);
        let want = VrfRoute::Remote { egress_pe: 1, vpn_label: label, tunnel: None };
        assert_eq!(at_pe0(&pn), Some(want));
    }

    /// An extranet (paper §1: "linking customers and partners into
    /// extranets on an ad-hoc basis"): two companies keep their own VPNs
    /// but a shared route target exposes one designated site to the other
    /// — and nothing else.
    #[test]
    fn extranet_shares_only_designated_sites() {
        use netsim_routing::RouteTarget;
        let mut pn = line();
        let acme = pn.new_vpn("acme");
        let globex = pn.new_vpn("globex");
        // Regular sites (overlapping 10.1/16 plans, as usual).
        let acme_hq = pn.add_site(acme, 0, pfx("10.1.0.0/16"), None);
        let globex_hq = pn.add_site(globex, 0, pfx("10.1.0.0/16"), None);
        // The shared depot is an acme site on PE1.
        let depot = pn.add_site(acme, 1, pfx("10.77.0.0/16"), None);

        // Extranet provisioning: the depot VRF exports an extra RT that the
        // globex VRF imports; re-advertise under the new policy.
        let extranet_rt = RouteTarget(999);
        let depot_vrf = pn.vrf_handle(1, acme).expect("depot VRF");
        let globex_vrf = pn.vrf_handle(0, globex).expect("globex VRF");
        pn.fabric.add_export_target(depot_vrf, extranet_rt);
        pn.fabric.add_import_target(globex_vrf, extranet_rt);
        pn.fabric.withdraw(depot_vrf, pfx("10.77.0.0/16"), pn.sites[depot.0].label);
        // The depot's local route stays; its new label is dispatched too.
        let (label, _) = pn.fabric.advertise(depot_vrf, pfx("10.77.0.0/16"));
        let pe1 = pn.pe_node(1);
        pn.net.node_mut::<PeRouter>(pe1).install_vpn_label(label, depot_vrf.index);
        pn.reconverge();

        let sink_depot = pn.attach_sink(depot, pfx("10.77.0.0/16"));
        let sink_acme_hq = pn.attach_sink(acme_hq, pfx("10.1.0.0/16"));
        // Globex HQ reaches the depot across the extranet…
        let to_depot = pfx("10.77.0.0/16").nth(5);
        let g = SourceConfig::udp(1, pn.site_addr(globex_hq, 1), to_depot, 5000, 128);
        pn.attach_cbr_source(globex_hq, g, MSEC, Some(20));
        // …and acme HQ still reaches it inside its own VPN.
        let a = SourceConfig::udp(2, pn.site_addr(acme_hq, 1), to_depot, 5000, 128);
        pn.attach_cbr_source(acme_hq, a, MSEC, Some(20));

        pn.run_for(SEC);
        let depot_sink = pn.net.node_ref::<Sink>(sink_depot);
        assert_eq!(depot_sink.flow(1).map(|f| f.rx_packets), Some(20), "extranet reach");
        assert_eq!(depot_sink.flow(2).map(|f| f.rx_packets), Some(20), "intranet reach");
        // The rest of acme stays invisible to globex: acme HQ's sink saw
        // nothing beyond its own VPN traffic.
        let acme_sink = pn.net.node_ref::<Sink>(sink_acme_hq);
        assert!(acme_sink.flows().all(|(f, _)| f == 2), "extranet must not leak acme HQ");
    }

    /// A dual-homed site: the prefix is served from two PEs; detaching the
    /// primary fails importers over to the survivor.
    #[test]
    fn dual_homed_site_failover() {
        // Triangle of PEs so every PE pair has a path.
        let mut topo = Topology::new(3);
        let attrs = LinkAttrs { cost: 1, capacity_bps: 100_000_000 };
        topo.add_link(0, 1, attrs);
        topo.add_link(1, 2, attrs);
        topo.add_link(2, 0, attrs);
        let mut pn = BackboneBuilder::new(topo, vec![0, 1, 2]).build();
        let vpn = pn.new_vpn("acme");
        let client = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
        // The served prefix 10.9/16, homed on PE1 (primary) and PE2 (backup).
        let primary = pn.add_site(vpn, 1, pfx("10.9.0.0/16"), None);
        let backup = pn.add_site(vpn, 2, pfx("10.9.0.0/16"), None);
        let sink_primary = pn.attach_sink(primary, pfx("10.9.0.0/16"));
        let sink_backup = pn.attach_sink(backup, pfx("10.9.0.0/16"));

        let to = pfx("10.9.0.0/16").nth(7);
        let cfg = SourceConfig::udp(1, pn.site_addr(client, 1), to, 5000, 200);
        pn.attach_cbr_source(client, cfg, 10 * MSEC, Some(200)); // 2 s of traffic

        pn.run_for(SEC);
        let at_primary_t1 = pn.net.node_ref::<Sink>(sink_primary).total_packets;
        assert!(at_primary_t1 > 90, "primary (lowest PE) serves first: {at_primary_t1}");
        assert_eq!(pn.net.node_ref::<Sink>(sink_backup).total_packets, 0);

        pn.detach_site(primary);
        pn.run_for(2 * SEC);
        let at_backup = pn.net.node_ref::<Sink>(sink_backup).total_packets;
        assert!(at_backup > 90, "backup must take over: {at_backup}");
        // Nothing more reached the (detached) primary.
        let at_primary_t3 = pn.net.node_ref::<Sink>(sink_primary).total_packets;
        assert!(at_primary_t3 <= at_primary_t1 + 2, "primary detached");
        // Total delivery ≈ all packets (failover is a control-plane step
        // here, so no loss window).
        assert_eq!(at_primary_t3 + at_backup, 200);
    }

    /// Two sites of one VPN on PE0 own the same prefix, each advertised
    /// under its own label. Detaching the second withdraws its own
    /// advertisement and label: PE0 keeps dispatching the first site's
    /// label, and PE1 routes the prefix with it.
    #[test]
    fn detaching_one_of_two_same_prefix_sites_keeps_the_other_label() {
        let mut pn = line();
        let vpn = pn.new_vpn("acme");
        let p = pfx("10.1.0.0/16");
        let first = pn.add_site(vpn, 0, p, None);
        let second = pn.add_site(vpn, 0, p, None);
        pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
        pn.run_for(0);
        let (kept, gone) = (pn.sites[first.0].label, pn.sites[second.0].label);
        assert_ne!(kept, gone);
        pn.detach_site(second);
        pn.run_for(0);
        let pe0 = pn.net.node_ref::<PeRouter>(pn.pe_node(0));
        assert_eq!(pe0.vpn_ilm.keys().copied().collect::<Vec<_>>(), [kept]);
        let pe1 = pn.net.node_ref::<PeRouter>(pn.pe_node(1));
        let vrf = pn.vrf_handle(1, vpn).unwrap();
        let want = VrfRoute::Remote { egress_pe: 0, vpn_label: kept, tunnel: None };
        assert_eq!(pe1.vrfs[vrf.index].fib.get(p), Some(&want));
        // The freed label goes to the next site; detaching the second site
        // again leaves it alone.
        let third = pn.add_site(vpn, 0, pfx("10.3.0.0/16"), None);
        assert_eq!(pn.sites[third.0].label, gone);
        pn.detach_site(second);
        let pe0 = pn.net.node_ref::<PeRouter>(pn.pe_node(0));
        assert_eq!(pe0.vpn_ilm.len(), 2);
        assert!(pe0.vpn_ilm.contains_key(&gone));
    }

    /// Two sites of a VPN own one prefix on one PE; detaching the second
    /// moves PE0's local route to the first site's access link, so traffic
    /// from a remote site still reaches the first one.
    #[test]
    fn detaching_one_of_two_same_prefix_sites_keeps_the_other_reachable() {
        let mut pn = line();
        let vpn = pn.new_vpn("acme");
        let p = pfx("10.1.0.0/16");
        let first = pn.add_site(vpn, 0, p, None);
        let second = pn.add_site(vpn, 0, p, None);
        let third = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
        pn.run_for(0);
        pn.detach_site(second);
        pn.run_for(0);
        let sink = pn.attach_sink(first, p);
        let to = pn.site_addr(first, 9);
        send_flow(&mut pn, third, to, 1, 20);
        pn.run_for(SEC);
        assert_eq!(pn.net.node_ref::<Sink>(sink).flow(1).map(|f| f.rx_packets), Some(20));
        assert_eq!(pn.net.recorder().unwrap().total_drops(), 0);
        pn.verify().assert_clean("one of two same-prefix sites detached");
    }

    /// A failed backbone link loses packets until detection; once the
    /// routers have converged the flow rides the alternate path, and
    /// repairing the link restores the original one.
    #[test]
    fn link_failure_reroute_and_repair() {
        // Diamond with distinct costs: short 0-1-3, detour 0-2-3.
        let mut topo = Topology::new(4);
        let fast = LinkAttrs { cost: 1, capacity_bps: 100_000_000 };
        let slow = LinkAttrs { cost: 5, capacity_bps: 100_000_000 };
        topo.add_link(0, 1, fast); // 0
        topo.add_link(1, 3, fast); // 1
        topo.add_link(0, 2, slow); // 2
        topo.add_link(2, 3, slow); // 3
        let mut pn = BackboneBuilder::new(topo, vec![0, 3]).build();
        let vpn = pn.new_vpn("acme");
        let a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
        let b = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
        let sink = pn.attach_sink(b, pfx("10.2.0.0/16"));
        let to = pn.site_addr(b, 9);
        // Continuous CBR for 3 simulated seconds.
        let cfg = SourceConfig::udp(1, pn.site_addr(a, 1), to, 5000, 200);
        pn.attach_cbr_source(a, cfg, 10 * MSEC, Some(300));

        pn.run_for(SEC); // healthy: short path
        assert!(pn.net.link_stats(LinkId(0), 0).tx_packets > 0);
        pn.fail_link(1); // cut 1-3
        pn.run_for(100 * MSEC); // packets die until detection at 50 ms
        assert!(pn.control_stats().unwrap().pkts_by_proto[0] > 0, "the cut was flooded");
        let detour_before = pn.net.link_stats(LinkId(2), 0).tx_packets;
        pn.run_for(900 * MSEC);
        let detour_after = pn.net.link_stats(LinkId(2), 0).tx_packets;
        assert!(detour_after > detour_before + 50, "traffic must ride the detour");

        pn.repair_link(1);
        pn.run_for(100 * MSEC); // the routers notice at 50 ms
        let short_before = pn.net.link_stats(LinkId(0), 0).tx_packets;
        pn.run_for(2 * SEC);
        let short_after = pn.net.link_stats(LinkId(0), 0).tx_packets;
        assert!(short_after > short_before + 50, "traffic must return to the short path");

        // Loss happened only during the outage window (~10 packets).
        let f = pn.net.node_ref::<Sink>(sink).flow(1).unwrap();
        let lost = 300 - f.rx_packets;
        assert!((5..=20).contains(&lost), "outage loss {lost}");
    }

    /// A TE tunnel pinned to the long way around a diamond must carry the
    /// traffic (and the short path must stay empty).
    #[test]
    fn explicit_lsp_overrides_the_igp_path() {
        // Diamond: PE0(0)—P(1)—PE1(3) short, PE0(0)—P(2)—PE1(3) long.
        let mut topo = Topology::new(4);
        let attrs = LinkAttrs { cost: 1, capacity_bps: 100_000_000 };
        topo.add_link(0, 1, attrs); // link 0 (short)
        topo.add_link(1, 3, attrs); // link 1 (short)
        topo.add_link(0, 2, LinkAttrs { cost: 5, capacity_bps: 100_000_000 }); // 2
        topo.add_link(2, 3, LinkAttrs { cost: 5, capacity_bps: 100_000_000 }); // 3
        let mut pn = BackboneBuilder::new(topo, vec![0, 3]).build();
        let vpn = pn.new_vpn("acme");
        let a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
        let b = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
        let sink = pn.attach_sink(b, pfx("10.2.0.0/16"));
        // Pin A→B onto the long path 0-2-3, once the route has landed.
        pn.run_for(0);
        let ftn = pn.install_explicit_lsp(&[0, 2, 3]);
        pn.pin_prefix_to_tunnel(vpn, 0, pfx("10.2.0.0/16"), ftn);
        let to = pn.site_addr(b, 9);
        send_flow(&mut pn, a, to, 1, 20);
        pn.run_for(SEC);
        assert_eq!(pn.net.node_ref::<Sink>(sink).flow(1).map(|f| f.rx_packets), Some(20));
        assert_eq!(pn.net.link_stats(LinkId(0), 0).tx_packets, 0, "short path unused");
        assert_eq!(pn.net.link_stats(LinkId(2), 0).tx_packets, 20, "long path carries the LSP");
    }

    /// A `len`-node line backbone (PEs at both ends) with PHP on or off.
    fn line_of(len: usize, php: bool) -> ProviderNetwork {
        let mut topo = Topology::new(len);
        let attrs = LinkAttrs { cost: 1, capacity_bps: 100_000_000 };
        for u in 1..len {
            topo.add_link(u - 1, u, attrs);
        }
        BackboneBuilder::new(topo, vec![0, len - 1]).php(php).build()
    }

    /// An explicit LSP along a line installs a label chain the live LFIBs
    /// follow to the egress, allocating one label per labelled hop:
    /// len−2 with PHP (the egress takes the packet unlabelled), len−1
    /// without.
    #[test]
    fn explicit_lsp_chain_reaches_the_egress() {
        for len in 2..=10 {
            for php in [true, false] {
                let mut pn = line_of(len, php);
                let path: Vec<usize> = (0..len).collect();
                let before = pn.live_labels();
                let ftn = pn.install_explicit_lsp(&path);
                let want = if php { len - 2 } else { len - 1 };
                assert_eq!(pn.live_labels() - before, want as u64, "len {len} php {php}");
                assert_eq!(
                    pn.walk_ftn(0, &ftn).path_to(len - 1),
                    Some(path),
                    "len {len} php {php}"
                );
            }
        }
    }

    /// Two LSPs through one LSR get distinct labels there: both chains
    /// stay intact.
    #[test]
    fn explicit_lsps_through_one_lsr_get_distinct_labels() {
        for php in [true, false] {
            let mut pn = line_of(4, php);
            let entries = |pn: &ProviderNetwork| pn.backbone(1).0.iter().count();
            let before = entries(&pn);
            let ab = pn.install_explicit_lsp(&[0, 1, 2, 3]);
            let ba = pn.install_explicit_lsp(&[3, 2, 1, 0]);
            assert_eq!(entries(&pn), before + 2, "php {php}");
            assert_eq!(pn.walk_ftn(0, &ab).path_to(3), Some(vec![0, 1, 2, 3]));
            assert_eq!(pn.walk_ftn(3, &ba).path_to(0), Some(vec![3, 2, 1, 0]));
        }
    }

    #[test]
    #[should_panic(expected = "loop-free")]
    fn looping_explicit_route_rejected() {
        line_of(3, true).install_explicit_lsp(&[0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "at least ingress and egress")]
    fn one_node_explicit_route_rejected() {
        line_of(3, true).install_explicit_lsp(&[0]);
    }

    /// Pinning an existing route keeps that route's egress PE and VPN
    /// label, even when a more-specific route from another PE sits at its
    /// network address.
    #[test]
    fn pin_inherits_the_pinned_route_not_a_more_specific_one() {
        // PE0(0)—P(1)—PE1(2), with PE2(3) also hanging off P.
        let mut topo = Topology::new(4);
        let attrs = LinkAttrs { cost: 1, capacity_bps: 100_000_000 };
        topo.add_link(0, 1, attrs);
        topo.add_link(1, 2, attrs);
        topo.add_link(1, 3, attrs);
        let mut pn = BackboneBuilder::new(topo, vec![0, 2, 3]).build();
        let vpn = pn.new_vpn("acme");
        pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
        pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
        pn.add_site(vpn, 2, pfx("10.2.0.0/24"), None);
        pn.run_for(0);
        let ftn = pn.install_explicit_lsp(&[0, 1, 2]);
        pn.pin_prefix_to_tunnel(vpn, 0, pfx("10.2.0.0/16"), ftn);
        let vrf = pn.vrf_handle(0, vpn).unwrap();
        let r = *pn.fabric.routes(vrf).get(pfx("10.2.0.0/16")).unwrap();
        assert_eq!(r.egress_pe, 1);
        let pe = pn.net.node_ref::<PeRouter>(pn.pe_node(0));
        assert_eq!(
            pe.vrfs[vrf.index].fib.get(pfx("10.2.0.0/16")),
            Some(&VrfRoute::Remote {
                egress_pe: r.egress_pe,
                vpn_label: r.vpn_label,
                tunnel: Some(ftn)
            })
        );
    }

    #[test]
    #[should_panic(expected = "unknown PE ordinal")]
    fn add_site_validates_pe() {
        let mut pn = line();
        let vpn = pn.new_vpn("acme");
        pn.add_site(vpn, 9, pfx("10.0.0.0/8"), None);
    }

    /// Two carriers, each a ring of four, joined ASBR to ASBR: A is
    /// 0-1-2-3 (links 0–3), B is 4-5-6-7 (links 4–7), and inter-AS link 8
    /// joins the ASBRs, nodes 2 and 4 (PE ordinals 2 and 3). PE ordinals
    /// 0 (node 0) and 1 (node 6) home the sites.
    fn two_rings(mode: ControlMode) -> ProviderNetwork {
        let mut topo = Topology::new(8);
        let attrs = LinkAttrs { cost: 1, capacity_bps: 100_000_000 };
        let rings = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)];
        for (u, v) in rings.into_iter().chain([(2, 4)]) {
            topo.add_link(u, v, attrs);
        }
        BackboneBuilder::new(topo, vec![0, 6, 2, 4])
            .domains(vec![0, 0, 0, 0, 1, 1, 1, 1])
            .control_mode(mode)
            .build()
    }

    /// One VPN with a site in each carrier and a sink behind each.
    fn span_carriers(pn: &mut ProviderNetwork) -> [(SiteId, NodeId); 2] {
        let vpn = pn.new_vpn("acme");
        let a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
        let b = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
        pn.run_to_quiescence();
        [(a, pn.attach_sink(a, pfx("10.1.0.0/16"))), (b, pn.attach_sink(b, pfx("10.2.0.0/16")))]
    }

    #[test]
    fn vpn_traffic_crosses_carriers_both_ways_and_survives_a_cold_restart() {
        for mode in [ControlMode::Oracle, ControlMode::InBand] {
            let mut pn = two_rings(mode);
            let [(a, sink_a), (b, sink_b)] = span_carriers(&mut pn);
            pn.verify().assert_clean(&format!("two carriers, {mode:?}"));
            // The VRFs name their own carrier's ASBR as the next hop.
            let next_hop = |pe| pn.vrf_digest(pe, VpnId(0)).iter().find_map(|r| r.1.clone());
            assert_eq!(next_hop(0).map(|r| (r.0, r.2)), Some((2, Some(vec![0, 1, 2]))));
            assert_eq!(next_hop(1).map(|r| (r.0, r.2)), Some((3, Some(vec![6, 5, 4]))));
            pn.reconverge();
            pn.run_to_quiescence();
            pn.verify().assert_clean(&format!("two carriers after a cold restart, {mode:?}"));
            let to_b = pn.site_addr(b, 9);
            send_flow(&mut pn, a, to_b, 1, 20);
            let to_a = pn.site_addr(a, 9);
            send_flow(&mut pn, b, to_a, 2, 20);
            pn.run_for(SEC);
            assert_eq!(pn.net.node_ref::<Sink>(sink_b).flow(1).map(|f| f.rx_packets), Some(20));
            assert_eq!(pn.net.node_ref::<Sink>(sink_a).flow(2).map(|f| f.rx_packets), Some(20));
            let stats = pn.control_stats().expect("control counters");
            assert_eq!((stats.undeliverable, stats.no_lsp_to_egress), (0, 0), "{mode:?}");
            // The withdraw crosses the ASBRs too.
            pn.detach_site(b);
            pn.run_to_quiescence();
            assert_eq!(pn.vrf_digest(0, VpnId(0)), [(pfx("10.1.0.0/16"), None)], "{mode:?}");
        }
    }

    /// An intra-domain cut and repair, in band, never leaves its carrier:
    /// no LSA or LDP byte crosses the inter-AS link, and the other
    /// carrier's routers run no SPF and keep their FTNs. The ASBR's stitch
    /// follows its carrier's reroute.
    #[test]
    fn a_cut_inside_one_carrier_stays_inside_it() {
        let mut pn = two_rings(ControlMode::InBand);
        let [(a, sink_a), (b, sink_b)] = span_carriers(&mut pn);
        let inter_as = 8;
        let bytes = pn.control_bytes_on_link(inter_as);
        assert!(bytes > 0, "the MP-BGP exchange crosses the inter-AS link");
        let carrier_b = |pn: &ProviderNetwork| -> Vec<(u64, Vec<Option<netsim_mpls::FtnEntry>>)> {
            (4..8)
                .map(|u| {
                    let control = pn.backbone(u).1;
                    (control.stats.spf_runs, (0..4).map(|f| control.ftn(f)).collect())
                })
                .collect()
        };
        let before = carrier_b(&pn);
        // Link 1 (1-2) carries PE0's tunnel to its ASBR.
        assert_eq!(pn.lsp_path(0, 2), Some(vec![0, 1, 2]));
        pn.fail_link(1);
        pn.run_to_quiescence();
        assert_eq!(pn.lsp_path(0, 2), Some(vec![0, 3, 2]));
        assert_eq!(pn.lsp_path(2, 0), Some(vec![2, 3, 0]));
        pn.verify().assert_clean("carrier A rerouted");
        let to_b = pn.site_addr(b, 9);
        send_flow(&mut pn, a, to_b, 1, 20);
        // B → A rides ASBR 2's stitch down carrier A's rerouted tunnel.
        let to_a = pn.site_addr(a, 9);
        send_flow(&mut pn, b, to_a, 2, 20);
        pn.run_for(SEC);
        assert_eq!(pn.net.node_ref::<Sink>(sink_b).flow(1).map(|f| f.rx_packets), Some(20));
        assert_eq!(pn.net.node_ref::<Sink>(sink_a).flow(2).map(|f| f.rx_packets), Some(20));
        pn.repair_link(1);
        pn.run_to_quiescence();
        assert_eq!(pn.control_bytes_on_link(inter_as), bytes, "no LSA or LDP crossed");
        assert_eq!(carrier_b(&pn), before, "carrier B ran no SPF and kept its FTNs");
        pn.verify().assert_clean("carrier A repaired");
    }
}
