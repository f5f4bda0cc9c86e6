//! The benchmark's workloads. Each one is generated from the seed alone,
//! built (set-up, timed on its own), driven (the timed phase), and then
//! checked against what the simulated network must have done.
//!
//! * `forward` — uncongested multi-VPN forwarding: every data-plane layer
//!   on every hop (CE marking, VRF lookup and label push, LSR swap, PHP,
//!   VPN-label dispatch, priority qdisc), and no drops.
//! * `congested` — a DiffServ bottleneck offered twice its capacity: the
//!   scheduler, RED and the drop recorder work on every packet.
//! * `control` — in-band control-plane churn: link cuts and repairs, site
//!   joins and leaves; LSA floods, incremental SPF, LDP and MP-BGP deltas.

use std::cell::OnceCell;

use mplsvpn_core::network::DsSched;
use mplsvpn_core::{
    BackboneBuilder, CeRouter, ControlMode, CoreQos, CoreRouter, PeRouter, ProviderNetwork, SiteId,
    VpnId, VrfDigestRow,
};
use netsim_net::{Dscp, Ip, Prefix};
use netsim_routing::{LinkAttrs, Topology};
use netsim_sim::{
    CbrSource, Nanos, NodeId, OnOffSource, PoissonSource, Sink, SourceConfig, MSEC, SEC,
};

/// Deterministic generator for workload inputs (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Work the simulator did in the timed phase, counted at layer boundaries
/// through the program's public counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Calendar events dispatched (sim).
    pub events: u64,
    /// MPLS label operations in all routers (mpls).
    pub label_ops: u64,
    /// Longest-prefix-match lookups in all routers (net).
    pub lpm_lookups: u64,
    /// Drop and absorption records written (obs).
    pub recorder_writes: u64,
    /// In-band control packets put on the wire (core control plane).
    pub ctrl_pkts: u64,
    /// Full SPF runs triggered by LSAs (routing).
    pub spf_runs: u64,
}

impl Counts {
    fn read(pn: &ProviderNetwork, pe_nodes: &[NodeId]) -> Counts {
        let mut c = Counts { events: pn.net.events_processed(), ..Counts::default() };
        for u in 0..pn.topo.node_count() {
            let id = pn.backbone_node(u);
            let rc = if pe_nodes.contains(&id) {
                pn.net.node_ref::<PeRouter>(id).counters
            } else {
                pn.net.node_ref::<CoreRouter>(id).counters
            };
            c.label_ops += rc.label_ops;
            c.lpm_lookups += rc.lpm_lookups;
        }
        for s in &pn.sites {
            let rc = pn.net.node_ref::<CeRouter>(s.ce).counters;
            c.label_ops += rc.label_ops;
            c.lpm_lookups += rc.lpm_lookups;
        }
        if let Some(rec) = pn.net.recorder() {
            c.recorder_writes = rec.total_drops() + rec.absorbed_total();
        }
        if let Some(st) = pn.control_stats() {
            c.ctrl_pkts = st.pkts_sent;
            c.spf_runs = st.spf_runs;
        }
        c
    }

    fn minus(self, o: Counts) -> Counts {
        Counts {
            events: self.events - o.events,
            label_ops: self.label_ops - o.label_ops,
            lpm_lookups: self.lpm_lookups - o.lpm_lookups,
            recorder_writes: self.recorder_writes - o.recorder_writes,
            ctrl_pkts: self.ctrl_pkts - o.ctrl_pkts,
            spf_runs: self.spf_runs - o.spf_runs,
        }
    }
}

/// What one checked repetition produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tally {
    /// Input items the timed phase processed: data packets offered by the
    /// sources, or control-plane changes applied.
    pub ops: u64,
    /// Layer work counted over the timed phase.
    pub counts: Counts,
    /// Hash of the simulated outcome: equal inputs must give equal hashes.
    pub fingerprint: u64,
}

/// A built network ready to be driven.
pub struct Instance {
    pub pn: ProviderNetwork,
    /// Simulator nodes of the PEs (the other backbone nodes are P routers).
    pub pe_nodes: Vec<NodeId>,
    /// Destination addresses the workload's VRF lookups resolve.
    pub dsts: Vec<Ip>,
    sinks: Vec<NodeId>,
    sources: Vec<(NodeId, Source)>,
    /// Sites added by the timed phase, in join order.
    joined: Vec<SiteId>,
    /// Counters at the end of set-up.
    start: Counts,
}

impl Instance {
    fn new(pn: ProviderNetwork) -> Instance {
        let pe_nodes = (0..pn.pe_count()).map(|k| pn.pe_node(k)).collect();
        Instance {
            pn,
            pe_nodes,
            dsts: Vec::new(),
            sinks: Vec::new(),
            sources: Vec::new(),
            joined: Vec::new(),
            start: Counts::default(),
        }
    }

    /// Marks the end of set-up: the timed phase is counted from here.
    fn ready(mut self) -> Instance {
        self.start = Counts::read(&self.pn, &self.pe_nodes);
        self
    }

    fn counts(&self) -> Counts {
        Counts::read(&self.pn, &self.pe_nodes).minus(self.start)
    }

    fn tx_packets(&self) -> u64 {
        self.sources.iter().map(|&(id, kind)| tx_packets(&self.pn, id, kind)).sum()
    }
}

#[derive(Clone, Copy)]
enum Source {
    Cbr,
    Poisson,
    OnOff,
}

fn tx_packets(pn: &ProviderNetwork, id: NodeId, kind: Source) -> u64 {
    match kind {
        Source::Cbr => pn.net.node_ref::<CbrSource>(id).tx.tx_packets,
        Source::Poisson => pn.net.node_ref::<PoissonSource>(id).tx.tx_packets,
        Source::OnOff => pn.net.node_ref::<OnOffSource>(id).tx.tx_packets,
    }
}

/// FNV-1a over a sequence of words.
fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

pub trait Workload {
    /// Builds the network and attaches everything the timed phase uses.
    fn setup(&self) -> Instance;
    /// The timed phase.
    fn drive(&self, inst: &mut Instance);
    /// Verifies the outcome and reports the work done.
    fn check(&self, inst: &mut Instance) -> Result<Tally, String>;
    /// The backbone egress profile `setup` builds with.
    fn core_qos(&self) -> CoreQos;
}

/// Generates the named workload from `seed`.
pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    let mut rng = Rng::new(seed);
    match name {
        "forward" => Some(Box::new(Forward::generate(&mut rng))),
        "congested" => Some(Box::new(Congested::generate(&mut rng))),
        "control" => Some(Box::new(Control::generate(&mut rng))),
        _ => None,
    }
}

pub const NAMES: [&str; 3] = ["forward", "congested", "control"];

/// Classful DiffServ core used by the data-plane workloads.
const DIFFSERV: CoreQos = CoreQos::DiffServ { cap_bytes: 1 << 20, sched: DsSched::Priority };

fn links(topo: &mut Topology, pairs: &[(usize, usize)], capacity_bps: u64) {
    for &(u, v) in pairs {
        topo.add_link(u, v, LinkAttrs { cost: 1, capacity_bps });
    }
}

// ---------------------------------------------------------------------------
// forward
// ---------------------------------------------------------------------------

const FWD_VPNS: usize = 3;
const FWD_PES: [usize; 4] = [0, 2, 4, 6];
const FWD_PACKETS_PER_FLOW: u64 = 400;

struct FlowSpec {
    vpn: usize,
    src_pe: usize,
    dst_pe: usize,
    src_host: u32,
    dst_host: u32,
    payload: usize,
    dscp: Dscp,
    interval: Nanos,
}

/// One CBR flow per ordered PE pair per VPN: the path structure is fixed,
/// so the seed moves sizes, classes, rates and addresses, not hop counts.
pub struct Forward {
    flows: Vec<FlowSpec>,
}

impl Forward {
    fn generate(rng: &mut Rng) -> Forward {
        let classes = [Dscp::EF, Dscp::AF41, Dscp::AF21, Dscp::BE];
        let mut flows = Vec::new();
        for vpn in 0..FWD_VPNS {
            for src_pe in 0..FWD_PES.len() {
                for dst_pe in 0..FWD_PES.len() {
                    if src_pe == dst_pe {
                        continue;
                    }
                    flows.push(FlowSpec {
                        vpn,
                        src_pe,
                        dst_pe,
                        src_host: rng.range(1, 250) as u32,
                        dst_host: rng.range(1, 250) as u32,
                        payload: rng.range(64, 1400) as usize,
                        dscp: classes[rng.index(classes.len())],
                        // 1–2 kpps: at most ~23 Mb/s per flow, far below
                        // every link's capacity, so nothing queues long.
                        interval: rng.range(500_000, 1_000_000),
                    });
                }
            }
        }
        Forward { flows }
    }

    fn site_prefix(pe: usize) -> Prefix {
        // Every VPN reuses the same blocks: isolation has to hold anyway.
        Prefix::new(Ip(0x0A00_0000 | ((pe as u32 + 1) << 16)), 16)
    }
}

impl Workload for Forward {
    fn setup(&self) -> Instance {
        // An 8-node ring: PEs on the even nodes, P routers on the odd.
        let mut topo = Topology::new(8);
        let ring: Vec<(usize, usize)> = (0..8).map(|i| (i, (i + 1) % 8)).collect();
        links(&mut topo, &ring, 1_000_000_000);
        let pn = BackboneBuilder::new(topo, FWD_PES.to_vec())
            .core_qos(DIFFSERV)
            .access(1_000_000_000, 100_000)
            .build();
        let mut inst = Instance::new(pn);
        let pn = &mut inst.pn;
        let names = ["acme", "globex", "initech"];
        let mut sites = Vec::new();
        for name in names {
            let vpn = pn.new_vpn(name);
            for pe in 0..FWD_PES.len() {
                let site = pn.add_site(vpn, pe, Self::site_prefix(pe), None);
                inst.sinks.push(pn.attach_sink(site, Self::site_prefix(pe)));
                sites.push(site);
            }
        }
        for (i, f) in self.flows.iter().enumerate() {
            let src = sites[f.vpn * FWD_PES.len() + f.src_pe];
            let dst = sites[f.vpn * FWD_PES.len() + f.dst_pe];
            let dst_ip = pn.site_addr(dst, f.dst_host);
            let cfg = SourceConfig::udp(
                i as u64 + 1,
                pn.site_addr(src, f.src_host),
                dst_ip,
                5000,
                f.payload,
            )
            .with_dscp(f.dscp);
            let id = pn.attach_cbr_source(src, cfg, f.interval, Some(FWD_PACKETS_PER_FLOW));
            inst.sources.push((id, Source::Cbr));
            inst.dsts.push(dst_ip);
        }
        inst.ready()
    }

    fn drive(&self, inst: &mut Instance) {
        inst.pn.run_to_quiescence();
    }

    fn core_qos(&self) -> CoreQos {
        DIFFSERV
    }

    fn check(&self, inst: &mut Instance) -> Result<Tally, String> {
        let pn = &inst.pn;
        let offered = inst.tx_packets();
        let expected = self.flows.len() as u64 * FWD_PACKETS_PER_FLOW;
        if offered != expected {
            return Err(format!("forward: sources sent {offered}, expected {expected}"));
        }
        let drops = pn.net.recorder().map_or(0, netsim_obs::FlightRecorder::total_drops);
        if drops != 0 {
            return Err(format!("forward: {drops} packets dropped on an uncongested backbone"));
        }
        let mut words = Vec::new();
        for (i, f) in self.flows.iter().enumerate() {
            let flow = i as u64 + 1;
            let sink = inst.sinks[f.vpn * FWD_PES.len() + f.dst_pe];
            let got = pn.net.node_ref::<Sink>(sink).flow(flow).map_or(0, |s| s.rx_packets);
            if got != FWD_PACKETS_PER_FLOW {
                return Err(format!(
                    "forward: flow {flow} delivered {got} of {FWD_PACKETS_PER_FLOW}"
                ));
            }
            words.push(pn.net.node_ref::<Sink>(sink).flow(flow).map_or(0, |s| s.last_rx));
        }
        for (k, &sink) in inst.sinks.iter().enumerate() {
            let want = self.flows.iter().filter(|f| f.vpn * FWD_PES.len() + f.dst_pe == k).count()
                as u64
                * FWD_PACKETS_PER_FLOW;
            let got = pn.net.node_ref::<Sink>(sink).total_packets;
            if got != want {
                return Err(format!("forward: site {k} received {got} packets, expected {want}"));
            }
        }
        let counts = inst.counts();
        words.extend([counts.events, counts.label_ops, counts.lpm_lookups]);
        Ok(Tally { ops: offered, counts, fingerprint: fingerprint(words) })
    }
}

// ---------------------------------------------------------------------------
// congested
// ---------------------------------------------------------------------------

struct MixFlow {
    dscp: Dscp,
    payload: usize,
    interval: Nanos,
    kind: Source,
    seed: u64,
}

/// The paper's traffic mix (voice, video, transactional, bulk) offered at
/// about twice a 10 Mb/s bottleneck, for four simulated seconds.
pub struct Congested {
    flows: Vec<MixFlow>,
}

const MIX_UNTIL: Nanos = 4 * SEC;

impl Congested {
    fn generate(rng: &mut Rng) -> Congested {
        let mut flows = Vec::new();
        for _ in 0..8 {
            // G.711-like voice: 160 B every ~20 ms.
            flows.push(MixFlow {
                dscp: Dscp::EF,
                payload: 160,
                interval: rng.range(18 * MSEC, 22 * MSEC),
                kind: Source::Cbr,
                seed: 0,
            });
        }
        for _ in 0..2 {
            flows.push(MixFlow {
                dscp: Dscp::AF41,
                payload: rng.range(1000, 1300) as usize,
                interval: 8 * MSEC,
                kind: Source::Cbr,
                seed: 0,
            });
        }
        for _ in 0..2 {
            flows.push(MixFlow {
                dscp: Dscp::AF21,
                payload: rng.range(500, 700) as usize,
                interval: 2 * MSEC,
                kind: Source::OnOff,
                seed: rng.next_u64(),
            });
        }
        for _ in 0..2 {
            flows.push(MixFlow {
                dscp: Dscp::BE,
                payload: rng.range(900, 1100) as usize,
                interval: MSEC,
                kind: Source::Poisson,
                seed: rng.next_u64(),
            });
        }
        Congested { flows }
    }
}

impl Workload for Congested {
    fn setup(&self) -> Instance {
        // PE0 — P1 ══ P2 — PE3, the middle link a 10 Mb/s bottleneck.
        let mut topo = Topology::new(4);
        links(&mut topo, &[(0, 1)], 100_000_000);
        links(&mut topo, &[(1, 2)], 10_000_000);
        links(&mut topo, &[(2, 3)], 100_000_000);
        let pn = BackboneBuilder::new(topo, vec![0, 3]).core_qos(DIFFSERV).build();
        let mut inst = Instance::new(pn);
        let pn = &mut inst.pn;
        let vpn = pn.new_vpn("acme");
        let a = pn.add_site(vpn, 0, "10.1.0.0/16".parse().expect("prefix"), None);
        let b = pn.add_site(vpn, 1, "10.2.0.0/16".parse().expect("prefix"), None);
        inst.sinks.push(pn.attach_sink(b, "10.2.0.0/16".parse().expect("prefix")));
        for (i, f) in self.flows.iter().enumerate() {
            let host = 100 + i as u32;
            let dst_ip = pn.site_addr(b, host);
            let cfg =
                SourceConfig::udp(i as u64 + 1, pn.site_addr(a, host), dst_ip, 5000, f.payload)
                    .with_dscp(f.dscp);
            let id = match f.kind {
                Source::Cbr => {
                    pn.attach_cbr_source(a, cfg, f.interval, Some(MIX_UNTIL / f.interval))
                }
                Source::Poisson => {
                    pn.attach_poisson_source(a, cfg, f.interval, f.seed, Some(MIX_UNTIL))
                }
                Source::OnOff => pn.attach_onoff_source(
                    a,
                    cfg,
                    f.interval,
                    50 * MSEC,
                    50 * MSEC,
                    f.seed,
                    Some(MIX_UNTIL),
                ),
            };
            inst.sources.push((id, f.kind));
            inst.dsts.push(dst_ip);
        }
        inst.ready()
    }

    fn drive(&self, inst: &mut Instance) {
        inst.pn.run_to_quiescence();
    }

    fn core_qos(&self) -> CoreQos {
        DIFFSERV
    }

    fn check(&self, inst: &mut Instance) -> Result<Tally, String> {
        let pn = &inst.pn;
        let rec = pn.net.recorder().ok_or("congested: no flight recorder")?;
        let sink = pn.net.node_ref::<Sink>(inst.sinks[0]);
        let mut words = Vec::new();
        for (i, (f, &(src, kind))) in self.flows.iter().zip(&inst.sources).enumerate() {
            let flow = i as u64 + 1;
            let sent = tx_packets(pn, src, kind);
            let got = sink.flow(flow).map_or(0, |s| s.rx_packets);
            let lost = rec.flow_drops(flow);
            if sent != got + lost {
                return Err(format!(
                    "congested: flow {flow} sent {sent} but delivered {got} + dropped {lost}"
                ));
            }
            if f.dscp == Dscp::EF && lost != 0 {
                return Err(format!("congested: EF flow {flow} lost {lost} packets"));
            }
            words.extend([sent, got]);
        }
        let drops = rec.total_drops();
        if drops == 0 {
            return Err("congested: the bottleneck dropped nothing".into());
        }
        if rec.total(netsim_obs::DropCause::NoRoute) + rec.total(netsim_obs::DropCause::VrfMiss)
            != 0
        {
            return Err("congested: packets dropped for lack of a route".into());
        }
        if pn.net.queued_packets() != 0 {
            return Err("congested: packets left queued at quiescence".into());
        }
        let counts = inst.counts();
        words.extend(rec.totals());
        words.extend([counts.events]);
        Ok(Tally { ops: inst.tx_packets(), counts, fingerprint: fingerprint(words) })
    }
}

// ---------------------------------------------------------------------------
// control
// ---------------------------------------------------------------------------

const CTL_VPNS: usize = 4;
const CTL_PES: [usize; 6] = [0, 1, 4, 5, 8, 9];
const CTL_CYCLES: usize = 96;
/// Best-effort FIFO core: the control workload prices messages, not QoS.
const CTL_QOS: CoreQos = CoreQos::BestEffort { cap_bytes: 256 * 1024 };
const CTL_DETECT: Nanos = 20 * MSEC;
/// Long enough for detection, the LSA flood, SPF and LDP repair to finish.
const CTL_SETTLE: Nanos = 300 * MSEC;
/// Long enough for MP-BGP updates to cross the backbone.
const CTL_BGP_SETTLE: Nanos = 50 * MSEC;

/// One churn cycle: cut a link, join a site while it is down, repair the
/// link, then detach one of the sites joined so far.
struct Cycle {
    cut: usize,
    join_vpn: usize,
    join_pe: usize,
    /// Index into the join order of the site to detach.
    detach: usize,
}

/// Link and membership churn on a 2×5 ladder backbone running the in-band
/// control plane. The ladder stays connected after any single cut.
pub struct Control {
    cycles: Vec<Cycle>,
    /// Forwarding state a fresh oracle recomputation reaches on the same
    /// inputs, computed once per process.
    oracle: OnceCell<ControlState>,
}

/// Digest of every VRF, per PE and VPN in order.
type ControlState = Vec<Vec<VrfDigestRow>>;

impl Control {
    fn generate(rng: &mut Rng) -> Control {
        let n_links = Self::topology().link_count();
        let mut attached: Vec<usize> = Vec::new();
        let mut cycles = Vec::new();
        for c in 0..CTL_CYCLES {
            let cut = rng.index(n_links);
            let join_vpn = rng.index(CTL_VPNS);
            let join_pe = rng.index(CTL_PES.len());
            attached.push(c);
            let detach = attached.swap_remove(rng.index(attached.len()));
            cycles.push(Cycle { cut, join_vpn, join_pe, detach });
        }
        Control { cycles, oracle: OnceCell::new() }
    }

    fn topology() -> Topology {
        let mut topo = Topology::new(10);
        let rails = [(0, 2), (2, 4), (4, 6), (6, 8), (1, 3), (3, 5), (5, 7), (7, 9)];
        let rungs = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)];
        links(&mut topo, &rails, 1_000_000_000);
        links(&mut topo, &rungs, 1_000_000_000);
        topo
    }

    fn build(mode: ControlMode) -> Instance {
        let pn = BackboneBuilder::new(Self::topology(), CTL_PES.to_vec())
            .core_qos(CTL_QOS)
            .detection(CTL_DETECT)
            .control_mode(mode)
            .build();
        let mut inst = Instance::new(pn);
        let pn = &mut inst.pn;
        for v in 0..CTL_VPNS {
            let vpn = pn.new_vpn(format!("vpn{v}"));
            for pe in 0..CTL_PES.len() {
                // The same blocks in every VPN: isolation has to hold anyway.
                let prefix = mplsvpn_core::membership::site_prefix(pe);
                pn.add_site(vpn, pe, prefix, None);
                inst.dsts.push(prefix.nth(1));
            }
        }
        pn.run_to_quiescence();
        inst.ready()
    }

    /// Applies the churn; `reconverge` stands in for the control plane
    /// after each link event (the oracle twin).
    fn churn(&self, inst: &mut Instance, reconverge: bool) {
        for (c, cy) in self.cycles.iter().enumerate() {
            let pn = &mut inst.pn;
            pn.fail_link(cy.cut);
            pn.run_for(CTL_SETTLE);
            if reconverge {
                pn.reconverge();
            }
            let prefix = mplsvpn_core::membership::site_prefix(100 + c);
            let site = pn.add_site(VpnId(cy.join_vpn), cy.join_pe, prefix, None);
            inst.joined.push(site);
            pn.run_for(CTL_BGP_SETTLE);
            pn.repair_link(cy.cut);
            pn.run_for(CTL_SETTLE);
            if reconverge {
                pn.reconverge();
            }
            pn.detach_site(inst.joined[cy.detach]);
            pn.run_for(CTL_BGP_SETTLE);
        }
        inst.pn.run_to_quiescence();
    }

    fn state(inst: &mut Instance) -> ControlState {
        let pn = &mut inst.pn;
        let mut out = Vec::new();
        for pe in 0..pn.pe_count() {
            for v in 0..CTL_VPNS {
                if pn.vrf_handle(pe, VpnId(v)).is_some() {
                    out.push(pn.vrf_digest(pe, VpnId(v)));
                }
            }
        }
        out
    }
}

impl Workload for Control {
    fn setup(&self) -> Instance {
        Self::build(ControlMode::InBand)
    }

    fn drive(&self, inst: &mut Instance) {
        self.churn(inst, false);
    }

    fn core_qos(&self) -> CoreQos {
        CTL_QOS
    }

    fn check(&self, inst: &mut Instance) -> Result<Tally, String> {
        let stats = inst.pn.control_stats().ok_or("control: no in-band control plane")?;
        if stats.pkts_sent != stats.pkts_terminated {
            return Err(format!(
                "control: {} control packets sent, {} terminated",
                stats.pkts_sent, stats.pkts_terminated
            ));
        }
        if stats.undeliverable != 0 || inst.pn.no_lsp_to_egress() != 0 {
            return Err(format!("control: routes left unreachable: {stats:?}"));
        }
        let state = Self::state(inst);
        let oracle = self.oracle.get_or_init(|| {
            let mut twin = Self::build(ControlMode::Oracle);
            self.churn(&mut twin, true);
            Self::state(&mut twin)
        });
        if &state != oracle {
            return Err("control: in-band VRFs differ from a fresh oracle recomputation".into());
        }
        let counts = inst.counts();
        let mut words = vec![counts.events, counts.ctrl_pkts, counts.spf_runs, stats.bytes_sent];
        words.extend(state.iter().map(|v| v.len() as u64));
        Ok(Tally { ops: 4 * self.cycles.len() as u64, counts, fingerprint: fingerprint(words) })
    }
}
