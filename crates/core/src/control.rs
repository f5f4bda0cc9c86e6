//! The VPN route-distribution engine and its two transports.
//!
//! Every control-plane change is a typed `CtrlMsg` applied as a delta:
//! IGP link-state advertisements, LDP mappings/withdraws, and MP-BGP VPN
//! updates (labels piggybacked on the route, per the paper's §4). Each
//! backbone router owns its control plane (`NodeControl`): its *view* —
//! link states, SPF tree, LDP bindings and FTN — and its counters, which
//! it changes only from the messages it receives and its own detection
//! events, as the paper's LSRs and PEs do (§3–§4). Routers share only
//! read-only configuration (`ControlConfig`: topology, PE list, mode).
//! The views are the only FTN source the provider network reads.
//!
//! VPN routes never hold a copy of an LDP tunnel. They are resolved
//! recursively (RFC 4364 §5): VPN route → egress PE → the PE's tunnel
//! table ([`crate::router::PeRouter::tunnels`], one slot per egress). An
//! FTN change at a PE writes one slot, whatever number of routes ride it;
//! a lost LSP leaves the stale slot in place. Routes installed here
//! follow the table; only explicit TE bindings carry their own tunnel.
//!
//! Every router reacts to its own detection events and to the messages it
//! receives, whichever transport carries them; [`ControlMode`] chooses
//! only the transport. A message rides in a control packet:
//! `CtrlMsg::encode` writes it into the packet's metadata words, an LSA's
//! origination instant included, so no router keeps per-packet or
//! per-episode state. In-band, the packet is CS6-marked and crosses the
//! same links and queues as data; under the oracle it is handed to the
//! next router at once ([`Ctx::deliver`]), a zero-latency transport. A
//! router lends its control plane the packet and its live tables (LFIB;
//! at PEs also the VRF FIBs and tunnel table), so updates land directly
//! in the forwarding plane. IGP and LDP messages are link-local: each hop
//! terminates them and sends its own. An MP-BGP message runs PE to PE
//! (paper §3–§4): a router that is not its target sends the same packet
//! on, with the origin PE's source address, as P routers IP-forward a BGP
//! session's packets. A router's IGP never believes an inter-AS link up,
//! so IGP and LDP stay inside their domain; an MP-BGP message for another
//! domain's PE crosses at the ASBRs, which re-advertise its route under
//! labels of their own (RFC 4364 §10(b); `NodeControl::restitch`).
//! A terminated packet's box goes back to the
//! network's one spare stack ([`Ctx::recycle`]) for the next message any
//! router builds. Every message leaves its origin this way, MP-BGP deltas
//! included, and `NodeControl::transmit` is the one place a transport is
//! picked: no control state changes outside the simulator's run, so a
//! delta sent under the oracle lands when the simulator next runs, at the
//! instant it was sent.
//!
//! A router starts cold (`NodeControl::restart`), at bring-up and in
//! the reference `reconverge()`: it knows its link states and nothing of
//! LDP, and its bindings arrive through the same deltas (RFC 5036 §2.6),
//! over the zero-latency transport under either mode.
//!
//! Fast reroute composes with convergence as RFC 8333 ("Micro-loop
//! Prevention by Introducing a Local Convergence Delay") has it: a router
//! that detects a failure on an interface with a bypass installed, the
//! point of local repair, floods the LSA at once but holds its own SPF
//! and LDP repair for `LOCAL_CONVERGENCE_DELAY` (50 ms). The bypass
//! carries its traffic meanwhile, and every other router converges as
//! usual.
//!
//! Determinism: no message depends on hash-map order. All fan-out walks
//! index ranges (FEC ordinals, topology adjacency order) or ordered sets,
//! so replays are bit-identical for a fixed seed and event sequence.

use std::rc::Rc;

use netsim_mpls::lfib::{FtnEntry, LabelOp, Lfib, Nhlfe, LOCAL_IFACE};
use netsim_mpls::LabelSpace;
use netsim_net::mpls::IMPLICIT_NULL;
use netsim_net::{Dscp, Ip, Packet, Pkt, PktMeta, Prefix};
use netsim_obs::Histogram;
use netsim_qos::Nanos;
use netsim_routing::{SpfTree, Topology};
use netsim_sim::{Ctx, IfaceId};

use crate::router::VrfFib;

/// How control messages travel between backbone routers. Under either
/// transport LSAs flood hop by hop, each router runs incremental SPF and
/// repairs its LFIB from retained LDP bindings, and BGP VPN deltas reach
/// their target PEs as typed messages.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ControlMode {
    /// Zero-latency transport (controller push): a message reaches the
    /// next router the instant it is sent, with no queueing, no wire time
    /// and no link bytes, though a cut link still loses it. An MP-BGP
    /// delta crosses the P routers to its target PE the same way, when the
    /// simulator runs at the instant it was sent. Convergence takes no
    /// simulated time, and no control packet crosses a link.
    #[default]
    Oracle,
    /// In-band: messages are CS6 control packets through the same links
    /// and queues as data, so convergence takes real (simulated) time and
    /// costs wire bytes.
    InBand,
}

/// How long a point of local repair holds its own SPF and LDP repair
/// after it detects a failure on an interface with a bypass installed
/// (RFC 8333). Every other router must have converged by then, so the
/// repair never sends traffic back to a neighbour still forwarding over
/// the failed link. It is far above the in-band flood's measured worst
/// case (2.15 ms in R2), and a 25 ms detection plus the hold fits the
/// chaos suite's 125 ms settling time.
pub(crate) const LOCAL_CONVERGENCE_DELAY: Nanos = 50_000_000;

/// Timer-token namespace for the interface timers a backbone router's
/// control plane owns: the high bit marks the namespace, bit 0 carries
/// down/up of a BFD-style detection, [`HOLD_END`] marks the end of a local
/// convergence hold instead, and the bits above carry the interface index.
pub(crate) const fn iface_timer_token(iface: usize, down: bool) -> u64 {
    (1u64 << 63) | ((iface as u64) << 2) | down as u64
}

/// Token bit of the timer that ends a local convergence hold.
const HOLD_END: u64 = 2;

/// Flow-id namespace for control packets. Distinct from (and above) the
/// SLA-probe namespace so routers and sinks can cheaply classify:
/// `flow >= CTRL_FLOW_BASE` means control plane.
pub const CTRL_FLOW_BASE: u64 = 1 << 49;

/// Protocol ordinal inside the control flow-id namespace.
const PROTO_IGP: usize = 0;
const PROTO_LDP: usize = 1;
const PROTO_BGP: usize = 2;

/// A typed control message. The wire packet is CS6-marked UDP of a
/// representative size; the message itself rides in the packet's two
/// metadata words ([`CtrlMsg::encode`]), so the data plane never parses
/// control payloads and no router keeps anything per packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CtrlMsg {
    /// Link-state advertisement: link `link` changed to `down` at event
    /// sequence `seq`. Flooded hop-by-hop; deduplicated per (link, seq).
    Lsa {
        /// Topology link id the advertisement describes.
        link: usize,
        /// New state of the link.
        down: bool,
        /// Per-link event sequence number (dedup key); 0 is the bring-up
        /// state, which no link event opens.
        seq: u64,
        /// When the link event's detection fired: every router that
        /// applies the LSA records its age as a convergence sample.
        origin: Nanos,
    },
    /// LDP label mapping: `from`'s binding for tunnel FEC `fec` is
    /// `label`. Single hop (LDP sessions are link-local here).
    LdpMapping {
        /// Tunnel FEC ordinal (egress-PE index).
        fec: u32,
        /// The advertised label (possibly [`IMPLICIT_NULL`]).
        label: u32,
        /// Topology node that owns the binding.
        from: usize,
    },
    /// LDP label withdraw: `from` no longer has a usable binding for
    /// `fec`. Single hop.
    LdpWithdraw {
        /// Tunnel FEC ordinal.
        fec: u32,
        /// Topology node withdrawing its binding.
        from: usize,
    },
    /// MP-BGP VPN route update addressed to PE `target`: install
    /// `prefix → (egress_pe, vpn_label)` into VRF slot `vrf_idx`. The VPN
    /// label is piggybacked on the route update (paper §4). Forwarded
    /// hop-by-hop toward the target PE.
    BgpUpdate {
        /// Destination PE ordinal.
        target: usize,
        /// VRF slot index at the target PE.
        vrf_idx: usize,
        /// Customer prefix being advertised.
        prefix: Prefix,
        /// Egress PE ordinal for the route.
        egress_pe: usize,
        /// VPN demultiplexing label at the egress PE.
        vpn_label: u32,
    },
    /// MP-BGP VPN route withdrawal addressed to PE `target`, optionally
    /// carrying the replacement best path (multihomed failover).
    BgpWithdraw {
        /// Destination PE ordinal.
        target: usize,
        /// VRF slot index at the target PE.
        vrf_idx: usize,
        /// Customer prefix being withdrawn.
        prefix: Prefix,
        /// New best path, if any survives the withdrawal.
        replacement: Option<(usize, u32)>,
    },
}

impl CtrlMsg {
    fn proto(&self) -> usize {
        match self {
            CtrlMsg::Lsa { .. } => PROTO_IGP,
            CtrlMsg::LdpMapping { .. } | CtrlMsg::LdpWithdraw { .. } => PROTO_LDP,
            CtrlMsg::BgpUpdate { .. } | CtrlMsg::BgpWithdraw { .. } => PROTO_BGP,
        }
    }

    /// Representative payload size in bytes (headers are added by
    /// `Packet::udp`); keeps per-link control-byte counters meaningful.
    fn payload_len(&self) -> usize {
        match self {
            CtrlMsg::Lsa { .. } => 64,
            CtrlMsg::LdpMapping { .. } | CtrlMsg::LdpWithdraw { .. } => 32,
            CtrlMsg::BgpUpdate { .. } | CtrlMsg::BgpWithdraw { .. } => 64,
        }
    }

    /// Target PE ordinal of a BGP message (`None` for IGP/LDP).
    fn bgp_target(&self) -> Option<usize> {
        match *self {
            CtrlMsg::BgpUpdate { target, .. } | CtrlMsg::BgpWithdraw { target, .. } => Some(target),
            _ => None,
        }
    }

    fn port(&self) -> u16 {
        match self.proto() {
            PROTO_IGP => 89,
            PROTO_LDP => 646,
            _ => 179,
        }
    }

    /// Writes the message into a control packet's metadata. `flow` names
    /// the protocol (routers classify on it). `seq` holds the kind in its
    /// low [`TAG_BITS`] and up to three [`FIELD_BITS`]-wide index fields
    /// above it (an LSA's sequence number is one); `created_ns` holds the
    /// rest: an LSA's origination instant, or a BGP message's prefix and
    /// VPN label ([`bgp_word`]).
    fn encode(&self, meta: &mut PktMeta) {
        let (tag, fields, rest) = match *self {
            CtrlMsg::Lsa { link, down, seq, origin } => {
                (TAG_LSA, [link, usize::from(down), seq as usize], origin)
            }
            CtrlMsg::LdpMapping { fec, label, from } => {
                (TAG_LDP_MAPPING, [from, fec as usize, label as usize], 0)
            }
            CtrlMsg::LdpWithdraw { fec, from } => (TAG_LDP_WITHDRAW, [from, fec as usize, 0], 0),
            CtrlMsg::BgpUpdate { target, vrf_idx, prefix, egress_pe, vpn_label } => {
                (TAG_BGP_UPDATE, [target, vrf_idx, egress_pe], bgp_word(prefix, Some(vpn_label)))
            }
            CtrlMsg::BgpWithdraw { target, vrf_idx, prefix, replacement } => {
                let (egress_pe, label) = replacement.unzip();
                let fields = [target, vrf_idx, egress_pe.unwrap_or(0)];
                (TAG_BGP_WITHDRAW, fields, bgp_word(prefix, label))
            }
        };
        let mut word = tag;
        for (shift, v) in (TAG_BITS..).step_by(FIELD_BITS as usize).zip(fields) {
            debug_assert!(v as u64 <= FIELD_MAX, "control field {v} exceeds {FIELD_BITS} bits");
            word |= (v as u64) << shift;
        }
        meta.flow = CTRL_FLOW_BASE + self.proto() as u64;
        meta.seq = word;
        meta.created_ns = rest;
    }

    /// The route a BGP message carries, as (next hop PE ordinal, label):
    /// an update's, or a withdraw's replacement.
    fn route_mut(&mut self) -> Option<(&mut usize, &mut u32)> {
        match self {
            CtrlMsg::BgpUpdate { egress_pe, vpn_label, .. } => Some((egress_pe, vpn_label)),
            CtrlMsg::BgpWithdraw { replacement: Some((egress_pe, label)), .. } => {
                Some((egress_pe, label))
            }
            _ => None,
        }
    }

    /// Reads back the message [`CtrlMsg::encode`] wrote.
    fn decode(meta: &PktMeta) -> CtrlMsg {
        let field = |i: u32| ((meta.seq >> (TAG_BITS + FIELD_BITS * i)) & FIELD_MAX) as usize;
        let rest = meta.created_ns;
        let prefix = || Prefix::new(Ip(rest as u32), (rest >> 32) as u8 & 0x3F);
        let label = (rest >> 38 & 1 == 1).then_some((rest >> 39 & FIELD_MAX) as u32);
        match meta.seq & TAG_MASK {
            TAG_LSA => CtrlMsg::Lsa {
                link: field(0),
                down: field(1) != 0,
                seq: field(2) as u64,
                origin: rest,
            },
            TAG_LDP_MAPPING => {
                CtrlMsg::LdpMapping { fec: field(1) as u32, label: field(2) as u32, from: field(0) }
            }
            TAG_LDP_WITHDRAW => CtrlMsg::LdpWithdraw { fec: field(1) as u32, from: field(0) },
            TAG_BGP_UPDATE => CtrlMsg::BgpUpdate {
                target: field(0),
                vrf_idx: field(1),
                prefix: prefix(),
                egress_pe: field(2),
                vpn_label: label.unwrap_or_default(),
            },
            _ => CtrlMsg::BgpWithdraw {
                target: field(0),
                vrf_idx: field(1),
                prefix: prefix(),
                replacement: label.map(|l| (field(2), l)),
            },
        }
    }

    /// Target PE ordinal of an encoded BGP message (`None` for IGP/LDP),
    /// read without decoding the rest: what a transit router needs.
    fn encoded_bgp_target(meta: &PktMeta) -> Option<usize> {
        matches!(meta.seq & TAG_MASK, TAG_BGP_UPDATE | TAG_BGP_WITHDRAW)
            .then(|| ((meta.seq >> TAG_BITS) & FIELD_MAX) as usize)
    }
}

/// Width of the message kind at the bottom of a control packet's `seq`.
const TAG_BITS: u32 = 3;
const TAG_MASK: u64 = (1 << TAG_BITS) - 1;
const TAG_LSA: u64 = 0;
const TAG_LDP_MAPPING: u64 = 1;
const TAG_LDP_WITHDRAW: u64 = 2;
const TAG_BGP_UPDATE: u64 = 3;
const TAG_BGP_WITHDRAW: u64 = 4;
/// Width of each index field in a control packet's `seq`: node, link, PE,
/// VRF and FEC indices fit, and so do an MPLS label (20 bits) and an LSA
/// sequence number (a million events on one link).
const FIELD_BITS: u32 = 20;
const FIELD_MAX: u64 = (1 << FIELD_BITS) - 1;

/// A BGP message's second metadata word: the prefix address in bits 0–31,
/// its length in bits 32–37, then a presence bit (38) and the 20-bit VPN
/// label (39–58). A withdraw without a replacement carries no label.
fn bgp_word(prefix: Prefix, label: Option<u32>) -> u64 {
    let label = label.map_or(0, |l| {
        debug_assert!(u64::from(l) <= FIELD_MAX, "VPN label {l} exceeds 20 bits");
        u64::from(l) << 1 | 1
    });
    u64::from(prefix.addr().0) | u64::from(prefix.len()) << 32 | label << 38
}

/// Control-plane counters, all emergent (counted, not analytic), since the
/// network came up: bring-up's LDP mappings count too. Each router counts
/// its own; the provider network sums them when read.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CtrlStats {
    /// BGP VPN updates/withdraws originated at PEs.
    pub bgp_originated: u64,
    /// Control packets sent — onto the wire in band, handed to the next
    /// router under the oracle — by protocol [igp, ldp, bgp].
    pub pkts_by_proto: [u64; 3],
    /// Total control packets sent (floods + forwards included).
    pub pkts_sent: u64,
    /// Total control packets terminated (consumed) at a router.
    pub pkts_terminated: u64,
    /// Control bytes put on the wire (in-band only).
    pub bytes_sent: u64,
    /// Messages dropped at origination/forwarding for lack of any route
    /// toward the destination.
    pub undeliverable: u64,
    /// Full SPF recomputations triggered by LSA application.
    pub spf_runs: u64,
    /// LSA applications that incremental SPF proved irrelevant (skipped).
    pub spf_skips: u64,
    /// Route installs skipped because the installing PE has no LSP toward
    /// the egress PE (counted, never a panic).
    pub no_lsp_to_egress: u64,
}

impl std::ops::AddAssign<&CtrlStats> for CtrlStats {
    fn add_assign(&mut self, o: &CtrlStats) {
        self.bgp_originated += o.bgp_originated;
        for (a, b) in self.pkts_by_proto.iter_mut().zip(o.pkts_by_proto) {
            *a += b;
        }
        self.pkts_sent += o.pkts_sent;
        self.pkts_terminated += o.pkts_terminated;
        self.bytes_sent += o.bytes_sent;
        self.undeliverable += o.undeliverable;
        self.spf_runs += o.spf_runs;
        self.spf_skips += o.spf_skips;
        self.no_lsp_to_egress += o.no_lsp_to_egress;
    }
}

/// What one router currently believes: its link-state database, SPF tree
/// and LDP session state. A cold start ([`NodeControl::restart`]) knows
/// only the link states; everything else arrives in messages or follows
/// from the router's own detection events. Dense: indexed by link id,
/// tunnel FEC ordinal (egress-PE index) and neighbor node id, so applying
/// a message hashes nothing.
#[derive(Default)]
pub(crate) struct NodeView {
    /// Latest applied (seq, down) per link: LSA dedup state and topology.
    link_state: Vec<(u64, bool)>,
    /// This node's shortest-path tree over the believed topology.
    pub(crate) spf: SpfTree,
    /// Local label binding per FEC (immutable once allocated).
    bindings: Vec<Option<u32>>,
    /// Liberal-retention label store, one row of FECs per neighbor node:
    /// slot `NodeControl::rx(neighbor, fec)` holds the advertised label.
    received: Vec<Option<u32>>,
    /// Current FEC-to-NHLFE map (ingress push state), per FEC.
    ftn: Vec<Option<FtnEntry>>,
    /// Whether each tunnel FEC's egress is currently believed reachable
    /// (drives withdraw / re-advertise on transitions).
    fec_reachable: Vec<bool>,
}

/// Mutable references to one router's forwarding tables, lent to its
/// control plane for the duration of a single control-packet application.
pub(crate) struct NodeTables<'a> {
    /// The router's live LFIB.
    pub lfib: &'a mut Lfib,
    /// PE routers also lend their VRF FIBs (None for P routers).
    pub vrfs: Option<&'a mut Vec<VrfFib>>,
    /// PE routers also lend their LDP tunnel table (None for P routers).
    pub tunnels: Option<&'a mut Vec<Option<FtnEntry>>>,
}

/// Configuration every router's control plane reads and none writes.
pub(crate) struct ControlConfig {
    /// The backbone topology.
    pub(crate) topo: Topology,
    /// Topology node of each PE ordinal.
    pub(crate) pes: Vec<usize>,
    /// The routing domain (carrier) of each topology node.
    pub(crate) domains: Vec<usize>,
    /// The inter-AS links, whose ends lie in different domains, in id
    /// order. No router's IGP ever believes one up.
    pub(crate) inter_as: Vec<usize>,
    /// Penultimate-hop popping: an egress binds implicit null to its own
    /// FEC, else a label it pops itself.
    pub(crate) php: bool,
    /// How messages travel between routers.
    pub(crate) mode: ControlMode,
}

impl ControlConfig {
    /// The ASBR pair that carries MP-BGP from `node`'s domain into
    /// `target`'s: the ends, this domain's first, of the first inter-AS
    /// link joining the two domains. `None` inside one domain, or when no
    /// link joins them.
    fn border(&self, node: usize, target: usize) -> Option<(usize, usize)> {
        let (own, far) = (self.domains[node], self.domains[target]);
        self.inter_as.iter().find_map(|&l| {
            let (a, b, _) = self.topo.link(l);
            let ends = (self.domains[a], self.domains[b]);
            (ends == (own, far)).then_some((a, b)).or((ends == (far, own)).then_some((b, a)))
        })
    }
}

/// First label an ASBR hands out for the VPN routes it re-advertises,
/// above the fabric's VPN labels, so its LFIB never aliases its LDP
/// labels or its own VRFs' VPN labels.
const STITCH_LABEL_BASE: u32 = 1 << 18;

/// An option-B label stitch at an ASBR (RFC 4364 §10(b)): the ASBR
/// re-advertised the VPN route it learned with BGP next hop PE
/// `egress_pe` and label `label` under its own label `local`.
#[derive(Clone, Copy, Debug)]
struct Stitch {
    local: u32,
    egress_pe: usize,
    label: u32,
}

/// One backbone router's control plane: its view, its attached links'
/// latest events and its control counters. Owned by its router, through
/// which the provider network reaches it.
pub(crate) struct NodeControl {
    pub(crate) cfg: Rc<ControlConfig>,
    /// This router's backbone topology node id.
    node: usize,
    /// What this router believes (reset whole by a cold restart).
    pub(crate) view: NodeView,
    /// This router's platform label space: its LDP bindings and every
    /// explicit-LSP label come from here.
    pub(crate) labels: LabelSpace,
    /// Per link id: (sequence, origination instant) of the link's latest
    /// event, which the provider network writes into both ends when the
    /// link fails or is repaired. The origination instant is when
    /// detection fires, so convergence samples measure propagation and
    /// processing, not detection. The detection timer's LSA carries them.
    pub(crate) link_events: Vec<(u64, Nanos)>,
    /// Per link id: the origination instant of a failure this router
    /// detected on a protected interface, while it holds its own reaction
    /// ([`LOCAL_CONVERGENCE_DELAY`]). Its SPF keeps using the link, and
    /// its LDP session with the far end lives on, until the hold ends.
    held: Vec<Option<Nanos>>,
    /// The transport this router sends on: the configured mode, except
    /// while a cold restart's messages drain, which ride the oracle.
    transport: ControlMode,
    /// Control bytes this router put on each backbone interface.
    bytes_by_iface: Vec<u64>,
    /// Whether this router is an ASBR: a PE with an inter-AS link (the
    /// builder makes every end of one a PE).
    asbr: bool,
    /// The option-B stitches of an ASBR, and the space their labels come
    /// from. They are BGP state, so a cold restart keeps them and only
    /// re-installs their LFIB entries.
    stitches: Vec<Stitch>,
    stitch_labels: LabelSpace,
    /// Propagation + processing latency of the LSAs recorded here, ns.
    pub(crate) convergence: Histogram,
    pub(crate) stats: CtrlStats,
    /// `repair_fec` calls so far.
    #[cfg(test)]
    fec_repairs: u64,
    /// Every control packet this router sent so far: the packet's source
    /// address and its message.
    #[cfg(test)]
    sent: Vec<(Ip, CtrlMsg)>,
}

impl NodeControl {
    /// Node `node`'s control plane, empty until its first
    /// [`NodeControl::restart`].
    pub(crate) fn new(cfg: Rc<ControlConfig>, node: usize) -> Self {
        let links = cfg.topo.link_count();
        let asbr = cfg.topo.neighbors(node).any(|(v, _, _)| cfg.domains[v] != cfg.domains[node]);
        NodeControl {
            asbr,
            stitches: Vec::new(),
            stitch_labels: LabelSpace::with_base(STITCH_LABEL_BASE),
            view: NodeView::default(),
            labels: LabelSpace::new(),
            link_events: vec![(0, 0); links],
            held: vec![None; links],
            transport: cfg.mode,
            bytes_by_iface: vec![0; cfg.topo.degree(node)],
            cfg,
            node,
            convergence: Histogram::new(),
            stats: CtrlStats::default(),
            #[cfg(test)]
            fec_repairs: 0,
            #[cfg(test)]
            sent: Vec::new(),
        }
    }

    /// Cold restart, believing `link_state` with every inter-AS link down:
    /// the router forgets its view, its label space and its LFIB entries
    /// (an empty table takes over the old one's counters), then binds its
    /// own FEC if it is an egress and brings up its LDP sessions. Every
    /// other binding follows when the next hop's mapping first arrives
    /// ([`NodeControl::repair_fec`]). An ASBR keeps its stitches and
    /// re-installs those that lead across an inter-AS link; the others
    /// follow their tunnels back. Until [`NodeControl::restarted`], the
    /// router sends over the oracle.
    pub(crate) fn restart(
        &mut self,
        link_state: &[(u64, bool)],
        tables: &mut NodeTables<'_>,
        ctx: &mut Ctx,
    ) {
        let ControlConfig { topo, pes, php, inter_as, .. } = &*self.cfg;
        let (n, np, u) = (topo.node_count(), pes.len(), self.node);
        // The link states' sequence numbers make older in-flight LSAs stale.
        let mut link_state = link_state.to_vec();
        for &l in inter_as {
            link_state[l].1 = true;
        }
        let mut spf = std::mem::take(&mut self.view.spf);
        spf.recompute(topo, u, |l| !link_state[l].1);
        self.view = NodeView {
            link_state,
            fec_reachable: pes.iter().map(|&e| u == e || spf.next_hop[e].is_some()).collect(),
            spf,
            bindings: vec![None; np],
            received: vec![None; n * np],
            ftn: vec![None; np],
        };
        self.labels = LabelSpace::new();
        self.held.fill(None);
        self.transport = ControlMode::Oracle;
        let old = std::mem::take(&mut *tables.lfib);
        tables.lfib.stats().merge(old.stats());
        if let Some(tunnels) = tables.tunnels.as_deref_mut() {
            tunnels.resize(np, None);
        }
        for f in (0..np).filter(|&f| pes[f] == u) {
            let label = if *php {
                IMPLICIT_NULL
            } else {
                let label = self.labels.allocate();
                tables.lfib.install(label, Nhlfe { op: LabelOp::Pop, out_iface: LOCAL_IFACE });
                label
            };
            self.view.bindings[f] = Some(label);
        }
        self.install_stitches(None, tables.lfib);
        self.session_up(None, ctx);
    }

    /// The cold restart's messages have drained: back to the configured
    /// transport.
    pub(crate) fn restarted(&mut self) {
        self.transport = self.cfg.mode;
    }

    /// LDP session establishment with the peer on `iface`, or with every
    /// neighbor the router believes up: it advertises its binding for
    /// every FEC it can reach (downstream unsolicited, RFC 5036 §2.6). A
    /// peer whose session died dropped our labels with it.
    fn session_up(&mut self, iface: Option<usize>, ctx: &mut Ctx) {
        for f in 0..self.cfg.pes.len() {
            let Some(label) = self.view.bindings[f] else { continue };
            if !self.view.fec_reachable[f] {
                continue;
            }
            let msg = CtrlMsg::LdpMapping { fec: f as u32, label, from: self.node };
            match iface {
                Some(iface) => self.send_msg(iface, msg, ctx),
                None => self.fan_out(None, msg, ctx),
            }
        }
    }

    /// One of this router's interface timers fired ([`iface_timer_token`]).
    /// A BFD-style detection flips the interface's protection state at
    /// detection time, not at failure time, and floods the change; a
    /// point of local repair then holds its own reaction until the hold's
    /// timer ends it.
    pub(crate) fn on_iface_timer(
        &mut self,
        token: u64,
        tables: &mut NodeTables<'_>,
        ctx: &mut Ctx,
    ) {
        let iface = ((token & !(1u64 << 63)) >> 2) as usize;
        let Some((_, _, link)) = self.cfg.topo.neighbors(self.node).nth(iface) else { return };
        if token & HOLD_END != 0 {
            // Unless a newer event on the link ended the hold, or this is
            // an earlier hold's timer and a later hold runs.
            let now = ctx.now();
            if self.held[link].is_some_and(|origin| origin + LOCAL_CONVERGENCE_DELAY <= now) {
                self.held[link] = None;
                let far = self.end_session(link);
                self.converge(link, true, Some(far), tables, ctx);
            }
            return;
        }
        let down = token & 1 == 1;
        tables.lfib.set_iface_down(iface, down);
        let (seq, origin) = self.link_events[link];
        let lsa = CtrlMsg::Lsa { link, down, seq, origin };
        if down && tables.lfib.protection(iface).is_some() {
            // Point of local repair: flood now, converge last.
            if self.record_lsa(link, true, seq, origin, ctx.now()) {
                self.held[link] = Some(origin);
                self.fan_out(None, lsa, ctx);
                ctx.schedule(LOCAL_CONVERGENCE_DELAY, iface_timer_token(iface, false) | HOLD_END);
            }
            return;
        }
        self.apply_lsa(lsa, None, tables, ctx);
        if !down {
            self.session_up(Some(iface), ctx);
        }
    }

    /// A control packet arrived on `iface`: terminate it and apply its
    /// message. An MP-BGP message for another PE is sent on in the same
    /// packet, as P routers IP-forward a BGP session's packets; any other
    /// packet's box goes back to the spare stack.
    pub(crate) fn on_control_packet(
        &mut self,
        iface: usize,
        mut pkt: Pkt,
        tables: &mut NodeTables<'_>,
        ctx: &mut Ctx,
    ) {
        self.stats.pkts_terminated += 1;
        if let Some(target) = CtrlMsg::encoded_bgp_target(&pkt.meta) {
            if self.asbr {
                let peer = self.cfg.topo.neighbors(self.node).nth(iface).map(|n| n.0);
                if peer.is_some_and(|p| self.cfg.domains[p] != self.cfg.domains[self.node]) {
                    self.restitch(&mut pkt, false, tables.lfib);
                }
            }
            let target_node = self.cfg.pes[target];
            if target_node != self.node {
                return self.forward_toward(target_node, pkt, tables.lfib, ctx);
            }
        }
        let msg = CtrlMsg::decode(&pkt.meta);
        ctx.recycle(pkt);
        match msg {
            CtrlMsg::Lsa { .. } => self.apply_lsa(msg, Some(iface), tables, ctx),
            CtrlMsg::LdpMapping { fec, label, from } => {
                let slot = self.rx(from, fec as usize);
                self.view.received[slot] = Some(label);
                self.repair_fec(fec as usize, tables, ctx);
            }
            CtrlMsg::LdpWithdraw { fec, from } => {
                let slot = self.rx(from, fec as usize);
                self.view.received[slot] = None;
                self.repair_fec(fec as usize, tables, ctx);
            }
            CtrlMsg::BgpUpdate { .. } | CtrlMsg::BgpWithdraw { .. } => {
                if let Some(vrfs) = tables.vrfs.as_deref_mut() {
                    self.apply_bgp(vrfs, msg);
                }
            }
        }
    }

    /// Applies a BGP delta at this PE, its target, whichever transport
    /// carried it. A withdraw evicts the old route, then installs the
    /// replacement best path, if any.
    fn apply_bgp(&mut self, vrfs: &mut [VrfFib], msg: CtrlMsg) {
        match msg {
            CtrlMsg::BgpUpdate { vrf_idx, prefix, egress_pe, vpn_label, .. } => {
                self.install_route(&mut vrfs[vrf_idx], prefix, egress_pe, vpn_label);
            }
            CtrlMsg::BgpWithdraw { vrf_idx, prefix, replacement, .. } => {
                let vrf = &mut vrfs[vrf_idx];
                if !vrf.remove_remote(prefix) {
                    return; // locally attached always wins
                }
                if let Some((egress_pe, vpn_label)) = replacement {
                    self.install_route(vrf, prefix, egress_pe, vpn_label);
                }
            }
            _ => {}
        }
    }

    /// Installs `prefix → (egress_pe, vpn_label)` into `vrf` at this PE as
    /// an LDP-following route: the PE resolves it through its tunnel table
    /// entry for `egress_pe`. Without an LSP in the view the install is
    /// skipped and counted (any existing route stays in place); a locally
    /// attached route always wins.
    pub(crate) fn install_route(
        &mut self,
        vrf: &mut VrfFib,
        prefix: Prefix,
        egress_pe: usize,
        vpn_label: u32,
    ) {
        if self.view.ftn[egress_pe].is_some() {
            vrf.install_remote(prefix, egress_pe, vpn_label, None);
        } else {
            self.stats.no_lsp_to_egress += 1;
        }
    }

    /// Applies one LSA here: dedup, link-state update, convergence
    /// sample, incremental SPF, LDP/FTN/VRF repair, re-flood. `arrival` is
    /// the interface the LSA came in on, `None` when this router detected
    /// the link event itself. A held failure's own copy, flooded back by the
    /// far end, is not fresh here and changes nothing.
    fn apply_lsa(
        &mut self,
        lsa: CtrlMsg,
        arrival: Option<usize>,
        tables: &mut NodeTables<'_>,
        ctx: &mut Ctx,
    ) {
        let CtrlMsg::Lsa { link, down, seq, origin } = lsa else { return };
        if !self.record_lsa(link, down, seq, origin, ctx.now()) {
            return;
        }
        // Detecting a failure ends the LDP session with the far end, whose
        // retained labels die with it; so does a newer event on a link
        // whose failure this router still holds.
        let was_held = self.held[link].take().is_some();
        let lost = ((down && arrival.is_none()) || was_held).then(|| self.end_session(link));
        self.converge(link, down, lost, tables, ctx);
        // Re-flood to every live neighbor except the one we heard from.
        self.fan_out(arrival, lsa, ctx);
    }

    /// LSA dedup: records `(seq, down)` as link `link`'s state if it is
    /// newer than what this router knows, with the LSA's age at `now` as a
    /// convergence sample, and says whether it was.
    fn record_lsa(&mut self, link: usize, down: bool, seq: u64, origin: Nanos, now: Nanos) -> bool {
        let (s_seq, s_down) = self.view.link_state[link];
        let fresh = seq > s_seq || (seq == s_seq && down != s_down);
        if fresh {
            self.view.link_state[link] = (seq, down);
            self.convergence.record(now.saturating_sub(origin));
        }
        fresh
    }

    /// Ends the LDP session over attached link `link`: the far end's
    /// retained labels are dropped. Returns the far end.
    fn end_session(&mut self, link: usize) -> usize {
        let (a, b, _) = self.cfg.topo.link(link);
        let far = if a == self.node { b } else { a };
        let row = self.rx(far, 0)..self.rx(far + 1, 0);
        self.view.received[row].fill(None);
        far
    }

    /// This router's own reaction to a recorded change of link `link`:
    /// incremental SPF over the links it believes up (a held one counts as
    /// up), then repair of the FECs that need it. `lost` is a neighbor
    /// whose labels were just dropped.
    fn converge(
        &mut self,
        link: usize,
        down: bool,
        lost: Option<usize>,
        tables: &mut NodeTables<'_>,
        ctx: &mut Ctx,
    ) {
        // Incremental SPF: recompute only if the changed link can alter
        // this root's tree; otherwise the LSA is topological noise here.
        let topo = &self.cfg.topo;
        let NodeView { spf, link_state, .. } = &mut self.view;
        if spf.affected_by(topo, link, down) {
            let held = &self.held;
            spf.recompute(topo, self.node, |l| !link_state[l].1 || held[l].is_some());
            self.stats.spf_runs += 1;
        } else {
            self.stats.spf_skips += 1;
        }
        // Repair, from retained LDP state, the tunnel FECs whose first hop
        // moved (liberal retention is what makes this purely local in the
        // common case). Every other write to `received` repairs its own
        // FEC, so the rest already match the view; the exception is an
        // ended session, whose labels `end_session` dropped.
        for f in 0..self.cfg.pes.len() {
            if self.needs_repair(f, lost) {
                self.repair_fec(f, tables, ctx);
            }
        }
        #[cfg(test)]
        tests::check_ftns(self);
    }

    /// Recomputes the desired FTN for tunnel FEC `f` from the current
    /// view, re-points the LFIB transit entry and (at a PE) the
    /// tunnel-table slot every LDP-following VPN route toward that egress
    /// resolves through, and advertises/withdraws on reachability flips.
    /// Ordered control (RFC 5036 §2.6): the first FTN a router gets for
    /// `f` allocates its own binding, which it then advertises.
    fn repair_fec(&mut self, f: usize, tables: &mut NodeTables<'_>, ctx: &mut Ctx) {
        #[cfg(test)]
        {
            self.fec_repairs += 1;
        }
        let egress = self.cfg.pes[f];
        if self.node == egress {
            return;
        }
        let desired = self.desired_ftn(f);
        let view = &mut self.view;
        let first = desired.is_some() && view.bindings[f].is_none();
        if first {
            view.bindings[f] = Some(self.labels.allocate());
        }
        if view.ftn[f] != desired {
            view.ftn[f] = desired;
            // Transit repair: re-point the ILM entry for our own binding.
            if let Some(local) = view.bindings[f].filter(|&l| l != IMPLICIT_NULL) {
                match desired {
                    Some(FtnEntry { push, out_iface }) => {
                        let op = push.map_or(LabelOp::Pop, LabelOp::Swap);
                        tables.lfib.install(local, Nhlfe { op, out_iface });
                    }
                    None => {
                        tables.lfib.remove(local);
                    }
                }
            }
            // Ingress repair: one tunnel-table slot. A lost LSP leaves the
            // stale entry in place, so VPN traffic degrades in place (it
            // drops at the dead link) instead of silently un-routing. An
            // ASBR's stitches toward the egress ride the tunnel the same
            // way.
            if let Some(tunnels) = tables.tunnels.as_deref_mut() {
                if desired.is_some() {
                    tunnels[f] = desired;
                    if self.asbr {
                        self.install_stitches(Some(f), tables.lfib);
                    }
                }
            }
        }
        let view = &mut self.view;
        let reachable = view.spf.next_hop[egress].is_some();
        if first || reachable != view.fec_reachable[f] {
            view.fec_reachable[f] = reachable;
            let msg = match (reachable, view.bindings[f]) {
                (true, Some(label)) => {
                    CtrlMsg::LdpMapping { fec: f as u32, label, from: self.node }
                }
                (true, None) => return,
                (false, _) => CtrlMsg::LdpWithdraw { fec: f as u32, from: self.node },
            };
            self.fan_out(None, msg, ctx);
        }
    }

    /// Whether repairing tunnel FEC `f` after an SPF rerun can change
    /// anything. An FTN names the first hop it was built on (the peer on
    /// its interface): it is stale when the tree's first hop differs, or
    /// is `lost`, a neighbor whose labels were just dropped (over a
    /// parallel link it can still be the first hop). A FEC without an FTN
    /// repairs whenever it is or becomes reachable: while reachable it
    /// waits for its first hop's label, and which hop that was is not
    /// kept.
    fn needs_repair(&self, f: usize, lost: Option<usize>) -> bool {
        let (view, egress) = (&self.view, self.cfg.pes[f]);
        let hop = view.spf.next_hop[egress];
        match &view.ftn[f] {
            Some(e) => {
                hop != self.cfg.topo.neighbors(self.node).nth(e.out_iface).map(|n| n.0)
                    || hop == lost
            }
            None => egress != self.node && (hop.is_some() || view.fec_reachable[f]),
        }
    }

    /// The FTN tunnel FEC `f` should have under the view: the first hop's
    /// interface and label (none for implicit null), `None` while the
    /// egress is unreachable or before the first hop's label arrives
    /// (session refresh in flight).
    fn desired_ftn(&self, f: usize) -> Option<FtnEntry> {
        let nh = self.view.spf.next_hop[self.cfg.pes[f]]?;
        let label = self.view.received[self.rx(nh, f)]?;
        let out_iface = self.cfg.topo.iface_toward(self.node, nh);
        Some(FtnEntry { push: (label != IMPLICIT_NULL).then_some(label), out_iface })
    }

    /// Slot of neighbor `nbr`'s label for tunnel FEC `f` in `NodeView::received`.
    fn rx(&self, nbr: usize, f: usize) -> usize {
        nbr * self.cfg.pes.len() + f
    }

    /// Sends a copy of `msg` on every interface whose link this router
    /// believes up, except `skip` (a flood's arrival interface).
    fn fan_out(&mut self, skip: Option<usize>, msg: CtrlMsg, ctx: &mut Ctx) {
        let cfg = Rc::clone(&self.cfg);
        for (iface, (_, _, link)) in cfg.topo.neighbors(self.node).enumerate() {
            if Some(iface) != skip && !self.view.link_state[link].1 {
                self.send_msg(iface, msg, ctx);
            }
        }
    }

    /// Sends a PE-addressed packet on one hop along the view's shortest
    /// path toward the target node. A target in another domain is reached
    /// through this domain's ASBR on the border, which sends the packet
    /// across the inter-AS link itself (eBGP) after re-advertising its
    /// route ([`NodeControl::restitch`]); anywhere else the packet goes on
    /// unchanged. The hop costs what an originated one does: a send, and
    /// in-band its bytes on the link.
    fn forward_toward(&mut self, target_node: usize, mut pkt: Pkt, lfib: &mut Lfib, ctx: &mut Ctx) {
        let nh = match self.view.spf.next_hop[target_node] {
            Some(nh) => Some(nh),
            None => match self.cfg.border(self.node, target_node) {
                Some((asbr, peer)) if asbr == self.node => {
                    self.restitch(&mut pkt, true, lfib);
                    Some(peer)
                }
                Some((asbr, _)) => self.view.spf.next_hop[asbr],
                None => None,
            },
        };
        let Some(nh) = nh else {
            self.stats.undeliverable += 1;
            return ctx.recycle(pkt);
        };
        let iface = self.cfg.topo.iface_toward(self.node, nh);
        self.transmit(iface, PROTO_BGP, pkt, ctx);
    }

    /// Originates an MP-BGP delta at this PE: counts it and sends it one
    /// hop toward its target PE, as a transit router would (counted
    /// undeliverable when the view has no path).
    pub(crate) fn originate_bgp(&mut self, msg: CtrlMsg, lfib: &mut Lfib, ctx: &mut Ctx) {
        let Some(target) = msg.bgp_target() else { return };
        self.stats.bgp_originated += 1;
        let pkt = self.packet(msg, ctx);
        self.forward_toward(self.cfg.pes[target], pkt, lfib, ctx);
    }

    /// Option B at an ASBR (RFC 4364 §10(b)): a BGP packet `leaving` this
    /// domain whose route's next hop lies inside it, or entering it with a
    /// next hop beyond it, has its route re-advertised with this ASBR as
    /// the next hop, under the ASBR's own label ([`NodeControl::stitch`]).
    fn restitch(&mut self, pkt: &mut Pkt, leaving: bool, lfib: &mut Lfib) {
        let mut msg = CtrlMsg::decode(&pkt.meta);
        if let Some((egress_pe, label)) = msg.route_mut() {
            let home = self.cfg.domains[self.cfg.pes[*egress_pe]] == self.cfg.domains[self.node];
            if home == leaving {
                (*egress_pe, *label) = self.stitch(*egress_pe, *label, lfib);
            }
        }
        msg.encode(&mut pkt.meta);
    }

    /// This ASBR's PE ordinal and its label for the route learned with
    /// next hop PE `egress_pe` and `label`. The first time, it allocates
    /// the label and installs its LFIB entry; a route this ASBR originated
    /// keeps its VPN label.
    fn stitch(&mut self, egress_pe: usize, label: u32, lfib: &mut Lfib) -> (usize, u32) {
        let me = self.cfg.pes.iter().position(|&p| p == self.node).expect("an ASBR is a PE");
        if egress_pe == me {
            return (me, label);
        }
        if let Some(s) = self.stitches.iter().find(|s| (s.egress_pe, s.label) == (egress_pe, label))
        {
            return (me, s.local);
        }
        let s = Stitch { local: self.stitch_labels.allocate(), egress_pe, label };
        self.stitches.push(s);
        if let Some(nhlfe) = self.stitch_nhlfe(s) {
            lfib.install(s.local, nhlfe);
        }
        (me, s.local)
    }

    /// Installs the LFIB entry of every stitch whose next hop is PE
    /// `egress_pe`, or of every stitch for `None`.
    fn install_stitches(&self, egress_pe: Option<usize>, lfib: &mut Lfib) {
        for &s in self.stitches.iter().filter(|s| egress_pe.is_none_or(|e| e == s.egress_pe)) {
            if let Some(nhlfe) = self.stitch_nhlfe(s) {
                lfib.install(s.local, nhlfe);
            }
        }
    }

    /// Where a stitch sends its packets: to the peer ASBR across the
    /// inter-AS link under the peer's label, or under the next hop's
    /// label down this domain's tunnel toward it (`None` while the view
    /// has no tunnel).
    fn stitch_nhlfe(&self, s: Stitch) -> Option<Nhlfe> {
        let next = self.cfg.pes[s.egress_pe];
        if self.cfg.domains[next] != self.cfg.domains[self.node] {
            let out_iface = self.cfg.topo.iface_toward(self.node, next);
            return Some(Nhlfe { op: LabelOp::Swap(s.label), out_iface });
        }
        let FtnEntry { push, out_iface } = self.view.ftn[s.egress_pe]?;
        let op =
            push.map_or(LabelOp::Swap(s.label), |t| LabelOp::SwapPush { swap: s.label, push: t });
        Some(Nhlfe { op, out_iface })
    }

    /// Sends `msg` on `iface`.
    fn send_msg(&mut self, iface: usize, msg: CtrlMsg, ctx: &mut Ctx) {
        let pkt = self.packet(msg, ctx);
        self.transmit(iface, msg.proto(), pkt, ctx);
    }

    /// A control packet from this router carrying `msg`, in a spare box
    /// when there is one.
    fn packet(&self, msg: CtrlMsg, ctx: &mut Ctx) -> Pkt {
        let fresh = Packet::udp(
            Ip(0xC0DE_0000 + self.node as u32),
            Ip(0xC0DE_FFFF),
            msg.port(),
            msg.port(),
            Dscp::CS6,
            msg.payload_len(),
        );
        let mut pkt = ctx.boxed(fresh);
        msg.encode(&mut pkt.meta);
        pkt
    }

    /// Counts one control packet leaving on `iface` and hands it to the
    /// transport: onto the link in-band, where its bytes count too, or
    /// straight to the far end under the oracle.
    fn transmit(&mut self, iface: usize, proto: usize, pkt: Pkt, ctx: &mut Ctx) {
        self.stats.pkts_by_proto[proto] += 1;
        self.stats.pkts_sent += 1;
        #[cfg(test)]
        {
            let src = pkt.outer_ipv4().map_or(Ip(0), |h| h.src);
            self.sent.push((src, CtrlMsg::decode(&pkt.meta)));
        }
        match self.transport {
            ControlMode::InBand => {
                let bytes = pkt.wire_len() as u64;
                self.stats.bytes_sent += bytes;
                self.bytes_by_iface[iface] += bytes;
                ctx.send(IfaceId(iface), pkt);
            }
            ControlMode::Oracle => ctx.deliver(IfaceId(iface), pkt),
        }
    }

    /// Control bytes this router put on backbone link `link`.
    pub(crate) fn bytes_on_link(&self, link: usize) -> u64 {
        let mut links = self.cfg.topo.neighbors(self.node).map(|(_, _, l)| l);
        links.position(|l| l == link).map_or(0, |iface| self.bytes_by_iface[iface])
    }

    /// This router's current FTN entry for tunnel FEC `fec` (egress-PE
    /// ordinal).
    pub(crate) fn ftn(&self, fec: usize) -> Option<FtnEntry> {
        *self.view.ftn.get(fec)?
    }
}

#[cfg(test)]
mod tests {
    use netsim_mpls::lfib::Nhlfe;
    use netsim_routing::{LinkAttrs, Topology};
    use netsim_sim::MSEC;
    use proptest::prelude::*;

    use super::*;
    use crate::network::{BackboneBuilder, ProviderNetwork};
    use crate::router::PeRouter;

    /// Asserts that every FTN at `c`'s router is what repairing its FEC
    /// would write, and that its reachability is the SPF tree's.
    /// `apply_lsa` calls it after every LSA.
    pub(super) fn check_ftns(c: &NodeControl) {
        let node = c.node;
        for (f, &egress) in c.cfg.pes.iter().enumerate().filter(|&(_, &e)| e != node) {
            let view = &c.view;
            assert_eq!(view.ftn[f], c.desired_ftn(f), "stale FTN for FEC {f} at node {node}");
            let reachable = view.spf.next_hop[egress].is_some();
            assert_eq!(view.fec_reachable[f], reachable, "stale reachability for FEC {f}");
        }
    }

    fn in_band(topo: Topology, pes: Vec<usize>) -> ProviderNetwork {
        let mut pn = BackboneBuilder::new(topo, pes).control_mode(ControlMode::InBand).build();
        pn.run_to_quiescence();
        pn
    }

    /// Every router's LFIB entries, then every PE's tunnel table.
    type Tables = (Vec<Vec<(u32, Nhlfe)>>, Vec<Vec<Option<FtnEntry>>>);

    fn tables(pn: &ProviderNetwork) -> Tables {
        let lfibs = (0..pn.topo.node_count())
            .map(|u| pn.backbone(u).0.iter().map(|(k, n)| (k, *n)).collect())
            .collect();
        let tunnels =
            (0..pn.pe_count()).map(|k| pn.net.node_ref::<PeRouter>(pn.pe_node(k)).tunnels.clone());
        (lfibs, tunnels.collect())
    }

    /// `repair_fec` calls so far, summed over every router.
    fn fec_repairs(pn: &ProviderNetwork) -> u64 {
        (0..pn.topo.node_count()).map(|u| pn.backbone(u).1.fec_repairs).sum()
    }

    fn stats(pn: &ProviderNetwork) -> CtrlStats {
        pn.control_stats().expect("control counters")
    }

    #[test]
    fn lsa_that_moves_no_first_hop_repairs_nothing() {
        // PE1 = 1 and PE2 = 2 around P nodes 0 and 3. Link 1-3 (cost 2)
        // ties with 1-0-3, so it lies on shortest paths from 1 and 3 and
        // its cut reruns their SPF, but every first hop toward a PE is the
        // lower-id node 0 or a direct link and stays put.
        let mut topo = Topology::new(4);
        let attrs = |cost| LinkAttrs { cost, capacity_bps: 100_000_000 };
        for (u, v, cost) in [(1, 0, 1), (0, 2, 1), (1, 3, 2), (3, 2, 1), (3, 0, 1)] {
            topo.add_link(u, v, attrs(cost));
        }
        let mut pn = in_band(topo, vec![1, 2]);
        let before = tables(&pn);
        let (stats0, repairs0) = (stats(&pn), fec_repairs(&pn));
        pn.fail_link(2);
        pn.run_to_quiescence();
        let stats = stats(&pn);
        assert_eq!(stats.spf_runs - stats0.spf_runs, 2, "nodes 1 and 3 rerun SPF");
        assert_eq!(stats.spf_skips - stats0.spf_skips, 2, "nodes 0 and 2 skip it");
        assert_eq!(stats.pkts_by_proto[PROTO_LDP], stats0.pkts_by_proto[PROTO_LDP]);
        assert_eq!(fec_repairs(&pn), repairs0);
        assert_eq!(tables(&pn), before);
    }

    #[test]
    fn changed_fec_repair_matches_full_repair_under_random_cuts() {
        // The perfbench ladder plus two parallel links (one equal-cost, one
        // dearer), so a cut can end an LDP session while the tree still
        // routes through that neighbor. After every LSA `check_ftns`
        // compares each FTN with what repairing its FEC would write.
        let mut topo = Topology::new(10);
        let attrs = |cost| LinkAttrs { cost, capacity_bps: 100_000_000 };
        let rails = [(0, 2), (2, 4), (4, 6), (6, 8), (1, 3), (3, 5), (5, 7), (7, 9)];
        let rungs = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)];
        for &(u, v) in rails.iter().chain(&rungs) {
            topo.add_link(u, v, attrs(1));
        }
        topo.add_link(2, 4, attrs(1));
        topo.add_link(5, 7, attrs(3));
        let links = topo.link_count();
        let mut pn = in_band(topo, vec![0, 1, 8, 9]);
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut down = vec![false; links];
        for _ in 0..100 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let l = (rng % links as u64) as usize;
            if down[l] {
                pn.repair_link(l);
            } else {
                pn.fail_link(l);
            }
            down[l] = !down[l];
            pn.run_for(20 * MSEC + (rng >> 40) % (30 * MSEC));
        }
        pn.run_to_quiescence();
        // Every fresh LSA either reruns SPF or skips it, then is checked.
        let stats = stats(&pn);
        assert!(stats.spf_runs + stats.spf_skips > 500, "{stats:?}");
        assert!(stats.spf_runs > 100 && stats.spf_skips > 10, "{stats:?}");
    }

    /// MP-BGP deltas leave in `(pe, vpn)` order even where a PE created
    /// its VRFs in another order than their VPN ids, and a fabric VRF the
    /// network did not create gets none.
    #[test]
    fn bgp_deltas_leave_in_pe_vpn_order() {
        // PE0, PE1 and PE2 (nodes 1, 2, 3) around P node 0.
        let mut topo = Topology::new(4);
        for u in 1..4 {
            topo.add_link(0, u, LinkAttrs { cost: 1, capacity_bps: 100_000_000 });
        }
        let mut pn = in_band(topo, vec![1, 2, 3]);
        let (acme, globex) = (pn.new_vpn("acme"), pn.new_vpn("globex"));
        // PE1 and PE2 each create globex's VRF (index 0) before acme's
        // (index 1); globex imports acme's routes too (an extranet).
        for pe in [1, 2] {
            pn.add_site(globex, pe, Prefix::new(Ip(0x0A10_0000 + ((pe as u32) << 8)), 24), None);
            pn.add_site(acme, pe, Prefix::new(Ip(0x0A20_0000 + ((pe as u32) << 8)), 24), None);
            let globex_vrf = pn.vrf_handle(pe, globex).expect("globex VRF");
            pn.fabric.add_import_target(globex_vrf, pn.vpns[acme.0].rt);
        }
        // A fabric-only VRF on PE1 that imports acme as well.
        let (rd, rt) = (pn.vpns[acme.0].rd, pn.vpns[acme.0].rt);
        pn.fabric.add_vrf(1, rd, vec![rt], vec![rt]);
        pn.run_to_quiescence();
        // The (target PE, VRF) of each BGP message PE0 (node 1) sent since
        // its log entry `from`.
        fn log(pn: &ProviderNetwork) -> &[(Ip, CtrlMsg)] {
            &pn.backbone(1).1.sent
        }
        let sent = |pn: &ProviderNetwork, from: usize| -> Vec<(usize, usize)> {
            log(pn)[from..]
                .iter()
                .filter_map(|&(_, msg)| match msg {
                    CtrlMsg::BgpUpdate { target, vrf_idx, .. }
                    | CtrlMsg::BgpWithdraw { target, vrf_idx, .. } => Some((target, vrf_idx)),
                    _ => None,
                })
                .collect()
        };
        // (PE1, acme), (PE1, globex), (PE2, acme), (PE2, globex).
        let order = vec![(1, 1), (1, 0), (2, 1), (2, 0)];
        let from = log(&pn).len();
        let site = pn.add_site(acme, 0, Prefix::new(Ip(0x0A30_0000), 24), None);
        assert_eq!(sent(&pn, from), order, "updates");
        pn.run_to_quiescence();
        let from = log(&pn).len();
        pn.detach_site(site);
        assert_eq!(sent(&pn, from), order, "withdraws");
    }

    /// An index or label field at either end of its 20 bits, or between.
    fn field() -> impl Strategy<Value = usize> {
        let max = FIELD_MAX as usize;
        prop_oneof![Just(0), Just(max), 0..=max]
    }

    fn arb_prefix() -> impl Strategy<Value = Prefix> {
        let len = prop_oneof![Just(0u8), Just(32u8), 0u8..=32];
        (any::<u32>(), len).prop_map(|(addr, len)| Prefix::new(Ip(addr), len))
    }

    fn arb_msg() -> impl Strategy<Value = CtrlMsg> {
        let origin = prop_oneof![Just(0), Just(u64::MAX), any::<u64>()];
        let fec = || field().prop_map(|f| f as u32);
        prop_oneof![
            (field(), any::<bool>(), field(), origin).prop_map(|(link, down, seq, origin)| {
                CtrlMsg::Lsa { link, down, seq: seq as u64, origin }
            }),
            (fec(), fec(), field()).prop_map(|(fec, label, from)| CtrlMsg::LdpMapping {
                fec,
                label,
                from
            }),
            (fec(), field()).prop_map(|(fec, from)| CtrlMsg::LdpWithdraw { fec, from }),
            (field(), field(), arb_prefix(), field(), fec()).prop_map(
                |(target, vrf_idx, prefix, egress_pe, vpn_label)| CtrlMsg::BgpUpdate {
                    target,
                    vrf_idx,
                    prefix,
                    egress_pe,
                    vpn_label
                }
            ),
            (field(), field(), arb_prefix(), proptest::option::of((field(), fec()))).prop_map(
                |(target, vrf_idx, prefix, replacement)| CtrlMsg::BgpWithdraw {
                    target,
                    vrf_idx,
                    prefix,
                    replacement
                }
            ),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Every message reads back from the metadata it was written to,
        /// and the flow still names its protocol.
        #[test]
        fn ctrl_msg_round_trips_through_packet_metadata(msg in arb_msg()) {
            let mut meta = PktMeta::default();
            msg.encode(&mut meta);
            prop_assert_eq!(meta.flow, CTRL_FLOW_BASE + msg.proto() as u64);
            prop_assert_eq!(CtrlMsg::decode(&meta), msg);
            prop_assert_eq!(CtrlMsg::encoded_bgp_target(&meta), msg.bgp_target());
        }
    }

    /// An MP-BGP update crosses P routers in the packet its PE sent, under
    /// either transport: it arrives with the origin's source address, each
    /// hop counts one send and one termination, and no P router's tables
    /// change. Only in band do its bytes load the links.
    #[test]
    fn bgp_update_crosses_p_routers_in_its_origin_packet() {
        for mode in [ControlMode::Oracle, ControlMode::InBand] {
            // PE0 (node 1) - P0 - P3 - PE1 (node 2).
            let mut topo = Topology::new(4);
            for (u, v) in [(1, 0), (0, 3), (3, 2)] {
                topo.add_link(u, v, LinkAttrs { cost: 1, capacity_bps: 100_000_000 });
            }
            let mut pn = BackboneBuilder::new(topo, vec![1, 2]).control_mode(mode).build();
            let vpn = pn.new_vpn("acme");
            pn.add_site(vpn, 1, Prefix::new(Ip(0x0A01_0000), 16), None);
            pn.run_to_quiescence();
            let (lfibs0, _) = tables(&pn);
            let links = |pn: &ProviderNetwork| -> Vec<u64> {
                (0..3).map(|l| pn.control_bytes_on_link(l)).collect()
            };
            let logs = |pn: &ProviderNetwork| -> Vec<usize> {
                (0..4).map(|u| pn.backbone(u).1.sent.len()).collect()
            };
            let (stats0, from, links0) = (stats(&pn), logs(&pn), links(&pn));
            let prefix = Prefix::new(Ip(0x0A02_0000), 16);
            pn.add_site(vpn, 0, prefix, None);
            pn.run_to_quiescence();

            // What each router sent since, by node id.
            let sent: Vec<(usize, Ip, CtrlMsg)> = (0..4)
                .flat_map(|u| pn.backbone(u).1.sent[from[u]..].iter().map(move |&(s, m)| (u, s, m)))
                .collect();
            let hops: Vec<(usize, Ip)> = sent.iter().map(|&(u, src, _)| (u, src)).collect();
            let origin = Ip(0xC0DE_0001);
            // PE0 (node 1), then P0 and P3; PE1 (node 2) sends nothing.
            assert_eq!(hops, [(0, origin), (1, origin), (3, origin)], "{mode:?}");
            assert!(sent.iter().all(|&(_, _, m)| m == sent[0].2));
            let stats = stats(&pn);
            assert_eq!(stats.bgp_originated - stats0.bgp_originated, 1);
            assert_eq!(stats.pkts_sent - stats0.pkts_sent, 3);
            assert_eq!(stats.pkts_terminated - stats0.pkts_terminated, 3);
            assert_eq!(stats.pkts_by_proto[PROTO_BGP] - stats0.pkts_by_proto[PROTO_BGP], 3);
            let wire = (stats.bytes_sent - stats0.bytes_sent) / 3;
            assert_eq!(wire == 0, mode == ControlMode::Oracle, "{mode:?} wire bytes {wire}");
            for (l, (after, before)) in links(&pn).into_iter().zip(links0).enumerate() {
                assert_eq!(after - before, wire, "link {l} under {mode:?}");
            }
            let (lfibs, _) = tables(&pn);
            assert_eq!((&lfibs[0], &lfibs[3]), (&lfibs0[0], &lfibs0[3]), "P routers untouched");
            let rows = pn.vrf_digest(1, vpn);
            let row = rows.iter().find(|r| r.0 == prefix).expect("route installed at PE1");
            let want = Some((0, Some(vec![2, 3, 0, 1])));
            assert_eq!(row.1.as_ref().map(|r| (r.0, r.2.clone())), want, "{mode:?}");
        }
    }
}
