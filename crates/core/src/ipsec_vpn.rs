//! The IPsec VPN baseline: ESP gateways over a plain IP backbone.
//!
//! The §2.3/§3 comparison point. Security gateways encrypt site-to-site
//! traffic into ESP tunnels; the backbone routes on the outer header only.
//! Two QoS consequences the experiments measure:
//!
//! 1. **Classification blindness** — core schedulers keyed on DSCP see
//!    best-effort ESP unless the gateway copies the DSCP, and even then
//!    only the class survives, never the flow (experiment Q2).
//! 2. **Crypto cost** — every packet pays per-byte encryption time at both
//!    gateways ([`netsim_ipsec::CryptoCostModel`]), and every tunnel pays
//!    an IKE handshake before the first packet.

use std::any::Any;
use std::collections::HashMap;

use netsim_ipsec::{
    decapsulate, encapsulate, CryptoCostModel, IkeProposal, IpsecError, SecurityAssociation,
};
use netsim_net::{Ip, LpmTrie, Pkt, Prefix};
use netsim_obs::{DropCause, FlightRecorder};
use netsim_qos::{MarkingPolicy, Nanos};
use netsim_routing::{Igp, Topology};
use netsim_sim::{Ctx, IfaceId, LinkConfig, Network, NodeId, Sink};

use crate::network::CoreQos;
use crate::router::{CoreRouter, RouterCounters};

/// A security gateway: CE + IPsec tunnel endpoint.
pub struct IpsecGateway {
    /// Device name.
    pub name: String,
    /// Public (backbone-routable) address.
    pub public_ip: Ip,
    /// Uplink interface to the backbone (always 0).
    pub uplink: usize,
    /// Destination prefix → peer index.
    peers_by_prefix: LpmTrie<usize>,
    /// Per-peer state: (peer public ip, outbound SA, inbound SA).
    pub peers: Vec<(Ip, SecurityAssociation, SecurityAssociation)>,
    /// Inbound SPI → peer index.
    spi_map: HashMap<u32, usize>,
    /// Host routes inside the site.
    pub local: LpmTrie<usize>,
    /// CPE marking policy applied before encryption.
    pub marking: Option<MarkingPolicy>,
    /// Crypto cost model charged per packet.
    pub cost: CryptoCostModel,
    /// Forwarding counters.
    pub counters: RouterCounters,
    /// Total crypto CPU time spent, ns.
    pub crypto_ns: u64,
    /// ESP packets rejected (integrity, replay, padding).
    pub esp_errors: u64,
}

impl IpsecGateway {
    /// Creates a gateway with the given public address.
    pub fn new(name: impl Into<String>, public_ip: Ip, marking: Option<MarkingPolicy>) -> Self {
        IpsecGateway {
            name: name.into(),
            public_ip,
            uplink: 0,
            peers_by_prefix: LpmTrie::new(),
            peers: Vec::new(),
            spi_map: HashMap::new(),
            local: LpmTrie::new(),
            marking,
            cost: CryptoCostModel::default(),
            counters: RouterCounters::default(),
            crypto_ns: 0,
            esp_errors: 0,
        }
    }

    /// Registers a tunnel peer: `remote_prefix` is reachable through the
    /// gateway at `peer_ip` using the given SA pair.
    fn add_peer(
        &mut self,
        peer_ip: Ip,
        remote_prefix: Prefix,
        out_sa: SecurityAssociation,
        in_sa: SecurityAssociation,
    ) {
        let idx = self.peers.len();
        self.spi_map.insert(in_sa.spi, idx);
        self.peers.push((peer_ip, out_sa, in_sa));
        self.peers_by_prefix.insert(remote_prefix, idx);
    }

    fn upstream(&mut self, mut pkt: Pkt, ctx: &mut Ctx) {
        if let Some(policy) = &self.marking {
            policy.mark(&mut pkt);
        }
        let Some(dst) = pkt.outer_ipv4().map(|h| h.dst) else {
            return ctx.discard(pkt, DropCause::NoRoute);
        };
        if let Some(&out) = self.local.lookup(dst) {
            self.counters.forwarded += 1;
            ctx.send(IfaceId(out), pkt);
            return;
        }
        self.counters.lpm_lookups += 1;
        let Some(&peer_idx) = self.peers_by_prefix.lookup(dst) else {
            return ctx.discard(pkt, DropCause::NoRoute);
        };
        let (peer_ip, out_sa, _) = &mut self.peers[peer_idx];
        let peer_ip = *peer_ip;
        let my_ip = self.public_ip;
        let outer = encapsulate(&pkt, out_sa, my_ip, peer_ip);
        let cost = self.cost.cost_ns(outer.payload.len());
        self.crypto_ns += cost;
        self.counters.forwarded += 1;
        ctx.send_after(cost, IfaceId(self.uplink), outer);
    }

    fn downstream(&mut self, pkt: Pkt, ctx: &mut Ctx) {
        if !pkt.outer_ipv4().map(|h| h.dst == self.public_ip).unwrap_or(false) {
            return ctx.discard(pkt, DropCause::NoRoute);
        }
        let spi = match pkt.layers().get(1) {
            Some(netsim_net::Layer::Esp(e)) => e.spi,
            _ => return ctx.discard(pkt, DropCause::NoRoute),
        };
        let Some(&peer_idx) = self.spi_map.get(&spi) else {
            self.esp_errors += 1;
            return;
        };
        let cost = self.cost.cost_ns(pkt.payload.len());
        self.crypto_ns += cost;
        let (_, _, in_sa) = &mut self.peers[peer_idx];
        let inner = match decapsulate(&pkt, in_sa) {
            Ok(p) => p,
            Err(IpsecError::Replayed { .. }) | Err(_) => {
                self.esp_errors += 1;
                return;
            }
        };
        // The inner packet carries the outer one's flow and sequence
        // number, so a drop past this point is recorded on the outer.
        let Some(dst) = inner.outer_ipv4().map(|h| h.dst) else {
            return ctx.discard(pkt, DropCause::NoRoute);
        };
        self.counters.lpm_lookups += 1;
        match self.local.lookup(dst) {
            Some(&out) => {
                self.counters.forwarded += 1;
                ctx.send_after(cost, IfaceId(out), inner);
            }
            None => ctx.discard(pkt, DropCause::NoRoute),
        }
    }
}

impl netsim_sim::Node for IpsecGateway {
    fn on_packet(&mut self, iface: IfaceId, pkt: Pkt, ctx: &mut Ctx) {
        if iface.0 == self.uplink {
            self.downstream(pkt, ctx);
        } else {
            self.upstream(pkt, ctx);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Handle to an IPsec VPN site (gateway).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GwId(pub usize);

struct GwInfo {
    node: NodeId,
    attach: usize,
    public_ip: Ip,
    prefix: Prefix,
}

/// An IPsec VPN service over a plain IP backbone.
pub struct IpsecVpnNetwork {
    /// The simulator.
    pub net: Network,
    topo: Topology,
    igp: Igp,
    node_ids: Vec<NodeId>,
    gws: Vec<GwInfo>,
    next_spi: u32,
    /// IKE messages exchanged across all tunnels.
    ike_messages: u64,
    /// Sum of IKE setup latencies (ns) across all tunnels.
    pub ike_setup_ns: u64,
}

impl IpsecVpnNetwork {
    /// Builds the IP backbone (every topology node is an IP router) with
    /// the given core QoS profile.
    pub fn build(topo: Topology, link_delay_ns: Nanos, qos: CoreQos) -> Self {
        let igp = Igp::converge(&topo);
        let mut net = Network::new();
        net.set_recorder(FlightRecorder::default());
        let node_ids: Vec<NodeId> = (0..topo.node_count())
            .map(|u| net.add_node(Box::new(CoreRouter::new(format!("R{u}"), Default::default()))))
            .collect();
        for l in 0..topo.link_count() {
            let (u, v, attrs) = topo.link(l);
            let cfg = LinkConfig::new(attrs.capacity_bps, link_delay_ns);
            let qa = qos_qdisc(&qos, l as u64 * 2);
            let qb = qos_qdisc(&qos, l as u64 * 2 + 1);
            net.connect_with_qdiscs(node_ids[u], node_ids[v], cfg, cfg, qa, qb);
        }
        IpsecVpnNetwork {
            net,
            topo,
            igp,
            node_ids,
            gws: Vec::new(),
            next_spi: 0x1000,
            ike_messages: 0,
            ike_setup_ns: 0,
        }
    }

    /// Adds a gateway at backbone node `attach`, serving `prefix`, with
    /// public address `203.0.113.<n>`.
    pub fn add_gateway(
        &mut self,
        attach: usize,
        prefix: Prefix,
        marking: Option<MarkingPolicy>,
    ) -> GwId {
        let n = self.gws.len() as u8;
        let public_ip = Ip::new(203, 0, 113, n + 1);
        let gw = IpsecGateway::new(format!("GW{n}"), public_ip, marking);
        let gw_node = self.net.add_node(Box::new(gw));
        let (_l, _gw_if, _r_if) =
            self.net.connect(gw_node, self.node_ids[attach], LinkConfig::new(100_000_000, 100_000));
        // Install the gateway's /32 into every backbone router's FIB.
        for u in 0..self.topo.node_count() {
            let out = if u == attach {
                _r_if.0
            } else {
                let nh = self.igp.next_hop(u, attach).expect("backbone connected");
                self.topo.iface_toward(u, nh)
            };
            self.net
                .node_mut::<CoreRouter>(self.node_ids[u])
                .fib
                .insert(Prefix::host(public_ip), out);
        }
        let id = GwId(self.gws.len());
        self.gws.push(GwInfo { node: gw_node, attach, public_ip, prefix });
        id
    }

    /// Establishes the IPsec tunnel between two gateways: runs the
    /// simulated IKE exchange, installs SAs and routes on both sides, and
    /// accounts messages/latency.
    pub fn connect_gateways(&mut self, a: GwId, b: GwId) {
        let spi = self.next_spi;
        self.next_spi += 2;
        let (ia, ib) = (a.0 as u64, b.0 as u64);
        let xc = netsim_ipsec::ike::establish(IkeProposal {
            initiator_secret: 0x1111_0000 + ia,
            responder_secret: 0x2222_0000 + ib,
            spi_base: spi,
        });
        self.ike_messages += u64::from(xc.messages);
        let hops = self
            .igp
            .path(self.gws[a.0].attach, self.gws[b.0].attach)
            .map(|p| p.len() as u64)
            .unwrap_or(1);
        self.ike_setup_ns += xc.setup_latency_ns(hops * 1_000_000);

        let (pa, pb) = (self.gws[a.0].public_ip, self.gws[b.0].public_ip);
        let (prefa, prefb) = (self.gws[a.0].prefix, self.gws[b.0].prefix);
        let (na, nb) = (self.gws[a.0].node, self.gws[b.0].node);
        self.net.node_mut::<IpsecGateway>(na).add_peer(
            pb,
            prefb,
            xc.sas.out_sa.clone(),
            xc.sas.in_sa.clone(),
        );
        self.net.node_mut::<IpsecGateway>(nb).add_peer(
            pa,
            prefa,
            xc.sas.in_sa.clone(),
            xc.sas.out_sa.clone(),
        );
    }

    /// Enables DSCP copying to the outer header on every SA of a gateway.
    pub fn set_dscp_copy(&mut self, gw: GwId, on: bool) {
        let node = self.gws[gw.0].node;
        let g = self.net.node_mut::<IpsecGateway>(node);
        for (_, out_sa, in_sa) in &mut g.peers {
            out_sa.copy_dscp = on;
            in_sa.copy_dscp = on;
        }
    }

    /// The gateway's simulator node.
    pub fn gateway_node(&self, gw: GwId) -> NodeId {
        self.gws[gw.0].node
    }

    /// Attaches a measuring sink behind a gateway.
    pub fn attach_sink(&mut self, gw: GwId, host_prefix: Prefix) -> NodeId {
        let gnode = self.gws[gw.0].node;
        let (sink, g_if) = self.net.attach_host(gnode, Box::new(Sink::new()));
        self.net.node_mut::<IpsecGateway>(gnode).local.insert(host_prefix, g_if.0);
        sink
    }

    /// A host address inside a gateway's site prefix.
    pub fn site_addr(&self, gw: GwId, host: u32) -> Ip {
        self.gws[gw.0].prefix.nth(host)
    }
}

fn qos_qdisc(q: &CoreQos, seed: u64) -> Box<dyn netsim_qos::QueueDiscipline> {
    crate::network::make_core_qdisc(q, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_net::addr::pfx;
    use netsim_net::Dscp;
    use netsim_routing::LinkAttrs;
    use netsim_sim::{CbrSource, SourceConfig, SEC};

    fn line_ipsec() -> IpsecVpnNetwork {
        let mut topo = Topology::new(3);
        let attrs = LinkAttrs { cost: 1, capacity_bps: 100_000_000 };
        topo.add_link(0, 1, attrs);
        topo.add_link(1, 2, attrs);
        IpsecVpnNetwork::build(topo, 1_000_000, CoreQos::BestEffort { cap_bytes: 256 * 1024 })
    }

    #[test]
    fn tunnel_carries_traffic_end_to_end() {
        let mut n = line_ipsec();
        let a = n.add_gateway(0, pfx("10.1.0.0/16"), None);
        let b = n.add_gateway(2, pfx("10.2.0.0/16"), None);
        n.connect_gateways(a, b);
        let sink = n.attach_sink(b, pfx("10.2.0.0/16"));
        let cfg = SourceConfig::udp(1, n.site_addr(a, 5), n.site_addr(b, 9), 5000, 200);
        n.net.attach_source(n.gateway_node(a), Box::new(CbrSource::new(cfg, 1_000_000, Some(30))));
        n.net.run_until(SEC);
        let s = n.net.node_ref::<Sink>(sink);
        assert_eq!(s.flow(1).map(|f| f.rx_packets), Some(30));
        // Crypto time was charged at both gateways.
        let ga = n.net.node_ref::<IpsecGateway>(n.gateway_node(a));
        assert!(ga.crypto_ns > 0);
        assert_eq!(n.ike_messages, 9);
    }

    #[test]
    fn no_tunnel_no_connectivity() {
        let mut n = line_ipsec();
        let a = n.add_gateway(0, pfx("10.1.0.0/16"), None);
        let b = n.add_gateway(2, pfx("10.2.0.0/16"), None);
        let sink = n.attach_sink(b, pfx("10.2.0.0/16"));
        let cfg = SourceConfig::udp(1, n.site_addr(a, 5), n.site_addr(b, 9), 5000, 200);
        n.net.attach_source(n.gateway_node(a), Box::new(CbrSource::new(cfg, 1_000_000, Some(10))));
        n.net.run_until(SEC);
        assert_eq!(n.net.node_ref::<Sink>(sink).total_packets, 0);
        let rec = n.net.recorder().expect("the IPsec network attaches a recorder");
        let gw = n.gateway_node(a).0;
        assert_eq!(rec.node_total(gw, DropCause::NoRoute), 10, "no tunnel: dies at the gateway");
    }

    /// The backbone carries only ESP: an EF marking applied inside the
    /// site is invisible (outer DSCP is BE) unless DSCP-copy is enabled.
    #[test]
    fn backbone_sees_only_esp() {
        let mut n = line_ipsec();
        let a = n.add_gateway(0, pfx("10.1.0.0/16"), None);
        let b = n.add_gateway(2, pfx("10.2.0.0/16"), None);
        n.connect_gateways(a, b);
        let sink = n.attach_sink(b, pfx("10.2.0.0/16"));
        let cfg = SourceConfig::udp(1, n.site_addr(a, 5), n.site_addr(b, 9), 5000, 160)
            .with_dscp(Dscp::EF);
        n.net.attach_source(n.gateway_node(a), Box::new(CbrSource::new(cfg, 1_000_000, Some(5))));
        n.net.run_until(SEC);
        // Delivered, and the inner EF DSCP survived the tunnel...
        let s = n.net.node_ref::<Sink>(sink);
        assert_eq!(s.total_packets, 5);
        // ...but gateway crypto accounting proves the path was ESP.
        let ga = n.net.node_ref::<IpsecGateway>(n.gateway_node(a));
        assert_eq!(ga.counters.forwarded, 5);
    }

    #[test]
    fn dscp_copy_toggle() {
        let mut n = line_ipsec();
        let a = n.add_gateway(0, pfx("10.1.0.0/16"), None);
        let b = n.add_gateway(2, pfx("10.2.0.0/16"), None);
        n.connect_gateways(a, b);
        n.set_dscp_copy(a, true);
        n.set_dscp_copy(b, true);
        let sink = n.attach_sink(b, pfx("10.2.0.0/16"));
        let cfg = SourceConfig::udp(1, n.site_addr(a, 5), n.site_addr(b, 9), 5000, 160)
            .with_dscp(Dscp::EF);
        n.net.attach_source(n.gateway_node(a), Box::new(CbrSource::new(cfg, 1_000_000, Some(5))));
        n.net.run_until(SEC);
        assert_eq!(n.net.node_ref::<Sink>(sink).total_packets, 5);
    }
}
