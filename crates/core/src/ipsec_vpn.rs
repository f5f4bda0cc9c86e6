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
use netsim_obs::DropCause;
use netsim_qos::{MarkingPolicy, Nanos};
use netsim_routing::Topology;
use netsim_sim::{Ctx, IfaceId, LinkConfig, LinkId, NodeId, Sink};

use crate::network::{BackboneBuilder, CoreQos, ProviderNetwork};
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
        ctx.recycle(pkt);
        let outer = ctx.boxed(outer);
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
            return ctx.recycle(pkt);
        };
        let cost = self.cost.cost_ns(pkt.payload.len());
        self.crypto_ns += cost;
        let (_, _, in_sa) = &mut self.peers[peer_idx];
        let inner = match decapsulate(&pkt, in_sa) {
            Ok(p) => p,
            Err(IpsecError::Replayed { .. }) | Err(_) => {
                self.esp_errors += 1;
                return ctx.recycle(pkt);
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
                ctx.recycle(pkt);
                let inner = ctx.boxed(inner);
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
    /// The gateway's access link to its backbone router.
    access: LinkId,
    public_ip: Ip,
    prefix: Prefix,
}

/// An IPsec VPN service over a plain IP backbone.
pub struct IpsecVpnNetwork {
    /// The IP backbone: a provider network without PEs, whose routers
    /// forward the gateways' ESP on their own SPF views. Its simulator
    /// carries the gateways too.
    pub pn: ProviderNetwork,
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
    pub fn build(topo: Topology, qos: CoreQos) -> Self {
        let pn = BackboneBuilder::new(topo, Vec::new()).core_qos(qos).seed(0).build();
        IpsecVpnNetwork { pn, gws: Vec::new(), next_spi: 0x1000, ike_messages: 0, ike_setup_ns: 0 }
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
        let pn = &mut self.pn;
        let gw_node = pn.net.add_node(Box::new(gw));
        let access = LinkConfig::new(100_000_000, 100_000);
        let (link, _, r_if) = pn.net.connect(gw_node, pn.backbone_node(attach), access);
        // Every backbone router routes the gateway's /32 on its own view.
        for u in 0..pn.topo.node_count() {
            let out = if u == attach {
                r_if.0
            } else {
                let nh = pn.effective_spf(u).next_hop[attach].expect("backbone connected");
                pn.topo.iface_toward(u, nh)
            };
            let router = pn.net.node_mut::<CoreRouter>(pn.backbone_node(u));
            router.fib.insert(Prefix::host(public_ip), out);
        }
        let id = GwId(self.gws.len());
        self.gws.push(GwInfo { node: gw_node, attach, access: link, public_ip, prefix });
        id
    }

    /// One-way propagation delay from gateway `a` to gateway `b`: both
    /// access links and the backbone links on the path the routers' own
    /// SPF views forward along.
    fn one_way_delay(&self, a: GwId, b: GwId) -> Nanos {
        let (ga, gb) = (&self.gws[a.0], &self.gws[b.0]);
        let net = &self.pn.net;
        let mut delay = net.link_delay(ga.access, 0) + net.link_delay(gb.access, 1);
        let mut at = ga.attach;
        while at != gb.attach {
            let nh = self.pn.effective_spf(at).next_hop[gb.attach].expect("backbone connected");
            let link = self.pn.topo.link_between(at, nh).expect("adjacent");
            delay += net.link_delay(LinkId(link), 0);
            at = nh;
        }
        delay
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
        self.ike_setup_ns += xc.setup_latency_ns(self.one_way_delay(a, b));

        let (pa, pb) = (self.gws[a.0].public_ip, self.gws[b.0].public_ip);
        let (prefa, prefb) = (self.gws[a.0].prefix, self.gws[b.0].prefix);
        let (na, nb) = (self.gws[a.0].node, self.gws[b.0].node);
        self.pn.net.node_mut::<IpsecGateway>(na).add_peer(
            pb,
            prefb,
            xc.sas.out_sa.clone(),
            xc.sas.in_sa.clone(),
        );
        self.pn.net.node_mut::<IpsecGateway>(nb).add_peer(
            pa,
            prefa,
            xc.sas.in_sa.clone(),
            xc.sas.out_sa.clone(),
        );
    }

    /// Enables DSCP copying to the outer header on every SA of a gateway.
    pub fn set_dscp_copy(&mut self, gw: GwId, on: bool) {
        let node = self.gws[gw.0].node;
        let g = self.pn.net.node_mut::<IpsecGateway>(node);
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
        let (sink, g_if) = self.pn.net.attach_host(gnode, Box::new(Sink::new()));
        self.pn.net.node_mut::<IpsecGateway>(gnode).local.insert(host_prefix, g_if.0);
        sink
    }

    /// A host address inside a gateway's site prefix.
    pub fn site_addr(&self, gw: GwId, host: u32) -> Ip {
        self.gws[gw.0].prefix.nth(host)
    }
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
        IpsecVpnNetwork::build(topo, CoreQos::BestEffort { cap_bytes: 256 * 1024 })
    }

    #[test]
    fn tunnel_carries_traffic_end_to_end() {
        let mut n = line_ipsec();
        let a = n.add_gateway(0, pfx("10.1.0.0/16"), None);
        let b = n.add_gateway(2, pfx("10.2.0.0/16"), None);
        n.connect_gateways(a, b);
        let sink = n.attach_sink(b, pfx("10.2.0.0/16"));
        let cfg = SourceConfig::udp(1, n.site_addr(a, 5), n.site_addr(b, 9), 5000, 200);
        n.pn.net
            .attach_source(n.gateway_node(a), Box::new(CbrSource::new(cfg, 1_000_000, Some(30))));
        n.pn.net.run_until(SEC);
        let s = n.pn.net.node_ref::<Sink>(sink);
        assert_eq!(s.flow(1).map(|f| f.rx_packets), Some(30));
        // Crypto time was charged at both gateways.
        let ga = n.pn.net.node_ref::<IpsecGateway>(n.gateway_node(a));
        assert!(ga.crypto_ns > 0);
        assert_eq!(n.ike_messages, 9);
    }

    /// IKE's nine messages each cross the one-way path once: on a line
    /// of three 1 ms backbone links with a 0.1 ms access link at each end
    /// that is 3.2 ms, so the setup takes 9 × 3.2 ms plus 64 ms of CPU.
    #[test]
    fn ike_setup_pays_the_path_delay_of_every_message() {
        let mut topo = Topology::new(4);
        for u in 0..3 {
            topo.add_link(u, u + 1, LinkAttrs { cost: 1, capacity_bps: 100_000_000 });
        }
        let mut n = IpsecVpnNetwork::build(topo, CoreQos::BestEffort { cap_bytes: 256 * 1024 });
        let a = n.add_gateway(0, pfx("10.1.0.0/16"), None);
        let b = n.add_gateway(3, pfx("10.2.0.0/16"), None);
        n.connect_gateways(a, b);
        assert_eq!(n.one_way_delay(a, b), 3_200_000);
        assert_eq!(n.ike_setup_ns, 92_800_000);
    }

    #[test]
    fn no_tunnel_no_connectivity() {
        let mut n = line_ipsec();
        let a = n.add_gateway(0, pfx("10.1.0.0/16"), None);
        let b = n.add_gateway(2, pfx("10.2.0.0/16"), None);
        let sink = n.attach_sink(b, pfx("10.2.0.0/16"));
        let cfg = SourceConfig::udp(1, n.site_addr(a, 5), n.site_addr(b, 9), 5000, 200);
        n.pn.net
            .attach_source(n.gateway_node(a), Box::new(CbrSource::new(cfg, 1_000_000, Some(10))));
        n.pn.net.run_until(SEC);
        assert_eq!(n.pn.net.node_ref::<Sink>(sink).total_packets, 0);
        let rec = n.pn.net.recorder().expect("the IPsec network attaches a recorder");
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
        n.pn.net
            .attach_source(n.gateway_node(a), Box::new(CbrSource::new(cfg, 1_000_000, Some(5))));
        n.pn.net.run_until(SEC);
        // Delivered, and the inner EF DSCP survived the tunnel...
        let s = n.pn.net.node_ref::<Sink>(sink);
        assert_eq!(s.total_packets, 5);
        // ...but gateway crypto accounting proves the path was ESP.
        let ga = n.pn.net.node_ref::<IpsecGateway>(n.gateway_node(a));
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
        n.pn.net
            .attach_source(n.gateway_node(a), Box::new(CbrSource::new(cfg, 1_000_000, Some(5))));
        n.pn.net.run_until(SEC);
        assert_eq!(n.pn.net.node_ref::<Sink>(sink).total_packets, 5);
    }
}
