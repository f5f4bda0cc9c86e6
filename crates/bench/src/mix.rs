//! The canonical traffic mix used by the QoS experiments (Q1/Q2/Q3/Q4):
//! voice (EF), video (AF41), transactional data (AF21) and bulk (BE),
//! dimensioned to oversubscribe a 10 Mb/s bottleneck by roughly 35%.

use mplsvpn_core::ipsec_vpn::{GwId, IpsecVpnNetwork};
use mplsvpn_core::{ProviderNetwork, SiteId};
use netsim_net::{Dscp, Ip};
use netsim_qos::{Nanos, MSEC};
use netsim_sim::{CbrSource, Network, NodeId, OnOffSource, PoissonSource, SourceConfig};

/// How a flow's source is modelled (needed to read back tx counters).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SourceKind {
    /// Constant bit rate.
    Cbr,
    /// Poisson arrivals.
    Poisson,
    /// Markov on-off bursts.
    OnOff,
}

/// One flow of the mix.
#[derive(Clone, Copy, Debug)]
pub struct FlowDesc {
    /// Flow id (unique within the mix).
    pub id: u64,
    /// Human name ("voice0", "bulk", …).
    pub name: &'static str,
    /// Traffic class.
    pub class: &'static str,
    /// DSCP the source marks.
    pub dscp: Dscp,
    /// Source node (for tx counter readback).
    pub src: NodeId,
    /// Source model.
    pub kind: SourceKind,
}

/// Transmitted packets of a mix flow.
pub fn tx_packets(net: &Network, f: &FlowDesc) -> u64 {
    match f.kind {
        SourceKind::Cbr => net.node_ref::<CbrSource>(f.src).tx.tx_packets,
        SourceKind::Poisson => net.node_ref::<PoissonSource>(f.src).tx.tx_packets,
        SourceKind::OnOff => net.node_ref::<OnOffSource>(f.src).tx.tx_packets,
    }
}

/// Specification of one mix flow before attachment.
struct Spec {
    name: &'static str,
    class: &'static str,
    dscp: Dscp,
    dst_port: u16,
    payload: usize,
    kind: SourceKind,
    /// CBR/on-burst interval or Poisson mean gap.
    interval: Nanos,
}

fn mix_specs() -> Vec<Spec> {
    let mut v = Vec::new();
    // 8 G.711-like voice flows: 160 B @ 20 ms = 75 kb/s each on the wire.
    for i in 0..8 {
        let names =
            ["voice0", "voice1", "voice2", "voice3", "voice4", "voice5", "voice6", "voice7"];
        v.push(Spec {
            name: names[i],
            class: "EF",
            dscp: Dscp::EF,
            dst_port: 16400,
            payload: 160,
            kind: SourceKind::Cbr,
            interval: 20 * MSEC,
        });
    }
    // 2 video flows: 1200 B @ 8 ms ≈ 1.23 Mb/s each.
    for name in ["video0", "video1"] {
        v.push(Spec {
            name,
            class: "AF41",
            dscp: Dscp::AF41,
            dst_port: 5004,
            payload: 1200,
            kind: SourceKind::Cbr,
            interval: 8 * MSEC,
        });
    }
    // 2 transactional data flows: bursty on-off, ~2.5 Mb/s peak each,
    // ~1.25 Mb/s average.
    for name in ["data0", "data1"] {
        v.push(Spec {
            name,
            class: "AF21",
            dscp: Dscp::AF21,
            dst_port: 443,
            payload: 600,
            kind: SourceKind::OnOff,
            interval: 2 * MSEC,
        });
    }
    // Bulk: Poisson ~8.2 Mb/s of 1000 B datagrams — the overload driver.
    v.push(Spec {
        name: "bulk",
        class: "BE",
        dscp: Dscp::BE,
        dst_port: 20,
        payload: 1000,
        kind: SourceKind::Poisson,
        interval: MSEC,
    });
    v
}

fn source_config(spec: &Spec, id: u64, src: Ip, dst: Ip) -> SourceConfig {
    SourceConfig {
        flow: id,
        src,
        dst,
        src_port: 20000 + id as u16,
        dst_port: spec.dst_port,
        tcp: false,
        dscp: spec.dscp,
        payload: spec.payload,
        iface: netsim_sim::IfaceId(0),
        probe: false,
    }
}

/// Attaches the canonical mix from `from` to `to` on a provider network,
/// running until `until`. Returns the flow descriptors (flow ids are
/// `base_flow + index`).
pub fn attach_mix_provider(
    pn: &mut ProviderNetwork,
    from: SiteId,
    to: SiteId,
    base_flow: u64,
    seed: u64,
    until: Nanos,
) -> Vec<FlowDesc> {
    let specs = mix_specs();
    let mut out = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let id = base_flow + i as u64;
        let src_ip = pn.site_addr(from, 100 + i as u32);
        let dst_ip = pn.site_addr(to, 200 + i as u32);
        let cfg = source_config(spec, id, src_ip, dst_ip);
        let count = until / spec.interval;
        let node = match spec.kind {
            SourceKind::Cbr => pn.attach_cbr_source(from, cfg, spec.interval, Some(count)),
            SourceKind::Poisson => {
                pn.attach_poisson_source(from, cfg, spec.interval, seed + i as u64, Some(until))
            }
            SourceKind::OnOff => pn.attach_onoff_source(
                from,
                cfg,
                spec.interval,
                50 * MSEC,
                50 * MSEC,
                seed + i as u64,
                Some(until),
            ),
        };
        out.push(FlowDesc {
            id,
            name: spec.name,
            class: spec.class,
            dscp: spec.dscp,
            src: node,
            kind: spec.kind,
        });
    }
    out
}

/// Attaches the canonical mix between two IPsec gateways (same shapes and
/// classes as [`attach_mix_provider`], so rows are comparable).
pub fn attach_mix_ipsec(
    n: &mut IpsecVpnNetwork,
    from: GwId,
    to: GwId,
    base_flow: u64,
    seed: u64,
    until: Nanos,
) -> Vec<FlowDesc> {
    let specs = mix_specs();
    let mut out = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let id = base_flow + i as u64;
        let src_ip = n.site_addr(from, 100 + i as u32);
        let dst_ip = n.site_addr(to, 200 + i as u32);
        let cfg = source_config(spec, id, src_ip, dst_ip);
        let count = until / spec.interval;
        let node = match spec.kind {
            SourceKind::Cbr => n.attach_cbr_source(from, cfg, spec.interval, Some(count)),
            SourceKind::Poisson => {
                let src = n.net.add_node(Box::new(PoissonSource::new(
                    cfg,
                    spec.interval,
                    seed + i as u64,
                    Some(until),
                )));
                wire_extra_host(n, from, src, 0);
                src
            }
            SourceKind::OnOff => {
                let src = n.net.add_node(Box::new(OnOffSource::new(
                    cfg,
                    spec.interval,
                    50 * MSEC,
                    50 * MSEC,
                    seed + i as u64,
                    Some(until),
                )));
                wire_extra_host(n, from, src, 1);
                src
            }
        };
        out.push(FlowDesc {
            id,
            name: spec.name,
            class: spec.class,
            dscp: spec.dscp,
            src: node,
            kind: spec.kind,
        });
    }
    out
}

/// Connects source `src` to gateway `gw` and starts it with timer token
/// `kick` (each source kind has its own start token).
fn wire_extra_host(n: &mut IpsecVpnNetwork, gw: GwId, src: NodeId, kick: u64) {
    let gnode = n.gateway_node(gw);
    n.net.connect(src, gnode, netsim_sim::LinkConfig::new(1_000_000_000, 10_000));
    n.net.arm_timer(src, 0, kick);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_oversubscribes_ten_megabit() {
        // Back-of-envelope offered load (wire bytes) must exceed 10 Mb/s.
        let specs = mix_specs();
        let mut bps = 0.0;
        for s in &specs {
            let wire = (s.payload + 28) as f64 * 8.0;
            let duty = if s.kind == SourceKind::OnOff { 0.5 } else { 1.0 };
            bps += wire / (s.interval as f64 / 1e9) * duty;
        }
        assert!(bps > 10_000_000.0, "offered {bps}");
        assert!(bps < 20_000_000.0, "offered {bps}");
    }

    #[test]
    fn classes_cover_ef_af_be() {
        let specs = mix_specs();
        assert!(specs.iter().any(|s| s.dscp == Dscp::EF));
        assert!(specs.iter().any(|s| s.dscp == Dscp::AF41));
        assert!(specs.iter().any(|s| s.dscp == Dscp::AF21));
        assert!(specs.iter().any(|s| s.dscp == Dscp::BE));
    }
}
