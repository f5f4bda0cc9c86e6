//! Provider-network observability: the [`ProviderNetwork`] facade over
//! the `netsim-obs` telemetry layer.
//!
//! Every network built through [`crate::BackboneBuilder`] carries, always
//! on:
//!
//! * one [`FlightRecorder`] in the simulator engine — each packet a link
//!   or a PE/P/CE router discards is attributed to a [`DropCause`]
//!   instead of vanishing into a bare count, and router drops and
//!   absorptions are also tallied against the router's node;
//! * plain counter fields on the components that do the work (per-VRF,
//!   per-router, per-LFIB, per-link and control-plane counters).
//!
//! [`ProviderNetwork::metrics_snapshot`] is the one place those counters
//! get names. It folds the per-VRF forwarded counts, the drop causes,
//! per-router counters, per-router drops and absorptions (read from the
//! recorder's node tallies), per-LFIB label operations, per-link class
//! breakdowns and the control-plane counters into one [`MetricsSnapshot`],
//! exported as `metrics/v2` JSON.
//!
//! [`ProviderNetwork::attach_sla_probe`] adds a synthetic low-rate probe
//! flow for one ⟨VPN, class⟩ pair — the paper's §6 "measure the SLA you
//! sell" loop: the probe is marked at the source, bypasses CPE remarking,
//! and rides the exact queues customer traffic of that class rides. Its
//! one-way delay/jitter/loss lands in the snapshot's probe table.

use netsim_net::{Dscp, Prefix};
use netsim_obs::{DropCause, FlightRecorder, MetricsSnapshot, ProbeRow};
use netsim_qos::Nanos;
use netsim_sim::{CbrSource, LinkId, NodeId, Sink, SourceConfig};

use crate::network::{ProviderNetwork, SiteId, VpnId};
use crate::router::{CeRouter, CoreRouter, PeRouter, RouterCounters};

/// Flow-id base for SLA probe flows: far above any experiment's data
/// flows, so probe series never collide with customer traffic in sinks.
pub const PROBE_FLOW_BASE: u64 = 1 << 48;

/// Host ordinal inside the destination site's prefix where probe
/// reflectors listen (chosen high to stay clear of experiment hosts).
const PROBE_HOST_BASE: u32 = 200;

/// One provisioned SLA probe: where it runs and where it is measured.
pub(crate) struct ProbeSpec {
    pub(crate) vpn: VpnId,
    pub(crate) class: String,
    pub(crate) flow: u64,
    pub(crate) src: NodeId,
    pub(crate) sink: NodeId,
}

/// Pushes one router's rows into `snap` under `prefix.`: its forwarding
/// counters, and the absorptions and drops the flight recorder tallied
/// against its node.
fn push_router_counters(
    snap: &mut MetricsSnapshot,
    prefix: &str,
    c: &RouterCounters,
    rec: &FlightRecorder,
    node: NodeId,
) {
    snap.push_counter(format!("{prefix}.forwarded"), c.forwarded);
    snap.push_counter(format!("{prefix}.delivered_local"), rec.node_absorbed(node.0));
    snap.push_counter(format!("{prefix}.label_ops"), c.label_ops);
    snap.push_counter(format!("{prefix}.lpm_lookups"), c.lpm_lookups);
    for cause in [DropCause::NoRoute, DropCause::Ttl, DropCause::VrfMiss] {
        snap.push_counter(format!("{prefix}.dropped.{cause}"), rec.node_total(node.0, cause));
    }
}

/// Pushes one LFIB's operation counters into `snap` under `prefix.lfib.`.
fn push_lfib_stats(snap: &mut MetricsSnapshot, prefix: &str, lfib: &netsim_mpls::Lfib) {
    let s = lfib.stats();
    snap.push_counter(format!("{prefix}.lfib.swaps"), s.swaps());
    snap.push_counter(format!("{prefix}.lfib.pops"), s.pops());
    snap.push_counter(format!("{prefix}.lfib.pushes"), s.pushes());
    snap.push_counter(format!("{prefix}.lfib.bypass_activations"), s.bypass_activations());
}

impl ProviderNetwork {
    /// The engine's drop-cause flight recorder (always attached).
    pub fn recorder(&self) -> &FlightRecorder {
        self.net.recorder().expect("BackboneBuilder::build attaches a flight recorder")
    }

    /// Provisions a synthetic SLA probe flow for one ⟨VPN, class⟩ pair:
    /// a 64-byte CBR stream marked `dscp` from `from` to a dedicated
    /// measurement sink behind `to`'s CE. The CPE marking policy is
    /// bypassed for probe packets, so the probe measures the class it is
    /// stamped with — exactly what the provider sold. Returns the probe's
    /// flow id (≥ [`PROBE_FLOW_BASE`]).
    ///
    /// # Panics
    /// Panics if both sites are not in the same VPN.
    pub fn attach_sla_probe(
        &mut self,
        from: SiteId,
        to: SiteId,
        dscp: Dscp,
        interval: Nanos,
        count: Option<u64>,
    ) -> u64 {
        let vpn = self.sites[from.0].vpn;
        assert_eq!(vpn, self.sites[to.0].vpn, "SLA probes run inside one VPN");
        let idx = self.probes.len();
        let flow = PROBE_FLOW_BASE + idx as u64;
        // Dedicated reflector host: one address high inside the target
        // site's block, one sink per probe so series never mix.
        let host = PROBE_HOST_BASE + idx as u32;
        let dst = self.site_addr(to, host);
        let sink = self.attach_sink(to, Prefix::host(dst));
        let src_addr = self.site_addr(from, host);
        let cfg = SourceConfig::udp(flow, src_addr, dst, 7, 64).with_dscp(dscp).as_probe();
        let src = self.attach_cbr_source(from, cfg, interval, count);
        let class = format!("{dscp}");
        self.probes.push(ProbeSpec { vpn, class, flow, src, sink });
        flow
    }

    /// The measured SLA probe table: one row per provisioned probe, in
    /// provisioning order.
    fn probe_rows(&self) -> Vec<ProbeRow> {
        self.probes
            .iter()
            .map(|p| {
                let tx = self.net.node_ref::<CbrSource>(p.src).tx.tx_packets;
                let sink = self.net.node_ref::<Sink>(p.sink);
                let (rx, mean, p99, jitter) = sink.flow(p.flow).map_or((0, 0.0, 0, 0.0), |f| {
                    (f.rx_packets, f.latency.mean(), f.latency.quantile(0.99), f.jitter_ns)
                });
                let loss_pct =
                    if tx == 0 { 0.0 } else { 100.0 * (tx.saturating_sub(rx)) as f64 / tx as f64 };
                ProbeRow {
                    vpn: self.vpn_name(p.vpn).to_owned(),
                    class: p.class.clone(),
                    tx,
                    rx,
                    mean_delay_ns: mean,
                    p99_delay_ns: p99,
                    jitter_ns: jitter,
                    loss_pct,
                }
            })
            .collect()
    }

    /// Captures everything the network tracks into one exportable
    /// [`MetricsSnapshot`]: per-VRF forwarded counts, drop causes,
    /// per-router and per-LFIB counters, per-link class breakdowns,
    /// control-plane counters, and the SLA probe table.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let rec = self.recorder();
        let mut snap = MetricsSnapshot::new(self.net.now());
        // VRFs, in creation order: the first site of a VPN on a PE
        // creates that PE's VRF for it.
        let mut seen = std::collections::HashSet::new();
        for s in &self.sites {
            if seen.insert((s.pe, s.vpn)) {
                let vrf = self.expect_vrf(s.pe, s.vpn);
                let fib = &self.net.node_ref::<PeRouter>(self.pe_node(s.pe)).vrfs[vrf.index];
                let name = format!("vrf.{}.pe{}.forwarded", self.vpn_name(s.vpn), s.pe);
                snap.push_counter(name, fib.forwarded);
            }
        }
        snap.merge_causes(rec);
        snap.gauges.push(("sim.queued_packets".to_owned(), self.net.queued_packets() as i64));

        // Backbone routers, in topology-node order.
        for u in 0..self.topo.node_count() {
            let id = self.node_ids[u];
            if let Some(k) = self.pes.iter().position(|&p| p == u) {
                let pe = self.net.node_ref::<PeRouter>(id);
                let name = format!("pe{k}");
                push_router_counters(&mut snap, &name, &pe.counters, rec, id);
                push_lfib_stats(&mut snap, &name, &pe.lfib);
            } else {
                let p = self.net.node_ref::<CoreRouter>(id);
                let name = format!("p{u}");
                push_router_counters(&mut snap, &name, &p.counters, rec, id);
                push_lfib_stats(&mut snap, &name, &p.lfib);
            }
        }
        // CE routers, in site order.
        for (i, s) in self.sites.iter().enumerate() {
            let ce = self.net.node_ref::<CeRouter>(s.ce);
            push_router_counters(&mut snap, &format!("ce.site{i}"), &ce.counters, rec, s.ce);
        }
        // Backbone links: totals always, class breakdown only where a
        // class saw traffic (keeps snapshots readable on big topologies).
        for l in 0..self.topo.link_count() {
            for dir in 0..2u8 {
                let st = self.net.link_stats(LinkId(l), dir);
                let name = format!("link{l}.d{dir}");
                snap.push_counter(format!("{name}.tx"), st.tx_packets);
                snap.push_counter(format!("{name}.dropped"), st.dropped);
                for (c, (&tx, &dr)) in
                    st.tx_by_class.iter().zip(st.dropped_by_class.iter()).enumerate()
                {
                    if tx > 0 {
                        snap.push_counter(format!("{name}.tx.exp{c}"), tx);
                    }
                    if dr > 0 {
                        snap.push_counter(format!("{name}.dropped.exp{c}"), dr);
                    }
                }
            }
        }
        // Control plane: every router counts in either mode, bring-up's
        // LDP mappings included; under the oracle the byte and convergence
        // rows stay 0 or absent.
        let stats = self.control_stats().unwrap_or_default();
        snap.push_counter("control.no_lsp_to_egress".to_owned(), stats.no_lsp_to_egress);
        snap.push_counter("control.igp.pkts".to_owned(), stats.pkts_by_proto[0]);
        snap.push_counter("control.ldp.pkts".to_owned(), stats.pkts_by_proto[1]);
        snap.push_counter("control.bgp.pkts".to_owned(), stats.pkts_by_proto[2]);
        snap.push_counter("control.pkts_sent".to_owned(), stats.pkts_sent);
        snap.push_counter("control.pkts_terminated".to_owned(), stats.pkts_terminated);
        snap.push_counter("control.bytes_sent".to_owned(), stats.bytes_sent);
        snap.push_counter("control.spf_runs".to_owned(), stats.spf_runs);
        snap.push_counter("control.spf_skips".to_owned(), stats.spf_skips);
        snap.push_counter("control.undeliverable".to_owned(), stats.undeliverable);
        for l in 0..self.topo.link_count() {
            let b = self.control_bytes_on_link(l);
            if b > 0 {
                snap.push_counter(format!("control.link{l}.bytes"), b);
            }
        }
        if let Some((p50, p99, max)) = self.control_convergence_ns() {
            snap.push_counter("control.convergence.p50_ns".to_owned(), p50);
            snap.push_counter("control.convergence.p99_ns".to_owned(), p99);
            snap.push_counter("control.convergence.max_ns".to_owned(), max);
        }
        snap.probes = self.probe_rows();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::BackboneBuilder;
    use netsim_net::addr::pfx;
    use netsim_routing::{LinkAttrs, Topology};
    use netsim_sim::SEC;

    fn line() -> ProviderNetwork {
        let mut topo = Topology::new(3);
        let attrs = LinkAttrs { cost: 1, capacity_bps: 100_000_000 };
        topo.add_link(0, 1, attrs);
        topo.add_link(1, 2, attrs);
        BackboneBuilder::new(topo, vec![0, 2]).build()
    }

    #[test]
    fn sla_probe_measures_delivery_and_delay() {
        let mut pn = line();
        let vpn = pn.new_vpn("acme");
        let a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
        let b = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
        let flow = pn.attach_sla_probe(a, b, Dscp::EF, 10_000_000, Some(50));
        assert!(flow >= PROBE_FLOW_BASE);
        pn.run_for(2 * SEC);
        let rows = pn.probe_rows();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!((r.vpn.as_str(), r.class.as_str()), ("acme", "EF"));
        assert_eq!(r.tx, 50);
        assert_eq!(r.rx, 50, "healthy backbone loses no probes");
        assert_eq!(r.loss_pct, 0.0);
        // Two backbone hops at 1 ms each plus access links: > 2 ms.
        assert!(r.mean_delay_ns > 2_000_000.0, "mean {}", r.mean_delay_ns);
        assert!(r.p99_delay_ns >= r.mean_delay_ns as u64 / 2);
    }

    #[test]
    fn probe_marking_survives_a_remarking_cpe() {
        use netsim_qos::MarkingPolicy;
        // CPE marks everything best-effort; the probe must keep EF.
        let mut pn = line();
        let vpn = pn.new_vpn("acme");
        let a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), Some(MarkingPolicy::new(Dscp::BE)));
        let b = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
        pn.attach_sla_probe(a, b, Dscp::EF, 10_000_000, Some(10));
        pn.run_for(SEC);
        // The EF class saw traffic on the backbone links.
        let snap = pn.metrics_snapshot();
        let ef_tx: u64 = snap
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("link") && n.ends_with(".tx.exp5"))
            .map(|&(_, v)| v)
            .sum();
        assert!(ef_tx >= 10, "probe packets must ride EXP 5, saw {ef_tx}");
    }

    #[test]
    fn snapshot_collects_all_layers() {
        let mut pn = line();
        let vpn = pn.new_vpn("acme");
        let a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
        let b = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
        let sink = pn.attach_sink(b, pfx("10.2.0.0/16"));
        let to = pn.site_addr(b, 9);
        let cfg = SourceConfig::udp(1, pn.site_addr(a, 10), to, 5000, 200);
        pn.attach_cbr_source(a, cfg, 1_000_000, Some(40));
        pn.run_for(SEC);
        assert_eq!(pn.net.node_ref::<Sink>(sink).flow(1).map(|f| f.rx_packets), Some(40));

        let snap = pn.metrics_snapshot();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing counter {name}"))
                .1
        };
        // VRF layer: the ingress VRF forwarded every data packet.
        assert!(get("vrf.acme.pe0.forwarded") >= 40);
        // Router layer: the egress PE decapsulated them.
        assert!(get("pe1.forwarded") >= 40);
        // MPLS layer: with PHP on a 3-node line the P router pops.
        assert!(get("p1.lfib.pops") >= 40);
        // Link layer: both backbone links carried them.
        assert!(get("link0.d0.tx") >= 40 && get("link1.d0.tx") >= 40);
        // Healthy run: no drop causes recorded.
        assert!(snap.drop_causes.is_empty(), "unexpected drops: {:?}", snap.drop_causes);
        // And the export carries the same numbers.
        assert!(snap.to_json().contains("\"pe1.forwarded\""));
    }

    #[test]
    fn vrf_rows_follow_vrf_creation_order() {
        let mut pn = line();
        let a = pn.new_vpn("a");
        let b = pn.new_vpn("b");
        // VRFs come into being as (PE1, b), (PE0, a), (PE0, b), (PE1, a):
        // neither a sorted nor a per-VPN walk yields this order.
        let b1 = pn.add_site(b, 1, pfx("10.2.0.0/16"), None);
        pn.add_site(a, 0, pfx("10.1.0.0/16"), None);
        let b0 = pn.add_site(b, 0, pfx("10.1.0.0/16"), None);
        pn.add_site(a, 1, pfx("10.2.0.0/16"), None);
        pn.attach_sink(b0, pfx("10.1.0.0/16"));
        let cfg = SourceConfig::udp(1, pn.site_addr(b1, 10), pn.site_addr(b0, 9), 5000, 200);
        pn.attach_cbr_source(b1, cfg, 1_000_000, Some(7));
        pn.run_for(SEC);

        let snap = pn.metrics_snapshot();
        let vrf_rows: Vec<(&str, u64)> = snap
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("vrf."))
            .map(|(n, v)| (n.as_str(), *v))
            .collect();
        assert_eq!(
            vrf_rows,
            [
                ("vrf.b.pe1.forwarded", 7),
                ("vrf.a.pe0.forwarded", 0),
                ("vrf.b.pe0.forwarded", 7),
                ("vrf.a.pe1.forwarded", 0),
            ]
        );
    }

    #[test]
    fn overflow_drops_land_in_the_flight_recorder() {
        // 1 Mb/s backbone with a tiny FIFO: a 100 Mb/s access burst must
        // overflow the PE egress queue and every loss must be attributed.
        let mut topo = Topology::new(2);
        topo.add_link(0, 1, LinkAttrs { cost: 1, capacity_bps: 1_000_000 });
        let mut pn = BackboneBuilder::new(topo, vec![0, 1])
            .core_qos(crate::CoreQos::BestEffort { cap_bytes: 3_000 })
            .build();
        let vpn = pn.new_vpn("acme");
        let a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
        let b = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
        let sink = pn.attach_sink(b, pfx("10.2.0.0/16"));
        let to = pn.site_addr(b, 9);
        let cfg = SourceConfig::udp(1, pn.site_addr(a, 10), to, 5000, 1_000);
        pn.attach_cbr_source(a, cfg, 100_000, Some(200)); // ~80 Mb/s offered
        pn.run_to_quiescence();
        let delivered = pn.net.node_ref::<Sink>(sink).flow(1).map_or(0, |f| f.rx_packets);
        assert!(delivered < 200, "the bottleneck must drop something");
        let causes = pn.recorder().totals();
        let attributed: u64 = causes.iter().sum();
        assert_eq!(attributed, 200 - delivered, "every loss has a cause: {causes:?}");
        let snap = pn.metrics_snapshot();
        assert!(
            snap.drop_causes.iter().any(|(n, v)| n == "queue_overflow" && *v > 0),
            "expected queue_overflow rows, got {:?}",
            snap.drop_causes
        );
    }
}
