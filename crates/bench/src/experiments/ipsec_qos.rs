//! **Q2 — encryption erases QoS** (paper §2.3, §3).
//!
//! "During the development of the second encryption tunnel, all information
//! including the IP and MAC addresses are encrypted thus erasing any hope
//! one may have to control QoS."
//!
//! The same traffic mix and the same DiffServ core are used three ways:
//!
//! 1. **MPLS VPN** — DSCP mapped to EXP at the PE; full class treatment.
//! 2. **IPsec VPN** — ESP outer header carries BE; the DiffServ core sees
//!    one undifferentiated flow; voice drowns with the bulk.
//! 3. **IPsec + ToS copy** — the class survives (partial mitigation) but
//!    per-flow identity is still gone, and crypto adds per-packet latency.

use mplsvpn_core::ipsec_vpn::{IpsecGateway, IpsecVpnNetwork};
use mplsvpn_core::network::DsSched;
use mplsvpn_core::{BackboneBuilder, CoreQos, Sla};
use netsim_net::addr::pfx;
use netsim_qos::Nanos;
use netsim_sim::SEC;

use crate::experiments::qos::{class_rows, ClassRow};
use crate::mix::attach_mix;
use crate::table::{f2, ms, pct, Table};
use crate::topo;

fn ds_core() -> CoreQos {
    CoreQos::DiffServ { cap_bytes: 128 * 1024, sched: DsSched::Priority }
}

/// Result of one configuration run.
#[derive(Clone, Debug)]
pub struct Q2Row {
    /// Configuration label.
    pub config: &'static str,
    /// Per-class rows.
    pub rows: Vec<ClassRow>,
    /// Crypto CPU per delivered packet (ns), zero for MPLS.
    crypto_ns_per_pkt: u64,
    /// Tunnel setup latency (IKE), zero for MPLS site add.
    pub setup_ns: u64,
}

/// Runs the MPLS VPN reference.
fn measure_mpls(duration: Nanos, seed: u64) -> Q2Row {
    let (t, pes) = topo::dumbbell(10);
    let mut pn = BackboneBuilder::new(t, pes).core_qos(ds_core()).seed(seed).build();
    let vpn = pn.new_vpn("acme");
    let (pa, pb) = (pfx("10.1.0.0/16"), pfx("10.2.0.0/16"));
    let a = pn.add_site(vpn, 0, pa, None);
    let b = pn.add_site(vpn, 1, pb, None);
    pn.run_for(0); // the MP-BGP updates land, then the VRFs verify
    pn.verify().assert_clean("ipsec-comparison MPLS reference");
    let sink = pn.attach_sink(b, pb);
    let flows = attach_mix(&mut pn.net, pn.sites[a.0].ce, pa, pb, 1, seed, duration);
    pn.run_for(duration + SEC);
    Q2Row {
        config: "MPLS VPN (DSCP→EXP)",
        rows: class_rows(&pn.net, sink, &flows),
        crypto_ns_per_pkt: 0,
        setup_ns: 0,
    }
}

/// Runs the IPsec baseline, with or without ToS copy.
fn measure_ipsec(duration: Nanos, seed: u64, copy_dscp: bool) -> Q2Row {
    let (t, _) = topo::dumbbell(10);
    let mut n = IpsecVpnNetwork::build(t, 1_000_000, ds_core());
    let (pa, pb) = (pfx("10.1.0.0/16"), pfx("10.2.0.0/16"));
    let a = n.add_gateway(0, pa, None);
    let b = n.add_gateway(3, pb, None);
    n.connect_gateways(a, b);
    n.set_dscp_copy(a, copy_dscp);
    n.set_dscp_copy(b, copy_dscp);
    let sink = n.attach_sink(b, pb);
    let gw_a = n.gateway_node(a);
    let flows = attach_mix(&mut n.net, gw_a, pa, pb, 1, seed, duration);
    n.net.run_until(duration + SEC);
    let rows = class_rows(&n.net, sink, &flows);
    let ga = n.net.node_ref::<IpsecGateway>(gw_a);
    let gb = n.net.node_ref::<IpsecGateway>(n.gateway_node(b));
    let delivered: u64 = rows.iter().map(|r| r.rx).sum();
    let crypto = (ga.crypto_ns + gb.crypto_ns) / delivered.max(1);
    Q2Row {
        config: if copy_dscp { "IPsec VPN + ToS copy" } else { "IPsec VPN (ESP, outer BE)" },
        rows,
        crypto_ns_per_pkt: crypto,
        setup_ns: n.ike_setup_ns,
    }
}

/// Runs all three configurations and renders the table.
pub fn run(quick: bool) -> String {
    let duration = if quick { SEC } else { 5 * SEC };
    let results = vec![
        measure_mpls(duration, 7),
        measure_ipsec(duration, 7, false),
        measure_ipsec(duration, 7, true),
    ];
    let mut out = String::new();
    for q in &results {
        let mut t = Table::new(
            format!(
                "Q2 [{}] — crypto {}/pkt, tunnel setup {} ms",
                q.config,
                if q.crypto_ns_per_pkt == 0 {
                    "0 ns".to_string()
                } else {
                    format!("{} ns", q.crypto_ns_per_pkt)
                },
                ms(q.setup_ns),
            ),
            &["class", "tx", "rx", "loss", "mean ms", "p99 ms", "jitter ms", "MOS", "voice SLA"],
        );
        for r in &q.rows {
            let sla = if r.class == "EF" {
                let s = Sla::voice();
                let met = r.mean_ns <= s.max_mean_latency_ns
                    && r.p99_ns <= s.max_p99_latency_ns
                    && r.jitter_ns <= s.max_jitter_ns
                    && r.loss <= s.max_loss
                    && r.rx > 0;
                if met { "MET" } else { "VIOLATED" }.to_string()
            } else {
                "-".into()
            };
            let mos = if r.class == "EF" {
                f2(mplsvpn_core::voice_mos(r.mean_ns, r.jitter_ns, r.loss))
            } else {
                "-".into()
            };
            t.row(&[
                r.class.to_string(),
                r.tx.to_string(),
                r.rx.to_string(),
                pct(r.loss),
                ms(r.mean_ns),
                ms(r.p99_ns),
                f2(r.jitter_ns / 1e6),
                mos,
                sla,
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ef(rows: &[ClassRow]) -> &ClassRow {
        rows.iter().find(|r| r.class == "EF").unwrap()
    }

    /// The §3 claim, end to end: the same DiffServ core that protects
    /// voice in the MPLS VPN cannot protect it behind plain ESP.
    #[test]
    fn esp_erases_class_treatment() {
        let mpls = measure_mpls(2 * SEC, 7);
        let esp = measure_ipsec(2 * SEC, 7, false);
        let v_mpls = ef(&mpls.rows);
        let v_esp = ef(&esp.rows);
        assert!(v_mpls.loss < 0.01, "mpls voice loss {}", v_mpls.loss);
        assert!(
            v_esp.loss > 5.0 * v_mpls.loss.max(1e-6) || v_esp.p99_ns > 3 * v_mpls.p99_ns.max(1),
            "esp voice should suffer: mpls={v_mpls:?} esp={v_esp:?}"
        );
    }

    /// ToS copy restores *class* treatment (partial mitigation) while still
    /// paying crypto time.
    #[test]
    fn tos_copy_restores_class_but_pays_crypto() {
        let copy = measure_ipsec(2 * SEC, 7, true);
        let v = ef(&copy.rows);
        assert!(v.loss < 0.02, "voice loss with copy {}", v.loss);
        assert!(copy.crypto_ns_per_pkt > 0);
        assert!(copy.setup_ns > 0, "IKE setup must be accounted");
    }
}
