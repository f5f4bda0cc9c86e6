//! **F4 — label swapping vs deep header inspection** (paper Figure 4, §3).
//!
//! "The labels enable routers and switches to forward traffic based on
//! information in the labels instead of having to inspect the various
//! fields deep within each and every packet. The less time devices spend
//! inspecting traffic, the more time they have to forward it."
//!
//! Micro: per-packet cost of an LPM trie lookup (IP forwarding) vs an ILM
//! label lookup + swap at FIB sizes from 1k to 100k entries. Macro: a
//! simulated P router forwarding the same flow labeled vs unlabeled, with
//! operation counters.

use std::hint::black_box;
use std::time::Instant;

use netsim_mpls::lfib::{LabelOp, Nhlfe};
use netsim_mpls::Lfib;
use netsim_net::{Ip, LpmTrie, Prefix};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::table::{f2, Table};

/// Builds a FIB of `k` random disjoint-ish prefixes and an LFIB of `k`
/// labels (deterministic per seed).
pub fn build_tables(k: usize, seed: u64) -> (LpmTrie<u32>, Lfib, Vec<Ip>, Vec<u32>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut fib = LpmTrie::new();
    let mut queries = Vec::with_capacity(k);
    for i in 0..k {
        let addr = Ip(rng.random_range(0u32..=u32::MAX));
        let len = rng.random_range(12u8..=24);
        fib.insert(Prefix::new(addr, len), i as u32);
        queries.push(Ip(addr.0 ^ rng.random_range(0u32..256)));
    }
    let mut lfib = Lfib::new();
    let mut labels = Vec::with_capacity(k);
    for i in 0..k {
        let label = 16 + i as u32;
        lfib.install(
            label,
            Nhlfe { op: LabelOp::Swap(16 + ((i as u32 + 1) % k as u32)), out_iface: i % 8 },
        );
        labels.push(label);
    }
    (fib, lfib, queries, labels)
}

/// One measurement point.
#[derive(Clone, Copy, Debug)]
pub struct FwdPoint {
    /// Table size.
    pub k: usize,
    /// LPM lookup cost, ns/op.
    pub lpm_ns: f64,
    /// Label lookup cost, ns/op.
    label_ns: f64,
}

/// Times both lookups over `iters` operations.
pub fn measure(k: usize, iters: usize) -> FwdPoint {
    let (fib, lfib, queries, labels) = build_tables(k, 42);
    let t0 = Instant::now();
    let mut acc = 0u64;
    for i in 0..iters {
        let q = queries[i % queries.len()];
        if let Some(&v) = fib.lookup(black_box(q)) {
            acc = acc.wrapping_add(u64::from(v));
        }
    }
    let lpm_ns = t0.elapsed().as_nanos() as f64 / iters as f64;
    black_box(acc);

    let t1 = Instant::now();
    let mut acc2 = 0usize;
    for i in 0..iters {
        let l = labels[i % labels.len()];
        if let Some(e) = lfib.lookup(black_box(l)) {
            acc2 = acc2.wrapping_add(e.out_iface);
        }
    }
    let label_ns = t1.elapsed().as_nanos() as f64 / iters as f64;
    black_box(acc2);
    FwdPoint { k, lpm_ns, label_ns }
}

/// In-simulator check: on the VPN path, P routers perform label operations
/// only — zero LPM lookups (paper: the core never inspects customer
/// headers). Returns (label ops, LPM lookups) at the P router.
fn core_router_ops() -> (u64, u64) {
    use mplsvpn_core::{BackboneBuilder, CoreRouter};
    use netsim_net::addr::pfx;
    use netsim_sim::{SourceConfig, MSEC, SEC};
    let (t, pes) = crate::topo::line(1, 1000);
    let mut pn = BackboneBuilder::new(t, pes).build();
    let vpn = pn.new_vpn("acme");
    let a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
    let b = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
    pn.run_for(0); // the MP-BGP updates land, then the VRFs verify
    pn.verify().assert_clean("forwarding experiment");
    pn.attach_sink(b, pfx("10.2.0.0/16"));
    let cfg = SourceConfig::udp(1, pn.site_addr(a, 1), pn.site_addr(b, 1), 5000, 200);
    pn.attach_cbr_source(a, cfg, MSEC, Some(200));
    pn.run_for(SEC);
    let p = pn.net.node_ref::<CoreRouter>(pn.backbone_node(1));
    (p.counters.label_ops, p.counters.lpm_lookups)
}

/// PHP ablation: per-packet label operations and LDP label state with and
/// without penultimate-hop popping, on a 3-hop backbone.
/// Returns rows of (config, egress-PE label ops, total backbone label ops,
/// LDP labels allocated).
fn php_ablation() -> Vec<(&'static str, u64, u64, u64)> {
    use mplsvpn_core::{BackboneBuilder, CoreRouter, PeRouter};
    use netsim_net::addr::pfx;
    use netsim_sim::{SourceConfig, MSEC, SEC};
    let mut rows = Vec::new();
    for (name, php) in [("PHP on", true), ("PHP off", false)] {
        let (t, pes) = crate::topo::line(2, 1000);
        let mut pn = BackboneBuilder::new(t, pes).php(php).build();
        let labels = pn.live_labels();
        let vpn = pn.new_vpn("acme");
        let a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
        let b = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
        pn.run_for(0); // the MP-BGP updates land, then the VRFs verify
        pn.verify().assert_clean("php ablation");
        pn.attach_sink(b, pfx("10.2.0.0/16"));
        let cfg = SourceConfig::udp(1, pn.site_addr(a, 1), pn.site_addr(b, 1), 5000, 200);
        pn.attach_cbr_source(a, cfg, MSEC, Some(100));
        pn.run_for(SEC);
        let egress_ops = pn.net.node_ref::<PeRouter>(pn.pe_node(1)).counters.label_ops;
        let p_ops: u64 = (1..=2)
            .map(|u| pn.net.node_ref::<CoreRouter>(pn.backbone_node(u)).counters.label_ops)
            .sum();
        rows.push((name, egress_ops, p_ops + egress_ops, labels));
    }
    rows
}

/// Runs the sweep and renders the table.
pub fn run(quick: bool) -> String {
    let sizes: Vec<usize> =
        if quick { vec![1_000, 10_000] } else { vec![1_000, 10_000, 50_000, 100_000] };
    let iters = if quick { 200_000 } else { 2_000_000 };
    let mut t = Table::new(
        "F4: per-packet forwarding decision cost — IP LPM vs MPLS label swap",
        &["FIB size", "LPM ns/op", "label ns/op", "speedup"],
    );
    for &k in &sizes {
        let p = measure(k, iters);
        t.row(&[
            k.to_string(),
            f2(p.lpm_ns),
            f2(p.label_ns),
            format!("{:.1}x", p.lpm_ns / p.label_ns),
        ]);
    }
    let (ops, lpm) = core_router_ops();
    let mut out = t.render();
    out.push_str(&format!(
        "in-simulator P router on the VPN path: {ops} label ops, {lpm} LPM lookups \
         (the core never inspects customer headers)\n\n"
    ));
    let mut abl = Table::new(
        "F4b: PHP ablation — 100 packets over a 3-hop backbone",
        &["config", "egress PE label ops", "backbone label ops", "LDP labels"],
    );
    for (name, egress, total, labels) in php_ablation() {
        abl.row(&[name.into(), egress.to_string(), total.to_string(), labels.to_string()]);
    }
    out.push_str(&abl.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_lookup_beats_lpm_at_scale() {
        let p = measure(50_000, 300_000);
        assert!(
            p.label_ns < p.lpm_ns,
            "label swap must be cheaper: label={} lpm={}",
            p.label_ns,
            p.lpm_ns
        );
    }

    #[test]
    fn core_does_pure_label_switching() {
        let (ops, lpm) = core_router_ops();
        assert_eq!(lpm, 0);
        assert_eq!(ops, 200);
    }

    /// PHP saves exactly one label operation per packet at the egress PE
    /// (the paper's §4 architecture implies the pop is free for the edge
    /// when the penultimate hop does it).
    #[test]
    fn php_saves_an_egress_operation_per_packet() {
        let rows = php_ablation();
        let (on, off) = (&rows[0], &rows[1]);
        // With PHP: egress PE only pops the VPN label (1 op/packet).
        assert_eq!(on.1, 100);
        // Without: tunnel pop + VPN pop (2 ops/packet).
        assert_eq!(off.1, 200);
        // And PHP needs fewer allocated labels (no egress binding).
        assert!(on.3 < off.3, "php labels {} !< non-php {}", on.3, off.3);
    }

    #[test]
    fn tables_resolve_their_own_keys() {
        let (fib, lfib, _q, labels) = build_tables(1000, 7);
        assert_eq!(fib.len(), fib.iter().count());
        for &l in &labels {
            assert!(lfib.lookup(l).is_some());
        }
    }
}
