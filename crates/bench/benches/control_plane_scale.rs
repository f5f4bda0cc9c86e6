//! Criterion bench for control-plane convergence: a provider network's
//! cold restart (every router's SPF and LDP bring-up) over growing rings,
//! IGP SPF, and BGP/VPN route distribution and withdrawal — the costs
//! behind experiments T1 and M1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mplsvpn_core::membership::site_prefix;
use mplsvpn_core::BackboneBuilder;
use netsim_routing::igp::spf;
use netsim_routing::{
    BgpVpnFabric, Igp, LinkAttrs, RouteDistinguisher, RouteTarget, Topology, VrfHandle,
};
use std::hint::black_box;

fn ring(n: usize) -> Topology {
    Topology::ring(n, LinkAttrs { cost: 1, capacity_bps: 1_000_000_000 })
}

fn bench_ldp(c: &mut Criterion) {
    let mut g = c.benchmark_group("ldp_convergence");
    for &n in &[8usize, 32, 128] {
        // Every router a PE, so every one is an LDP egress.
        let mut pn = BackboneBuilder::new(ring(n), (0..n).collect()).build();
        g.bench_with_input(BenchmarkId::new("ring_all_fecs", n), &n, |b, _| {
            b.iter(|| {
                pn.reconverge();
                black_box(pn.live_labels())
            });
        });
    }
    g.finish();
}

/// The 2×5 ladder the `control` perfbench workload churns: rails 0-2-4-6-8
/// and 1-3-5-7-9 (links 0–7) joined by five rungs (links 8–12).
fn ladder() -> Topology {
    let mut t = Topology::new(10);
    let attrs = LinkAttrs { cost: 1, capacity_bps: 1_000_000_000 };
    let rails = [(0, 2), (2, 4), (4, 6), (6, 8), (1, 3), (3, 5), (5, 7), (7, 9)];
    for (u, v) in rails.into_iter().chain([(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]) {
        t.add_link(u, v, attrs);
    }
    t
}

fn bench_spf(c: &mut Criterion) {
    let mut g = c.benchmark_group("igp_spf");
    for &n in &[16usize, 64, 256] {
        let topo = ring(n);
        g.bench_with_input(BenchmarkId::new("full_convergence", n), &n, |b, _| {
            b.iter(|| black_box(Igp::converge(black_box(&topo))));
        });
    }
    // One router's SPF run as the in-band control plane does it: a single
    // root, a warm tree recomputed in place, the middle rung down.
    let topo = ladder();
    let mut tree = spf(&topo, 0);
    g.bench_function("ladder_2x5_in_place", |b| {
        b.iter(|| {
            tree.recompute(black_box(&topo), 0, |l| l != 10);
            black_box(&tree);
        });
    });
    g.finish();
}

fn bench_bgp(c: &mut Criterion) {
    let mut g = c.benchmark_group("bgp_vpn");
    for &sites in &[100usize, 1000] {
        g.bench_with_input(BenchmarkId::new("advertise_sites", sites), &sites, |b, &sites| {
            b.iter(|| {
                let mut f = BgpVpnFabric::new(8);
                let (rt, rd) = (RouteTarget(1), RouteDistinguisher::new(65000, 1));
                let handles: Vec<_> =
                    (0..8).map(|pe| f.add_vrf(pe, rd, vec![rt], vec![rt]).0).collect();
                for i in 0..sites {
                    f.advertise(handles[i % 8], site_prefix(i));
                }
                black_box(f)
            });
        });
    }
    // One site's /24 advertised and withdrawn in a fabric of 4 VPNs × 6
    // PEs whose 24 VRFs each already import their VPN's other five sites:
    // the withdraw visits the five VRFs that hold the route, not all 24.
    let mut f = BgpVpnFabric::new(6);
    for vpn in 0..4u32 {
        let rt = RouteTarget(u64::from(vpn) + 1);
        for pe in 0..6 {
            let (h, _) = f.add_vrf(pe, RouteDistinguisher::new(65000, vpn + 1), vec![rt], vec![rt]);
            f.advertise(h, site_prefix(vpn as usize * 6 + pe));
        }
    }
    let origin = VrfHandle { pe: 0, index: 0 }; // VPN 0's VRF on PE 0
    g.bench_function("withdraw_24_vrfs", |b| {
        b.iter(|| {
            let (label, _) = black_box(f.advertise(origin, site_prefix(24)));
            black_box(f.withdraw(origin, site_prefix(24), label))
        });
    });
    g.finish();
}

criterion_group!(cp_benches, bench_ldp, bench_spf, bench_bgp);
criterion_main!(cp_benches);
