//! Criterion bench for experiment F4: longest-prefix-match lookup vs MPLS
//! label lookup/swap, across FIB sizes. Two more cases price the route
//! cache the routers look up through: a hit, and 17 interleaved
//! destinations, more than its 16 ways, so some evict each other on every
//! round. F4's table times the uncached walk.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mplsvpn_bench::experiments::forwarding::build_tables;
use netsim_net::addr::ip;
use netsim_net::{Dscp, Layer, LpmCache, MplsLabel, Packet};
use std::hint::black_box;

fn bench_lookups(c: &mut Criterion) {
    let mut g = c.benchmark_group("forwarding_decision");
    for &k in &[1_000usize, 10_000, 100_000] {
        let (fib, lfib, queries, labels) = build_tables(k, 42);
        g.throughput(Throughput::Elements(1));
        g.bench_with_input(BenchmarkId::new("lpm_lookup", k), &k, |b, _| {
            let mut i = 0;
            b.iter(|| {
                let q = queries[i % queries.len()];
                i += 1;
                black_box(fib.lookup(black_box(q)))
            });
        });
        g.bench_with_input(BenchmarkId::new("lpm_cached_hit", k), &k, |b, _| {
            let mut cache = LpmCache::default();
            b.iter(|| black_box(fib.lookup_cached(black_box(queries[0]), &mut cache)));
        });
        g.bench_with_input(BenchmarkId::new("lpm_cached_17_interleaved", k), &k, |b, _| {
            let mut cache = LpmCache::default();
            let mut i = 0;
            b.iter(|| {
                let q = queries[i % 17];
                i += 1;
                black_box(fib.lookup_cached(black_box(q), &mut cache))
            });
        });
        g.bench_with_input(BenchmarkId::new("label_lookup", k), &k, |b, _| {
            let mut i = 0;
            b.iter(|| {
                let l = labels[i % labels.len()];
                i += 1;
                black_box(lfib.lookup(black_box(l)))
            });
        });
    }
    g.finish();
}

fn bench_full_swap(c: &mut Criterion) {
    // The complete per-packet LSR operation including TTL and stack edit.
    let (_, lfib, _, labels) = build_tables(10_000, 42);
    let mut g = c.benchmark_group("lsr_packet_op");
    g.throughput(Throughput::Elements(1));
    g.bench_function("lfib_forward_swap", |b| {
        // One labeled packet, reused: each iteration rewrites its top entry
        // in place (fresh label, TTL reset) instead of building a packet.
        let mut p = Packet::udp(ip("10.0.0.1"), ip("10.0.0.2"), 1, 2, Dscp::EF, 256);
        p.push_outer(Layer::Mpls(MplsLabel::new(labels[0], 5, 64)));
        let mut i = 0;
        b.iter(|| {
            if let Some(Layer::Mpls(top)) = p.outer_mut() {
                *top = MplsLabel::new(labels[i % labels.len()], 5, 64);
            }
            i += 1;
            black_box(lfib.forward(black_box(&mut p)))
        });
    });
    g.finish();
}

criterion_group!(benches, bench_lookups, bench_full_swap);
criterion_main!(benches);
