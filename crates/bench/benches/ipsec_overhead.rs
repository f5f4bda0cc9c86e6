//! Criterion bench for the IPsec substrate: ESP encapsulate/decapsulate at
//! several packet sizes — the simulator's own per-packet cost of the
//! tunnel, beside the modelled crypto cost behind the paper's §3.1
//! performance concern.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use netsim_ipsec::{decapsulate, encapsulate, SecurityAssociation};
use netsim_net::addr::ip;
use netsim_net::{Dscp, Packet};
use std::hint::black_box;

fn sa() -> SecurityAssociation {
    SecurityAssociation::new(0x1001, 0xAAAA_BBBB_CCCC_DDDD, 0x1234_5678_9ABC_DEF0)
}

fn bench_esp(c: &mut Criterion) {
    let mut g = c.benchmark_group("esp");
    for &payload in &[64usize, 512, 1400] {
        let inner = Packet::udp(ip("10.1.0.5"), ip("10.2.0.9"), 16000, 16400, Dscp::EF, payload);
        g.throughput(Throughput::Bytes(inner.wire_len() as u64));
        g.bench_with_input(BenchmarkId::new("encapsulate", payload), &payload, |b, _| {
            let mut tx = sa();
            b.iter(|| {
                black_box(encapsulate(black_box(&inner), &mut tx, ip("1.1.1.1"), ip("2.2.2.2")))
            });
        });
        g.bench_with_input(BenchmarkId::new("decapsulate", payload), &payload, |b, _| {
            // Encapsulate once; use a fresh receive SA per iteration so the
            // anti-replay window accepts the packet every time.
            let mut tx = sa();
            let outer = encapsulate(&inner, &mut tx, ip("1.1.1.1"), ip("2.2.2.2"));
            b.iter(|| {
                let mut rx = sa();
                black_box(decapsulate(black_box(&outer), &mut rx).expect("decap"))
            });
        });
    }
    g.finish();
}

criterion_group!(ipsec_benches, bench_esp);
criterion_main!(ipsec_benches);
