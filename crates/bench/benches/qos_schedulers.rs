//! Criterion bench for the queueing disciplines: enqueue+dequeue cost per
//! packet for FIFO, RED, strict priority, WFQ, DRR, and CBQ (flat
//! and a link-sharing tree).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use netsim_net::addr::ip;
use netsim_net::{Dscp, Packet, Pkt};
use netsim_qos::{
    CbqNodeConfig, ClassOf, DrrScheduler, EnqueueOutcome, FifoQueue, HierCbq, PriorityScheduler,
    QueueDiscipline, RedParams, RedQueue, WfqScheduler,
};
use std::hint::black_box;

fn mk_pkt() -> Pkt {
    Packet::udp(ip("10.0.0.1"), ip("10.0.0.2"), 1, 2, Dscp::BE, 472).into()
}

fn by_flow() -> ClassOf {
    Box::new(|p: &Packet| p.meta.flow as usize % 4)
}

fn bench_qdisc(c: &mut Criterion, name: &str, mut q: Box<dyn QueueDiscipline>) {
    let mut g = c.benchmark_group("qdisc");
    g.throughput(Throughput::Elements(1));
    g.bench_function(name, |b| {
        // Packets are built before timing starts and every dequeued (or
        // dropped) box is re-enqueued, so the loop times the qdisc, not
        // packet construction. Only if a scheduler holds back the whole
        // pool does the loop build a packet.
        let mut pool: Vec<Pkt> = (0..64).map(|_| mk_pkt()).collect();
        let mut now = 0u64;
        let mut class = 0u64;
        b.iter(|| {
            now += 1_000;
            class = (class + 1) % 4;
            let mut pkt = pool.pop().unwrap_or_else(mk_pkt);
            pkt.meta.flow = class;
            if let EnqueueOutcome::Dropped(pkt, _) = q.enqueue(pkt, now) {
                pool.push(pkt);
            }
            if let Some(pkt) = black_box(q.dequeue(now)) {
                pool.push(pkt);
            }
        });
    });
    g.finish();
}

fn benches(c: &mut Criterion) {
    bench_qdisc(c, "fifo", Box::new(FifoQueue::new(1 << 20)));
    bench_qdisc(
        c,
        "red",
        Box::new(RedQueue::new(1 << 20, RedParams::new(64 << 10, 256 << 10), 7, 12_000)),
    );
    let bands: Vec<Box<dyn QueueDiscipline>> =
        (0..4).map(|_| Box::new(FifoQueue::new(1 << 18)) as Box<dyn QueueDiscipline>).collect();
    bench_qdisc(c, "priority4", Box::new(PriorityScheduler::new(bands, by_flow())));
    bench_qdisc(c, "wfq4", Box::new(WfqScheduler::new(&[1, 2, 4, 8], 1 << 18, by_flow())));
    bench_qdisc(
        c,
        "drr4",
        Box::new(DrrScheduler::new(&[1500, 3000, 6000, 12000], 1 << 18, by_flow())),
    );
    let cbq = HierCbq::new(
        (0..4)
            .map(|_| CbqNodeConfig {
                parent: None,
                rate_bps: 100_000_000,
                bounded: false,
                cap_bytes: 1 << 18,
            })
            .collect(),
        by_flow(),
    );
    bench_qdisc(c, "cbq4", Box::new(cbq));
    let tree = HierCbq::new(
        vec![
            CbqNodeConfig { parent: None, rate_bps: 1_000_000_000, bounded: true, cap_bytes: 0 },
            CbqNodeConfig { parent: Some(0), rate_bps: 600_000_000, bounded: true, cap_bytes: 0 },
            CbqNodeConfig {
                parent: Some(1),
                rate_bps: 200_000_000,
                bounded: false,
                cap_bytes: 1 << 18,
            },
            CbqNodeConfig {
                parent: Some(1),
                rate_bps: 400_000_000,
                bounded: false,
                cap_bytes: 1 << 18,
            },
            CbqNodeConfig {
                parent: Some(0),
                rate_bps: 400_000_000,
                bounded: false,
                cap_bytes: 1 << 18,
            },
            CbqNodeConfig {
                parent: Some(0),
                rate_bps: 100_000_000,
                bounded: false,
                cap_bytes: 1 << 18,
            },
        ],
        by_flow(),
    );
    bench_qdisc(c, "hier_cbq_tree", Box::new(tree));
}

criterion_group!(qdisc_benches, benches);
criterion_main!(qdisc_benches);
