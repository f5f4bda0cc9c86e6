//! Criterion bench for the queueing disciplines: enqueue+dequeue cost per
//! packet for FIFO, RED, strict priority, WFQ, DRR, and CBQ (flat
//! and a link-sharing tree), and the cost of one packet through an idle
//! egress, by `admit` and by its definition.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mplsvpn_core::network::{make_core_qdisc, DsSched};
use mplsvpn_core::CoreQos;
use netsim_net::addr::ip;
use netsim_net::{Dscp, Layer, MplsLabel, Packet, Pkt};
use netsim_qos::{
    enqueue_then_dequeue, Admit, CbqNodeConfig, ClassOf, DrrScheduler, EnqueueOutcome, FifoQueue,
    HierCbq, Nanos, PriorityScheduler, QueueDiscipline, RedParams, RedQueue, WfqScheduler,
};
use std::hint::black_box;

fn mk_pkt() -> Pkt {
    Packet::udp(ip("10.0.0.1"), ip("10.0.0.2"), 1, 2, Dscp::BE, 472).into()
}

/// A packet under one label, whose EXP the qdisc loop sets to the class.
fn mk_labelled() -> Pkt {
    let mut p = mk_pkt();
    p.push_outer(Layer::Mpls(MplsLabel::new(16, 0, 64)));
    p
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
        let mut pool: Vec<Pkt> = (0..64).map(|_| mk_labelled()).collect();
        let mut now = 0u64;
        let mut class = 0u64;
        b.iter(|| {
            now += 1_000;
            class = (class + 1) % 4;
            let mut pkt = pool.pop().unwrap_or_else(mk_labelled);
            // CBQ leaves read the flow; the other schedulers read the EXP.
            pkt.meta.flow = class;
            if let Some(Layer::Mpls(l)) = pkt.outer_mut() {
                l.exp = class as u8;
            }
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

/// One packet through an idle egress: offered to the empty discipline
/// `q` and sent at once, by `admit` (what the link model calls) and by
/// `enqueue_then_dequeue` (its definition). The packet is AF21, so the
/// core profile's priority scheduler hands it to a RED band.
fn bench_idle_egress(c: &mut Criterion, name: &str, mut q: Box<dyn QueueDiscipline>) {
    type Offer = fn(&mut dyn QueueDiscipline, Pkt, Nanos) -> Admit;
    let by_admit: Offer = |q, pkt, now| q.admit(pkt, now);
    let by_definition: Offer = |q, pkt, now| enqueue_then_dequeue(q, pkt, now);
    let mut g = c.benchmark_group("idle_egress");
    g.throughput(Throughput::Elements(1));
    for (how, offer) in [("admit", by_admit), ("enqueue_then_dequeue", by_definition)] {
        g.bench_function(format!("{name}/{how}"), |b| {
            let mut pkt = Some(mk_pkt());
            pkt.as_mut().and_then(|p| p.outer_ipv4_mut()).expect("ipv4").dscp = Dscp::AF21;
            let mut now = 0u64;
            b.iter(|| {
                now += 1_000;
                let Admit::Transmit(p) = offer(q.as_mut(), pkt.take().expect("sent"), now) else {
                    panic!("an idle egress sends the packet at once");
                };
                pkt = Some(black_box(p));
            });
        });
    }
    g.finish();
}

fn benches(c: &mut Criterion) {
    bench_idle_egress(c, "fifo", Box::new(FifoQueue::new(1 << 20)));
    let diffserv = CoreQos::DiffServ { cap_bytes: 1 << 20, sched: DsSched::Priority };
    bench_idle_egress(c, "diffserv_priority", make_core_qdisc(&diffserv, 1));
    bench_qdisc(c, "fifo", Box::new(FifoQueue::new(1 << 20)));
    bench_qdisc(
        c,
        "red",
        Box::new(RedQueue::new(1 << 20, RedParams::new(64 << 10, 256 << 10), 7, 12_000)),
    );
    let bands: Vec<Box<dyn QueueDiscipline>> =
        (0..4).map(|_| Box::new(FifoQueue::new(1 << 18)) as Box<dyn QueueDiscipline>).collect();
    bench_qdisc(c, "priority4", Box::new(PriorityScheduler::new(bands)));
    bench_qdisc(c, "wfq4", Box::new(WfqScheduler::new(&[1, 2, 4, 8], 1 << 18)));
    bench_qdisc(c, "drr4", Box::new(DrrScheduler::new(&[1500, 3000, 6000, 12000], 1 << 18)));
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
