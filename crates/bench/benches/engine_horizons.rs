//! Criterion bench for the event calendar at the model's hop delays. Eight
//! CBR sources each feed a chain of six relays into a black hole, as
//! perfbench's engine row does over 100 µs links; here every link of a
//! case takes 10 µs (a host link), 100 µs (an access link), 1 ms (a
//! backbone hop) or 20 ms, past the calendar's ring. Each iteration builds
//! the chains and runs them to quiescence, and the throughput counts
//! calendar events, so ns per event is 10^9 over the printed rate.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use netsim_net::{Ip, Pkt};
use netsim_sim::node::BlackHole;
use netsim_sim::{CbrSource, Ctx, IfaceId, LinkConfig, Network, Node, SourceConfig};

/// Forwards every packet out of the other of its two interfaces.
struct Relay;

impl Node for Relay {
    fn on_packet(&mut self, iface: IfaceId, pkt: Pkt, ctx: &mut Ctx) {
        ctx.send(IfaceId(1 - iface.0), pkt);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Eight chains of 2 500 packets about 40 µs apart, over 1 Gb/s links of
/// `delay_ns`, started at time zero.
fn relay_chains(delay_ns: u64) -> Network {
    let mut net = Network::new();
    let link = LinkConfig::new(1_000_000_000, delay_ns);
    for chain in 0..8u64 {
        let cfg = SourceConfig::udp(chain, Ip(0x0A00_0001), Ip(0x0A00_0002), 5000, 472);
        let src = net.add_node(Box::new(CbrSource::new(cfg, 40_000 + chain, Some(2_500))));
        net.arm_timer(src, 0, 0);
        let mut prev = src;
        for _ in 0..6 {
            let relay = net.add_node(Box::new(Relay));
            net.connect(prev, relay, link);
            prev = relay;
        }
        let end = net.add_node(Box::new(BlackHole::default()));
        net.connect(prev, end, link);
    }
    net
}

fn bench_horizons(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_horizons");
    for (name, delay_ns) in [
        ("host_10us", 10_000),
        ("access_100us", 100_000),
        ("backbone_1ms", 1_000_000),
        ("far_20ms", 20_000_000),
    ] {
        g.throughput(Throughput::Elements(relay_chains(delay_ns).run_to_quiescence()));
        g.bench_function(name, |b| b.iter(|| relay_chains(delay_ns).run_to_quiescence()));
    }
    g.finish();
}

criterion_group!(benches, bench_horizons);
criterion_main!(benches);
