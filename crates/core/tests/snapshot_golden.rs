//! The metrics snapshot is pinned byte for byte.
//!
//! One small scenario — a 3-node line with one VPN — makes each router
//! drop kind happen exactly once (`no_route`, `ttl`, `vrf_miss`) and
//! absorbs one packet at a PE, next to a little delivered traffic. Its
//! `metrics_snapshot().to_json()` must equal the checked-in file
//! `golden/metrics_snapshot.json`. A refactor of the telemetry
//! plumbing therefore cannot rename, add, drop or change a row unnoticed.
//! The golden file is edited by hand, and only when a row is meant to
//! change.

use mplsvpn_core::BackboneBuilder;
use netsim_net::addr::{ip, pfx};
use netsim_net::{Dscp, Layer, MplsLabel, Packet};
use netsim_routing::{LinkAttrs, Topology};
use netsim_sim::{IfaceId, SourceConfig, MSEC, SEC};

const GOLDEN: &str = include_str!("golden/metrics_snapshot.json");

fn probe(dst: &str, flow: u64) -> Packet {
    let mut pkt = Packet::udp(ip("10.1.0.7"), ip(dst), 7, 7, Dscp::BE, 200);
    pkt.meta.flow = flow;
    pkt
}

fn snapshot_json() -> String {
    // PE0 — P1 — PE2; P1's interface 0 faces PE0 and interface 1 faces PE2.
    let mut topo = Topology::new(3);
    let attrs = LinkAttrs { cost: 1, capacity_bps: 100_000_000 };
    topo.add_link(0, 1, attrs);
    topo.add_link(1, 2, attrs);
    let mut pn = BackboneBuilder::new(topo, vec![0, 2]).build();
    let vpn = pn.new_vpn("acme");
    let a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
    let b = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
    pn.attach_sink(b, pfx("10.2.0.0/16"));
    let cfg = SourceConfig::udp(1, pn.site_addr(a, 10), pn.site_addr(b, 9), 5000, 200);
    pn.attach_cbr_source(a, cfg, MSEC, Some(5));

    let ce_a = pn.sites[a.0].ce;
    let p = pn.backbone_node(1);
    // no_route at PE0: nothing in the VRF covers the destination.
    pn.net.inject(ce_a, IfaceId(0), probe("192.0.2.1", 101));
    // ttl at PE0: the probe arrives with TTL 1.
    let mut dying = probe("10.2.0.9", 102);
    dying.outer_ipv4_mut().expect("ipv4").ttl = 1;
    pn.net.inject(ce_a, IfaceId(0), dying);
    // vrf_miss at PE2: a VPN label it never advertised.
    let mut stray = probe("10.2.0.9", 103);
    stray.push_outer(Layer::Mpls(MplsLabel::new(1_000_000, 0, 64)));
    pn.net.inject(p, IfaceId(1), stray);
    // Absorbed at PE0: unlabeled traffic from the core is for the PE itself.
    pn.net.inject(p, IfaceId(0), probe("10.1.0.9", 105));

    pn.run_for(SEC);
    pn.metrics_snapshot().to_json()
}

#[test]
fn metrics_snapshot_matches_golden_file() {
    let got = snapshot_json();
    if got == GOLDEN {
        return;
    }
    let (want, have): (Vec<&str>, Vec<&str>) = (GOLDEN.lines().collect(), got.lines().collect());
    let mut diff = String::new();
    for i in 0..want.len().max(have.len()) {
        match (want.get(i), have.get(i)) {
            (Some(w), Some(h)) if w == h => {}
            (w, h) => {
                if let Some(w) = w {
                    diff.push_str(&format!("{:>4} - {w}\n", i + 1));
                }
                if let Some(h) = h {
                    diff.push_str(&format!("{:>4} + {h}\n", i + 1));
                }
            }
        }
    }
    if diff.is_empty() {
        diff.push_str("(lines agree; the files differ in line endings or the final newline)\n");
    }
    panic!("metrics snapshot differs from golden/metrics_snapshot.json:\n{diff}");
}
