//! Differential test: the label walk takes the step the packets take.
//!
//! On random 2-edge-connected backbones (a ring plus chords) with every
//! link protected by a fast-reroute bypass, random links are cut in the
//! engine, and a random subset of their ends has its failure detector's
//! down bit set in the LFIB; no detection timer runs, so detected and
//! blind ends occur side by side. Every PE then sends one labelled probe
//! per FTN toward another PE and per remote VRF route, with the hop trace
//! on, and `netsim_mpls::walk` follows the same stack over the same live
//! tables. The backbone nodes the probe visits must be the walk's path,
//! and where the probe ends must be where the walk stops.

use mplsvpn::mpls::walk::{walk, LabelTables, Stop, Walk};
use mplsvpn::mpls::Lfib;
use mplsvpn::net::{Dscp, Ip, Layer, MplsLabel, Packet};
use mplsvpn::routing::{LinkAttrs, Topology};
use mplsvpn::sim::{IfaceId, LinkId, MSEC};
use mplsvpn::verify::LabelPlane;
use mplsvpn::vpn::router::VrfRoute;
use mplsvpn::vpn::{BackboneBuilder, CoreRouter, DropCause, PeRouter, ProviderNetwork};
use proptest::prelude::*;

/// A ring over `n` nodes plus chords, costs 1–3, no parallel links.
fn arb_backbone() -> impl Strategy<Value = Topology> {
    (4usize..8)
        .prop_flat_map(|n| {
            let ring = proptest::collection::vec(1u64..4, n);
            let chords = proptest::collection::vec((0..n, 0..n, 1u64..4), 0..n);
            (Just(n), ring, chords)
        })
        .prop_map(|(n, ring, chords)| {
            let mut t = Topology::new(n);
            let add = |t: &mut Topology, u: usize, v: usize, cost: u64| {
                if u != v && t.link_between(u, v).is_none() {
                    t.add_link(u, v, LinkAttrs { cost, capacity_bps: 100_000_000 });
                }
            };
            for (u, &cost) in ring.iter().enumerate() {
                add(&mut t, u, (u + 1) % n, cost);
            }
            for (u, v, cost) in chords {
                add(&mut t, u, v, cost);
            }
            t
        })
}

/// One cut: a link (by index, modulo the link count) and whether each of
/// its two ends has detected it.
type Cut = (usize, bool, bool);

fn arb_cuts() -> impl Strategy<Value = Vec<Cut>> {
    proptest::collection::vec((any::<usize>(), any::<bool>(), any::<bool>()), 1..4)
}

/// `u`'s LFIB, PE or P alike.
fn lfib_mut(pn: &mut ProviderNetwork, u: usize, pe: bool) -> &mut Lfib {
    let id = pn.backbone_node(u);
    if pe {
        &mut pn.net.node_mut::<PeRouter>(id).lfib
    } else {
        &mut pn.net.node_mut::<CoreRouter>(id).lfib
    }
}

/// A probe: the stack a PE imposes over a packet to `dst` for `egress`,
/// the interface it sends on, and what the walk says of it.
struct Probe {
    flow: u64,
    origin: usize,
    egress: usize,
    dst: Ip,
    push: Vec<u32>,
    out_iface: usize,
    walk: Walk,
}

/// Where a probe ended, read from the trace and the flight recorder.
#[derive(Debug, PartialEq, Eq)]
enum End {
    /// Absorbed at this node, or sent on to a site by this PE.
    Delivered(usize),
    /// Lost on the link out of this node.
    Lost(usize),
    /// Discarded by this node's handler.
    Discarded(usize),
    /// Its TTL expired, or it still circulates (which [`check`] rejects).
    Looped,
}

/// The walk's stop, in the terms of a packet's end.
fn expected_end(stop: Stop) -> End {
    match stop {
        Stop::Delivered(n) => End::Delivered(n),
        Stop::NoLink(n, _) => End::Lost(n),
        Stop::NoIlm(n, _) | Stop::Dispatched(n, _, _) => End::Discarded(n),
        Stop::HopLimit(_) => End::Looped,
    }
}

/// The backbone nodes the probe visited and where it ended.
fn traced(pn: &ProviderNetwork, names: &[String], flow: u64) -> (Vec<usize>, End) {
    let node_of = |device: &str| names.iter().position(|n| n == device);
    let hops: Vec<(usize, usize)> = pn
        .net
        .trace()
        .expect("trace on")
        .flow(flow)
        .iter()
        .filter_map(|r| Some((node_of(&r.device)?, r.iface.0)))
        .collect();
    let mut path: Vec<usize> = hops.iter().map(|&(n, _)| n).collect();
    let rec = pn.net.recorder().expect("recorder on");
    let causes = rec.flow_causes(flow);
    let &(last, iface) = hops.last().expect("the origin sent the probe");
    if causes[DropCause::Ttl.index()] > 0 {
        return (path, End::Looped);
    }
    let Some(next) = pn.far_end(last, iface) else {
        // The egress PE sent it into a site.
        return (path, End::Delivered(last));
    };
    if !pn.link_up(last, iface) {
        assert!(causes[DropCause::LinkDownPurge.index()] > 0, "flow {flow}");
        return (path, End::Lost(last));
    }
    path.push(next);
    let discarded = [DropCause::NoRoute, DropCause::VrfMiss].iter().any(|c| causes[c.index()] > 0);
    let end = if rec.absorbed_of(flow) > 0 {
        End::Delivered(next)
    } else if discarded {
        End::Discarded(next)
    } else {
        End::Looped
    };
    (path, end)
}

fn check(topo: Topology, pe_seed: u64, php: bool, cuts: Vec<Cut>) -> Result<(), String> {
    let n = topo.node_count();
    // Two or three distinct PEs: the first nodes of a seeded shuffle.
    let mut pes: Vec<usize> = (0..n).collect();
    pes.sort_by_key(|&u| (u as u64 + 1).wrapping_mul(pe_seed | 1).rotate_left(29));
    pes.truncate(2 + (pe_seed % 2) as usize);
    let mut pn = BackboneBuilder::new(topo, pes.clone()).php(php).build();
    pn.protect_all_links();
    let vpn = pn.new_vpn("acme");
    for k in 0..pes.len() {
        let prefix = format!("10.{k}.0.0/16").parse().unwrap();
        pn.add_site(vpn, k, prefix, None);
    }
    pn.run_for(0);
    for &(l, near, far) in &cuts {
        let l = l % pn.topo.link_count();
        pn.net.set_link_enabled(LinkId(l), false);
        let (u, v, _) = pn.topo.link(l);
        for (end, marked) in [(u, near), (v, far)] {
            if marked {
                let other = if end == u { v } else { u };
                let iface = pn.topo.iface_toward(end, other);
                lfib_mut(&mut pn, end, pes.contains(&end)).set_iface_down(iface, true);
            }
        }
    }

    let names: Vec<String> = (0..n).map(|u| pn.node_name(u)).collect();
    let mut probes = Vec::new();
    let mut probe = |pn: &ProviderNetwork, origin, egress, dst, push: Vec<u32>, out_iface| {
        let walk = walk(pn, origin, &push, out_iface);
        let flow = 1 + probes.len() as u64;
        probes.push(Probe { flow, origin, egress, dst, push, out_iface, walk });
    };
    for (k, &origin) in pes.iter().enumerate() {
        let pe = pn.net.node_ref::<PeRouter>(pn.pe_node(k));
        for f in (0..pes.len()).filter(|&f| f != k) {
            if let Some(ftn) = pn.view_tunnel(k, f) {
                let push = ftn.push.into_iter().collect();
                probe(&pn, origin, pes[f], Ip(0), push, ftn.out_iface);
            }
        }
        for (prefix, route) in pe.vrfs[0].fib.iter() {
            let VrfRoute::Remote { vpn_label, egress_pe, .. } = route else { continue };
            let Some(tunnel) = PeRouter::resolve_tunnel(&pe.tunnels, route) else { continue };
            let mut push = vec![*vpn_label];
            push.extend(tunnel.push);
            probe(&pn, origin, pes[*egress_pe], prefix.nth(1), push, tunnel.out_iface);
        }
    }
    pn.net.enable_trace();
    for p in &probes {
        let mut pkt = Packet::udp(Ip(0x0a00_0001), p.dst, 1, 2, Dscp::EF, 100);
        for &label in &p.push {
            pkt.push_outer(Layer::Mpls(MplsLabel::new(label, 5, 255)));
        }
        pkt.meta.flow = p.flow;
        // The PE's ingress: the bypass in force on the first hop, if any.
        let k = pes.iter().position(|&u| u == p.origin).unwrap();
        let lfib = &pn.net.node_ref::<PeRouter>(pn.pe_node(k)).lfib;
        let out = match lfib.bypass(p.out_iface) {
            Some(bypass) => lfib.impose_bypass(&mut pkt, bypass),
            None => p.out_iface,
        };
        pn.net.inject(pn.backbone_node(p.origin), IfaceId(out), pkt);
    }
    pn.run_for(400 * MSEC);

    for p in &probes {
        let (path, end) = traced(&pn, &names, p.flow);
        let want = expected_end(p.walk.stop);
        let ctx = || format!("probe {} from {} {:?}: walk {:?}", p.flow, p.origin, p.push, p.walk);
        if end != want {
            return Err(format!("{}: the packet's end is {end:?}, the walk's {want:?}", ctx()));
        }
        let same = if end == End::Looped {
            let common = path.len().min(p.walk.path.len());
            path[..common] == p.walk.path[..common]
        } else {
            path == p.walk.path
        };
        if !same {
            return Err(format!("{}: the packet visited {path:?}", ctx()));
        }
        // A loop between bypasses is bounded: every label over the packet
        // carries the TTL of what it covers, so the probe dies by TTL.
        let causes = pn.net.recorder().expect("recorder on").flow_causes(p.flow);
        if end == End::Looped && causes[DropCause::Ttl.index()] == 0 {
            return Err(format!("{}: still circulating after 400 ms on {path:?}", ctx()));
        }
        // The label plane is consistent: a probe reaches its egress, dies
        // on a cut no one has detected, or loops between bypasses.
        if matches!(end, End::Discarded(_)) || matches!(end, End::Delivered(n) if n != p.egress) {
            return Err(format!("{}: {end:?} instead of reaching node {}", ctx(), p.egress));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_walk_takes_the_step_the_packets_take(
        topo in arb_backbone(),
        pe_seed in any::<u64>(),
        php in any::<bool>(),
        cuts in arb_cuts(),
    ) {
        if let Err(e) = check(topo, pe_seed, php, cuts) {
            panic!("{e}");
        }
    }
}
