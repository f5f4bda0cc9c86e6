//! Chaos harness: seeded random fault schedules against random backbone
//! shapes, checked for the invariants no failure order may break:
//!
//! 1. **Packet conservation** — every packet a source emitted is either
//!    delivered to a sink, dropped on a link (tail drop, cut-link flush,
//!    or down-interface refusal), dropped by a router (no route / TTL /
//!    VRF miss), absorbed by a control plane, or still queued when the
//!    clock stops.
//! 2. **Isolation** — two VPNs with *identical* (overlapping) address
//!    plans never leak a packet into each other's sinks, no matter which
//!    links flap in which order.
//! 3. **Determinism** — the same seed replays to bit-identical flow and
//!    link statistics.
//!
//! One failover model runs everywhere: the routers' control planes
//! converge around every fault, and even seeds also protect every link
//! with a fast-reroute bypass, whose upstream router holds its own repair
//! for a local convergence delay.
//!
//! Both control transports run too: every seed runs once over the
//! zero-latency oracle and once with in-band CS6 packets that share links
//! and queues with the data. The conservation ledger carries explicit
//! control-plane send/terminate terms under both.
//!
//! Seeds 8 and 9 run two carriers, two fishes or two ladders joined at
//! their ASBRs, with the VPN's sites in different carriers. Their faults
//! hit intra-domain links only, so the ASBRs' label stitches have to follow
//! every reroute inside a carrier.

use mplsvpn::routing::{Igp, LinkAttrs, Topology};
use mplsvpn::sim::{
    CbrSource, FaultPlan, LinkId, NodeId, PoissonSource, Sink, SourceConfig, MSEC, SEC,
};
use mplsvpn::vpn::{
    BackboneBuilder, ControlMode, DropCause, ProviderNetwork, VpnId, CTRL_FLOW_BASE,
};

/// One chaos run: a seed under one control mode.
#[derive(Clone, Copy)]
struct Case {
    seed: u64,
    control: ControlMode,
}

impl std::fmt::Display for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed {} ({:?})", self.seed, self.control)
    }
}

/// Seeds 0–9, each under both control modes.
fn cases() -> impl Iterator<Item = Case> {
    [ControlMode::Oracle, ControlMode::InBand]
        .into_iter()
        .flat_map(|control| (0..10).map(move |seed| Case { seed, control }))
}

/// Sources stop emitting here…
const TRAFFIC_END: u64 = 4 * SEC;
/// …and the simulator runs on to here so everything in flight lands.
const RUN_END: u64 = 6 * SEC;
/// A fault's reaction has played out this long after it lands: the 25 ms
/// detection, the flood and repair, and a point of local repair's 50 ms
/// hold. [`assert_at_rest`] checks that it has.
const SETTLE: u64 = 125 * MSEC;

/// The fish: 5 nodes, short path 0-1-4 over links {0,1}, long path over
/// {2,3,4}. Cutting any subset of the short path keeps the PEs connected.
fn fish() -> (Topology, Vec<usize>, Vec<usize>) {
    let mut t = Topology::new(5);
    let attrs = LinkAttrs { cost: 1, capacity_bps: 10_000_000 };
    for (u, v) in [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)] {
        t.add_link(u, v, attrs);
    }
    (t, vec![0, 4], vec![0, 1])
}

/// A 2×3 ladder: top rail 0-1-2, bottom rail 3-4-5, three rungs. PEs sit
/// at opposite corners (0 and 5). Links {0,1,5} (the top rail and middle
/// rung) can all fail without disconnecting 0 from 5 via 0-3-4-5.
fn ladder() -> (Topology, Vec<usize>, Vec<usize>) {
    let mut t = Topology::new(6);
    let attrs = LinkAttrs { cost: 1, capacity_bps: 10_000_000 };
    for (u, v) in [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)] {
        t.add_link(u, v, attrs);
    }
    (t, vec![0, 5], vec![0, 1, 5])
}

/// Two copies of a one-carrier shape as two carriers: A keeps the shape's
/// ids and B follows it, turned around, so that an inter-AS link joins A's
/// second PE to B's first, the ASBRs. PE ordinals 0 and 1 are the outer
/// PEs, 2 and 3 the ASBRs; both carriers' cuttable links stay cuttable.
/// Returns the topology, PEs, cuttable links and the domain of each node.
fn two_carriers(
    (one, pes, cuttable): (Topology, Vec<usize>, Vec<usize>),
) -> (Topology, Vec<usize>, Vec<usize>, Vec<usize>) {
    let (n, m) = (one.node_count(), one.link_count());
    let mut t = Topology::new(2 * n);
    for offset in [0, n] {
        for l in 0..m {
            let (u, v, attrs) = one.link(l);
            t.add_link(offset + u, offset + v, attrs);
        }
    }
    let (outer, asbr) = (pes[0], pes[1]);
    t.add_link(asbr, n + outer, one.link(0).2);
    let pes = vec![outer, n + asbr, asbr, n + outer];
    let cuttable = cuttable.iter().flat_map(|&l| [l, m + l]).collect();
    let domains = (0..2 * n).map(|u| u / n).collect();
    (t, pes, cuttable, domains)
}

/// Everything a scenario needs for its post-mortem.
struct Scenario {
    pn: ProviderNetwork,
    /// (source node, flow id) per attached source.
    sources: Vec<(NodeId, bool)>, // bool: true = CBR, false = Poisson
    /// Sink node and the flow ids that legitimately belong to it.
    sinks: Vec<(NodeId, Vec<u64>)>,
    /// Topology node of each PE ordinal.
    pes: Vec<usize>,
    /// Every VPN, each with a site on PE ordinals 0 and 1.
    vpns: Vec<VpnId>,
    /// The routing domain of each backbone node.
    domains: Vec<usize>,
}

/// Builds the seeded scenario and replays its fault plan to `RUN_END`.
fn run_scenario(case: Case) -> Scenario {
    run_checked(case, |_| {})
}

/// [`run_scenario`], calling `at_rest` at every quiescent point between
/// fault events: just before an event that lands more than [`SETTLE`]
/// after the previous one, once [`assert_at_rest`] has passed there. The
/// plan runs in groups split at those points, which replays exactly as
/// one run of the whole plan.
fn run_checked(case: Case, mut at_rest: impl FnMut(&Scenario)) -> Scenario {
    let seed = case.seed;
    let (topo, pes, cuttable, domains) = match seed {
        8 => two_carriers(fish()),
        9 => two_carriers(ladder()),
        _ => {
            let (topo, pes, cuttable) = if seed % 4 < 2 { fish() } else { ladder() };
            let domains = vec![0; topo.node_count()];
            (topo, pes, cuttable, domains)
        }
    };
    let mut pn = BackboneBuilder::new(topo, pes.clone())
        .domains(domains.clone())
        .detection(25 * MSEC)
        .control_mode(case.control)
        .build();

    // Two VPNs with the *same* address plan: the harshest isolation test.
    let mut sinks = Vec::new();
    let mut sources = Vec::new();
    let mut vpns = Vec::new();
    for (v, name) in ["red", "blue"].iter().enumerate() {
        let vpn = pn.new_vpn(*name);
        vpns.push(vpn);
        let a = pn.add_site(vpn, 0, "10.1.0.0/16".parse().unwrap(), None);
        let b = pn.add_site(vpn, 1, "10.2.0.0/16".parse().unwrap(), None);
        let sink = pn.attach_sink(b, "10.2.0.0/16".parse().unwrap());
        let base = 1000 * (v as u64 + 1);
        // A steady CBR flow and a seeded Poisson flow per VPN.
        let cbr = SourceConfig::udp(base, pn.site_addr(a, 1), pn.site_addr(b, 1), 16400, 160);
        let n = pn.attach_cbr_source(a, cbr, 10 * MSEC, Some(TRAFFIC_END / (10 * MSEC)));
        sources.push((n, true));
        let poi = SourceConfig::udp(base + 1, pn.site_addr(a, 2), pn.site_addr(b, 2), 443, 600);
        let n = pn.attach_poisson_source(a, poi, 5 * MSEC, seed ^ base, Some(TRAFFIC_END));
        sources.push((n, false));
        sinks.push((sink, vec![base, base + 1]));
    }

    if seed.is_multiple_of(2) {
        pn.protect_all_links();
    }

    // 4 flaps over the cuttable links, outages ≥ 200 ms, all inside the
    // traffic window so the faults actually bite.
    let plan = FaultPlan::random(seed, &cuttable, 3 * SEC, 4, 200 * MSEC);
    let events = plan.events();
    let mut s = Scenario { pn, sources, sinks, pes, vpns, domains };
    let mut start = 0;
    for end in 1..=events.len() {
        let next = events.get(end).map(|e| e.at);
        if next.is_some_and(|at| at - events[end - 1].at <= SETTLE) {
            continue;
        }
        let group = FaultPlan::new(events[start..end].to_vec());
        s.pn.execute_fault_plan(&group, next.unwrap_or(RUN_END));
        start = end;
        if next.is_some() {
            assert_at_rest(&s, case);
            at_rest(&s);
        }
    }
    s
}

/// Asserts that the fault reactions have played out: no control packet
/// is queued or in flight, and the routers' state equals a fresh
/// computation over the links that are up, inter-AS links excluded (one
/// per carrier): every SPF view, every PE-to-PE LSP through the live
/// LFIBs, and the tunnel every remote VRF route resolves to.
fn assert_at_rest(s: &Scenario, case: Case) {
    let t = s.pn.net.now();
    let rec = s.pn.recorder();
    let ctrl_dropped: u64 = (0..3).map(|proto| rec.flow_drops(CTRL_FLOW_BASE + proto)).sum();
    let (ctrl_sent, ctrl_terminated) =
        s.pn.control_stats().map_or((0, 0), |c| (c.pkts_sent, c.pkts_terminated));
    assert_eq!(
        ctrl_sent,
        ctrl_terminated + ctrl_dropped,
        "control packets still in the network at {case}, t={t}"
    );
    let down = s.pn.failed_links();
    let inter_as = |l: usize| {
        let (u, v, _) = s.pn.topo.link(l);
        s.domains[u] != s.domains[v]
    };
    let fresh = Igp::converge_filtered(&s.pn.topo, |l| !down.contains(&l) && !inter_as(l));
    for u in 0..s.pn.topo.node_count() {
        let (view, want) = (s.pn.effective_spf(u), fresh.tree(u));
        assert_eq!(
            (&view.dist, &view.next_hop),
            (&want.dist, &want.next_hop),
            "node {u}'s SPF view has not converged at {case}, t={t}"
        );
    }
    for (i, &ingress) in s.pes.iter().enumerate() {
        for (e, &egress) in s.pes.iter().enumerate().filter(|&(e, _)| e != i) {
            assert_eq!(
                s.pn.lsp_path(i, e),
                fresh.path(ingress, egress),
                "PE{i}'s LSP to PE{e} is not the fresh shortest path at {case}, t={t}"
            );
        }
        for &vpn in s.vpns.iter().filter(|&&vpn| s.pn.vrf_handle(i, vpn).is_some()) {
            for (prefix, row) in s.pn.vrf_digest(i, vpn) {
                let Some((e, _, path)) = row else { continue };
                assert_eq!(
                    path,
                    fresh.path(ingress, s.pes[e]),
                    "PE{i}'s route to {prefix} in {vpn:?} rides a stale tunnel at {case}, t={t}"
                );
            }
        }
    }
}

/// Every packet a router ended, from the flight recorder's per-node
/// tallies: `(dropped over every cause, absorbed)`.
fn router_terminations(s: &Scenario) -> (u64, u64) {
    let rec = s.pn.recorder();
    let backbone = (0..s.pn.topo.node_count()).map(|u| s.pn.backbone_node(u));
    let ces = s.pn.sites.iter().map(|site| site.ce);
    backbone.chain(ces).fold((0, 0), |(dropped, local), id| {
        let node_drops: u64 = DropCause::ALL.iter().map(|&c| rec.node_total(id.0, c)).sum();
        (dropped + node_drops, local + rec.node_absorbed(id.0))
    })
}

/// Asserts that every packet sent so far is delivered, dropped, absorbed,
/// terminated by the control plane, queued or still in flight.
fn assert_conserved(s: &Scenario, case: Case) {
    let sent: u64 = s
        .sources
        .iter()
        .map(|&(n, cbr)| {
            if cbr {
                s.pn.net.node_ref::<CbrSource>(n).tx.tx_packets
            } else {
                s.pn.net.node_ref::<PoissonSource>(n).tx.tx_packets
            }
        })
        .sum();
    let delivered: u64 =
        s.sinks.iter().map(|&(n, _)| s.pn.net.node_ref::<Sink>(n).total_packets).sum();
    let link_dropped: u64 = (0..s.pn.net.link_count())
        .flat_map(|l| (0..2).map(move |d| (l, d)))
        .map(|(l, d)| s.pn.net.link_stats(LinkId(l), d).dropped)
        .sum();
    let queued = s.pn.net.queued_packets() + s.pn.net.packets_in_flight();
    let (router_dropped, delivered_local) = router_terminations(s);
    // Control packets enter the same ledger: each one sent is terminated
    // at a router, lost on a cut link (already inside `link_dropped`), or
    // still queued or in flight.
    let (ctrl_sent, ctrl_terminated) =
        s.pn.control_stats().map_or((0, 0), |c| (c.pkts_sent, c.pkts_terminated));
    assert_eq!(
        sent + ctrl_sent,
        delivered + link_dropped + router_dropped + delivered_local + ctrl_terminated + queued,
        "conservation broke at {case}, t={}: sent={sent} ctrl_sent={ctrl_sent} \
         delivered={delivered} link_dropped={link_dropped} \
         router_dropped={router_dropped} local={delivered_local} \
         ctrl_terminated={ctrl_terminated} queued or in flight={queued}",
        s.pn.net.now()
    );
    assert!(sent > 0, "{case} generated no traffic");
}

#[test]
fn chaos_packet_conservation_holds_under_any_failure_order() {
    let mut rests = 0;
    for case in cases() {
        let s = run_checked(case, |s| {
            assert_conserved(s, case);
            rests += 1;
        });
        assert_eq!(s.pn.net.packets_in_flight(), 0, "packets in flight at the end, {case}");
        assert_conserved(&s, case);
        let delivered: u64 =
            s.sinks.iter().map(|&(n, _)| s.pn.net.node_ref::<Sink>(n).total_packets).sum();
        assert!(delivered > 0, "{case} delivered nothing — network dead");
    }
    assert!(rests >= 16, "only {rests} quiescent points between faults");
}

#[test]
fn chaos_every_loss_has_a_recorded_cause() {
    // 4. **Attribution** — the drops the flight recorder holds that no
    //    router reported (the link layer's) agree with the links' own
    //    drop counters, and per VPN every packet a source emitted is
    //    delivered, attributed to a cause, absorbed locally, or still
    //    queued. No loss may go unexplained.
    for case in cases() {
        let s = run_scenario(case);
        let link_dropped: u64 = (0..s.pn.net.link_count())
            .flat_map(|l| (0..2).map(move |d| (l, d)))
            .map(|(l, d)| s.pn.net.link_stats(LinkId(l), d).dropped)
            .sum();
        let (router_dropped, _local) = router_terminations(&s);
        let rec = s.pn.recorder().clone();
        assert_eq!(
            rec.total_drops() - router_dropped,
            link_dropped,
            "recorded link drops disagree with LinkStats at {case}: {:?}",
            rec.cause_rows()
        );

        let mut explained_deficit = 0u64;
        for (v, (sink_node, ids)) in s.sinks.iter().enumerate() {
            let sink = s.pn.net.node_ref::<Sink>(*sink_node);
            for (j, &flow) in ids.iter().enumerate() {
                let (src_node, cbr) = s.sources[2 * v + j];
                let sent = if cbr {
                    s.pn.net.node_ref::<CbrSource>(src_node).tx.tx_packets
                } else {
                    s.pn.net.node_ref::<PoissonSource>(src_node).tx.tx_packets
                };
                let rx = sink.flow(flow).map_or(0, |f| f.rx_packets);
                let attributed = rec.flow_drops(flow) + rec.absorbed_of(flow);
                let deficit = (sent - rx).checked_sub(attributed).unwrap_or_else(|| {
                    panic!(
                        "flow {flow} over-attributed at {case}: sent={sent} rx={rx} \
                         causes={:?} absorbed={}",
                        rec.flow_causes(flow),
                        rec.absorbed_of(flow)
                    )
                });
                explained_deficit += deficit;
            }
        }
        // Whatever is not delivered, dropped-with-cause, or absorbed must
        // still be sitting in a queue when the clock stops.
        assert_eq!(
            explained_deficit,
            s.pn.net.queued_packets(),
            "unexplained losses at {case}: {:?}",
            rec.cause_rows()
        );
    }
}

#[test]
fn chaos_live_tables_verify_clean_after_every_fault_plan() {
    // 5. **Verifier** — at every quiescent point between faults and after
    //    the fault plan has played out (bypass activations, held repairs,
    //    LSA/LDP repair over either transport), the static verifier finds
    //    nothing wrong with the live tables.
    let mut rests = 0;
    for case in cases() {
        let s = run_checked(case, |s| {
            s.pn.verify().assert_clean(&format!("chaos {case} at t={}", s.pn.net.now()));
            rests += 1;
        });
        s.pn.verify().assert_clean(&format!("chaos {case}"));
    }
    assert!(rests >= 16, "only {rests} quiescent points between faults");
}

#[test]
fn chaos_no_cross_vrf_delivery_ever() {
    for case in cases() {
        let s = run_scenario(case);
        let all_ids: Vec<u64> = s.sinks.iter().flat_map(|(_, ids)| ids.iter().copied()).collect();
        for (sink, own_ids) in &s.sinks {
            let sink = s.pn.net.node_ref::<Sink>(*sink);
            // Every packet this sink absorbed belongs to one of its own
            // flows: per-flow counts must add up to the absolute total.
            let own_rx: u64 =
                own_ids.iter().filter_map(|&id| sink.flow(id)).map(|f| f.rx_packets).sum();
            assert_eq!(own_rx, sink.total_packets, "foreign packets at a VRF sink, {case}");
            // And no foreign flow id ever materialized.
            for id in all_ids.iter().filter(|id| !own_ids.contains(id)) {
                assert!(sink.flow(*id).is_none(), "flow {id} leaked across VRFs, {case}");
            }
        }
    }
}

#[test]
fn chaos_replays_are_bit_identical() {
    for case in cases() {
        let sig_a = signature(run_scenario(case));
        let sig_b = signature(run_scenario(case));
        assert_eq!(sig_a, sig_b, "{case} did not replay identically");
    }
}

/// Full observable state of a finished scenario, suitable for equality.
fn signature(s: Scenario) -> Vec<(u64, u64, u64, u64)> {
    let mut sig = Vec::new();
    for (sink, ids) in &s.sinks {
        let sink = s.pn.net.node_ref::<Sink>(*sink);
        for &id in ids {
            let (rx, bytes, seq) =
                sink.flow(id).map_or((0, 0, 0), |f| (f.rx_packets, f.rx_bytes, f.max_seq));
            sig.push((id, rx, bytes, seq));
        }
    }
    for l in 0..s.pn.net.link_count() {
        for d in 0..2 {
            let st = s.pn.net.link_stats(LinkId(l), d);
            sig.push((l as u64, u64::from(d), st.tx_packets, st.dropped));
        }
    }
    sig
}
