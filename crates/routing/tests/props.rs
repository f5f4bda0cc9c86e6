//! Property-based tests for routing: SPF against Floyd–Warshall and
//! Bellman–Ford reference models on random weighted graphs, and BGP/VPN
//! fabric invariants under random VRF/route scripts, including the route
//! reflector against a full-scan reference.

use std::collections::{BTreeMap, BTreeSet};

use netsim_net::{Ip, Prefix};
use netsim_routing::igp::spf_filtered;
use netsim_routing::{
    cspf_path, BgpVpnFabric, Igp, LinkAttrs, RemoteRoute, RouteChange, RouteDistinguisher,
    RouteTarget, Topology, VrfHandle,
};
use proptest::prelude::*;

/// Random connected weighted topology: spanning tree + extras.
fn arb_topo(max_n: usize) -> impl Strategy<Value = Topology> {
    (2..max_n)
        .prop_flat_map(|n| {
            let tree = proptest::collection::vec((any::<u64>(), 1u64..20), n - 1);
            let extra = proptest::collection::vec((0..n, 0..n, 1u64..20), 0..n);
            (Just(n), tree, extra)
        })
        .prop_map(|(n, tree, extra)| {
            let mut t = Topology::new(n);
            for (i, (r, cost)) in tree.iter().enumerate() {
                let u = i + 1;
                let v = (*r as usize) % u;
                t.add_link(u, v, LinkAttrs { cost: *cost, capacity_bps: 1 });
            }
            for (u, v, cost) in extra {
                if u != v {
                    t.add_link(u, v, LinkAttrs { cost, capacity_bps: 1 });
                }
            }
            t
        })
}

/// Random multigraph, not necessarily connected: costs 1–3 (so equal-cost
/// ties are common), and any link may get a parallel twin.
fn arb_multigraph(max_n: usize) -> impl Strategy<Value = Topology> {
    (2..max_n)
        .prop_flat_map(|n| {
            let links = proptest::collection::vec((0..n, 0..n, 1u64..4, any::<bool>()), 1..3 * n);
            (Just(n), links)
        })
        .prop_map(|(n, links)| {
            let mut t = Topology::new(n);
            for (u, v, cost, twin) in links {
                if u != v {
                    for _ in 0..=usize::from(twin) {
                        t.add_link(u, v, LinkAttrs { cost, capacity_bps: 1 });
                    }
                }
            }
            t
        })
}

/// Link-failure bitmask: each link is down with probability 1/4.
fn arb_failures() -> impl Strategy<Value = u64> {
    (any::<u64>(), any::<u64>()).prop_map(|(a, b)| a & b)
}

/// SPF result as plain vectors: distances, next hops (the minimum of each
/// ECMP set), sorted ECMP sets.
type SpfRows = (Vec<u64>, Vec<Option<usize>>, Vec<Vec<usize>>);

/// Naive SPF reference: Bellman–Ford distances over the usable links,
/// then first-hop sets grown to a fixpoint over every tight link (a link
/// `u → v` with `dist[u] + cost == dist[v]` gives `v` the root's hop `v`
/// itself when `u` is the root, else all of `u`'s first hops).
fn bellman_ford(t: &Topology, root: usize, usable: &dyn Fn(usize) -> bool) -> SpfRows {
    let n = t.node_count();
    let arcs: Vec<(usize, usize, u64)> = (0..t.link_count())
        .filter(|&l| usable(l))
        .flat_map(|l| {
            let (u, v, a) = t.link(l);
            [(u, v, a.cost), (v, u, a.cost)]
        })
        .collect();
    let mut dist = vec![u64::MAX; n];
    dist[root] = 0;
    for _ in 0..n {
        for &(u, v, c) in &arcs {
            if dist[u] != u64::MAX && dist[u] + c < dist[v] {
                dist[v] = dist[u] + c;
            }
        }
    }
    let mut hops = vec![BTreeSet::new(); n];
    for _ in 0..n {
        for &(u, v, c) in &arcs {
            if dist[u] != u64::MAX && dist[u] + c == dist[v] {
                let through: Vec<usize> =
                    if u == root { vec![v] } else { hops[u].iter().copied().collect() };
                hops[v].extend(through);
            }
        }
    }
    let next_hop = hops.iter().map(|h| h.first().copied()).collect();
    (dist, next_hop, hops.into_iter().map(|h| h.into_iter().collect()).collect())
}

fn floyd_warshall(t: &Topology) -> Vec<Vec<u64>> {
    let n = t.node_count();
    let mut d = vec![vec![u64::MAX / 4; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0;
    }
    for l in 0..t.link_count() {
        let (u, v, a) = t.link(l);
        d[u][v] = d[u][v].min(a.cost);
        d[v][u] = d[v][u].min(a.cost);
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let via = d[i][k] + d[k][j];
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}

/// Full-scan reference for the route reflector, written to its one rule:
/// a VRF's route for a prefix is the lowest (egress PE, VPN label) among
/// the RIB's advertisements of the prefix from another PE that the VRF
/// imports, and each operation sets its touched (VRF, prefix) pairs to
/// that answer. Selecting scans the whole RIB, kept in arrival order, and
/// a withdraw visits every VRF on every PE: no index of who holds a route,
/// no sorting.
struct ScanFabric {
    /// Per VRF, in the order the test created them: handle, import and
    /// export targets, RD and table.
    vrfs: Vec<ScanVrf>,
    /// Live advertisements: origin VRF, prefix, route, export targets.
    rib: Vec<(usize, Prefix, RemoteRoute, Vec<RouteTarget>)>,
}

struct ScanVrf {
    handle: VrfHandle,
    import: Vec<RouteTarget>,
    export: Vec<RouteTarget>,
    rd: RouteDistinguisher,
    table: BTreeMap<Prefix, RemoteRoute>,
}

impl ScanFabric {
    /// Whether VRF `i` imports a route from `egress_pe` exporting `export`.
    fn imports(&self, i: usize, egress_pe: usize, export: &[RouteTarget]) -> bool {
        let v = &self.vrfs[i];
        v.handle.pe != egress_pe && v.import.iter().any(|t| export.contains(t))
    }

    /// The rule's answer for VRF `i` and `prefix`.
    fn select(&self, i: usize, prefix: Prefix) -> Option<RemoteRoute> {
        self.rib
            .iter()
            .filter(|ad| ad.1 == prefix && self.imports(i, ad.2.egress_pe, &ad.3))
            .map(|ad| ad.2)
            .min_by_key(|r| (r.egress_pe, r.vpn_label))
    }

    /// Sets VRF `i`'s route for `prefix` to the rule's answer; returns the
    /// new route if it moved.
    fn reselect(&mut self, i: usize, prefix: Prefix) -> Option<Option<RemoteRoute>> {
        let now = self.select(i, prefix);
        let table = &mut self.vrfs[i].table;
        if table.get(&prefix) == now.as_ref() {
            return None;
        }
        match now {
            Some(r) => table.insert(prefix, r),
            None => table.remove(&prefix),
        };
        Some(now)
    }

    /// VRF indices in fabric order (PE, then VRF index).
    fn fabric_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.vrfs.len()).collect();
        order.sort_by_key(|&i| (self.vrfs[i].handle.pe, self.vrfs[i].handle.index));
        order
    }

    /// Touches every VRF that imports the new advertisement.
    fn advertise(&mut self, origin: usize, prefix: Prefix, label: u32) -> Vec<RouteChange> {
        let o = &self.vrfs[origin];
        let route = RemoteRoute { egress_pe: o.handle.pe, vpn_label: label, rd: o.rd };
        let export = o.export.clone();
        self.rib.push((origin, prefix, route, export.clone()));
        let mut changed = Vec::new();
        for i in self.fabric_order() {
            if self.imports(i, route.egress_pe, &export) {
                changed.extend(self.reselect(i, prefix).map(|now| (self.vrfs[i].handle, now)));
            }
        }
        changed
    }

    /// Removes the advertisement `origin` made of `prefix` under `label`
    /// and touches every VRF that held its route.
    fn withdraw(&mut self, origin: usize, prefix: Prefix, label: u32) -> Vec<RouteChange> {
        let mine = |ad: &(usize, Prefix, RemoteRoute, _)| {
            (ad.0, ad.1, ad.2.vpn_label) == (origin, prefix, label)
        };
        let Some(pos) = self.rib.iter().position(mine) else {
            return Vec::new();
        };
        let (_, _, gone, _) = self.rib.remove(pos);
        let mut changed = Vec::new();
        for i in self.fabric_order() {
            if self.vrfs[i].table.get(&prefix) == Some(&gone) {
                changed.extend(self.reselect(i, prefix).map(|now| (self.vrfs[i].handle, now)));
            }
        }
        changed
    }

    /// Touches every prefix VRF `i` holds or the RIB carries; returns the
    /// moves in prefix order.
    fn refilter(&mut self, i: usize) -> Vec<(Prefix, Option<RemoteRoute>)> {
        let mut prefixes: BTreeSet<Prefix> = self.vrfs[i].table.keys().copied().collect();
        prefixes.extend(self.rib.iter().map(|ad| ad.1));
        prefixes.into_iter().filter_map(|p| self.reselect(i, p).map(|now| (p, now))).collect()
    }
}

/// A withdraw still reaches a VRF whose import target was removed after
/// it imported the route (a stale import), and fails it over to the
/// multihomed prefix's other PE when another target still imports that.
#[test]
fn withdraw_reaches_a_stale_import_and_fails_over() {
    let (rt_a, rt_b) = (RouteTarget(1), RouteTarget(2));
    let mut f = BgpVpnFabric::new(3);
    let home0 = f.add_vrf(0, RouteDistinguisher::new(65000, 1), vec![], vec![rt_a]).0;
    let importer = f.add_vrf(1, RouteDistinguisher::new(65000, 2), vec![rt_a, rt_b], vec![]).0;
    let home2 = f.add_vrf(2, RouteDistinguisher::new(65000, 3), vec![], vec![rt_b]).0;
    let p: Prefix = "10.9.0.0/24".parse().unwrap();
    let (label0, _) = f.advertise(home0, p);
    let (label2, _) = f.advertise(home2, p);
    assert_eq!(f.routes(importer).get(p).map(|r| r.egress_pe), Some(0));
    f.remove_import_target(importer, rt_a);
    let alt =
        RemoteRoute { egress_pe: 2, vpn_label: label2, rd: RouteDistinguisher::new(65000, 3) };
    assert_eq!(f.withdraw(home0, p, label0), vec![(importer, Some(alt))]);
    assert_eq!(f.routes(importer).get(p), Some(&alt));
    f.remove_import_target(importer, rt_b);
    assert_eq!(f.withdraw(home2, p, label2), vec![(importer, None)]);
    assert!(f.routes(importer).is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SPF distances match the Floyd–Warshall oracle, and every reported
    /// path is consistent with its advertised cost.
    #[test]
    #[allow(clippy::needless_range_loop)] // oracle is indexed by (a, b)
    fn spf_matches_floyd_warshall(topo in arb_topo(10)) {
        let oracle = floyd_warshall(&topo);
        let igp = Igp::converge(&topo);
        let n = topo.node_count();
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(igp.path_cost(a, b), Some(oracle[a][b]), "{} -> {}", a, b);
                let path = igp.path(a, b).expect("connected");
                // Sum edge costs along the path and compare.
                let mut cost = 0u64;
                for w in path.windows(2) {
                    let c = topo
                        .neighbors(w[0])
                        .filter(|&(peer, _, _)| peer == w[1])
                        .map(|(_, attrs, _)| attrs.cost)
                        .min()
                        .expect("adjacent");
                    cost += c;
                }
                prop_assert_eq!(cost, oracle[a][b]);
            }
        }
    }

    /// The chosen next hop is the minimum of the reference's ECMP set
    /// (determinism contract).
    #[test]
    fn ecmp_contains_next_hop(topo in arb_topo(9)) {
        let igp = Igp::converge(&topo);
        let n = topo.node_count();
        for a in 0..n {
            let ecmp = bellman_ford(&topo, a, &|_| true).2;
            for (b, hops) in ecmp.iter().enumerate().filter(|&(b, _)| b != a) {
                let nh = igp.tree(a).next_hop[b].expect("connected");
                prop_assert_eq!(Some(&nh), hops.iter().min());
            }
        }
    }

    /// In-place SPF on a dirty tree (computed for another root under
    /// another failure set) equals a fresh `spf_filtered`, and both equal
    /// the Bellman–Ford reference — over multigraphs with cost ties,
    /// parallel links and random failed-link sets. The reused tree then
    /// follows a sequence of single-link flips and root changes, matching
    /// the reference after each one; a flip that `affected_by` rejects
    /// must already leave the tree correct without a rerun.
    #[test]
    fn spf_recompute_matches_bellman_ford(
        topo in arb_multigraph(10),
        roots in (any::<usize>(), 1usize..64),
        failures in (arb_failures(), 1u64..u64::MAX),
        events in proptest::collection::vec((any::<usize>(), any::<bool>()), 0..12),
    ) {
        let n = topo.node_count();
        let mut root = roots.0 % n;
        let prior_root = (root + 1 + roots.1 % (n - 1)) % n;
        let (mut mask, prior_mask) = (failures.0, failures.0 ^ failures.1);
        let usable = |mask: u64| move |l: usize| mask >> (l % 64) & 1 == 0;
        let mut reused = spf_filtered(&topo, prior_root, usable(prior_mask));
        reused.recompute(&topo, root, usable(mask));
        let fresh = spf_filtered(&topo, root, usable(mask));
        let reference = bellman_ford(&topo, root, &usable(mask));
        for tree in [&reused, &fresh] {
            prop_assert_eq!(tree.root, root);
            prop_assert_eq!(&tree.dist, &reference.0);
            prop_assert_eq!(&tree.next_hop, &reference.1);
        }
        for (pick, reroot) in events {
            if reroot || topo.link_count() == 0 {
                root = pick % n;
                reused.recompute(&topo, root, usable(mask));
            } else {
                let link = pick % topo.link_count();
                let down = usable(mask)(link);
                mask ^= 1 << (link % 64);
                if reused.affected_by(&topo, link, down) {
                    reused.recompute(&topo, root, usable(mask));
                }
            }
            let reference = bellman_ford(&topo, root, &usable(mask));
            prop_assert_eq!(&reused.dist, &reference.0);
            prop_assert_eq!(&reused.next_hop, &reference.1);
        }
    }

    /// CSPF is SPF over the links a filter admits: on random multigraphs
    /// with random failed-link sets, its path crosses only usable links,
    /// costs the filtered Bellman–Ford distance, is the filtered IGP's
    /// path, and is `None` exactly when the destination is unreachable.
    #[test]
    fn cspf_path_is_the_filtered_spf_path(
        topo in arb_multigraph(10),
        ends in (any::<usize>(), any::<usize>()),
        mask in arb_failures(),
    ) {
        let n = topo.node_count();
        let (src, dst) = (ends.0 % n, ends.1 % n);
        let usable = |l: usize| mask >> (l % 64) & 1 == 0;
        let path = cspf_path(&topo, src, dst, usable);
        prop_assert_eq!(&path, &Igp::converge_filtered(&topo, usable).path(src, dst));
        let dist = bellman_ford(&topo, src, &usable).0[dst];
        prop_assert_eq!(path.is_none(), dist == u64::MAX);
        if let Some(path) = path {
            prop_assert_eq!((path[0], path[path.len() - 1]), (src, dst));
            let mut cost = 0;
            for w in path.windows(2) {
                let hop = topo.neighbors(w[0]).filter(|&(v, _, l)| v == w[1] && usable(l));
                let hop = hop.map(|(_, attrs, _)| attrs.cost).min();
                prop_assert!(hop.is_some(), "{path:?} crosses no usable link {} -> {}", w[0], w[1]);
                cost += hop.unwrap_or_default();
            }
            prop_assert_eq!(cost, dist);
        }
    }

    /// BGP/VPN fabric: a VRF imports a route iff the route's export
    /// targets intersect its import targets — over random target sets.
    #[test]
    fn import_iff_rt_intersection(
        import_bits in 0u8..16,
        export_bits in 1u8..16,
        pe_count in 2usize..5,
    ) {
        let rts = |bits: u8| -> Vec<RouteTarget> {
            (0..4).filter(|b| bits & (1 << b) != 0).map(|b| RouteTarget(b as u64)).collect()
        };
        let mut f = BgpVpnFabric::new(pe_count);
        let importer =
            f.add_vrf(0, RouteDistinguisher::new(65000, 1), rts(import_bits), vec![]).0;
        let exporter =
            f.add_vrf(1, RouteDistinguisher::new(65000, 2), vec![], rts(export_bits)).0;
        let p: Prefix = "192.168.0.0/24".parse().unwrap();
        f.advertise(exporter, p);
        let should_import = import_bits & export_bits != 0;
        prop_assert_eq!(f.routes(importer).lookup(p.addr()).is_some(), should_import);
    }

    /// Advertise-then-withdraw leaves every VRF table exactly as before,
    /// and label accounting returns to baseline, for any interleaving of
    /// other routes.
    #[test]
    fn withdraw_restores_state(
        others in proptest::collection::vec((0u8..4, any::<u16>()), 0..12),
        target_pe in 0u8..4,
    ) {
        let rt = RouteTarget(9);
        let rd = RouteDistinguisher::new(65000, 9);
        let build = |with_extra: bool| {
            let mut f = BgpVpnFabric::new(4);
            let handles: Vec<_> =
                (0..4).map(|pe| f.add_vrf(pe, rd, vec![rt], vec![rt]).0).collect();
            for (pe, third) in &others {
                let p = Prefix::new(Ip(0xC0A8_0000 | (u32::from(*third) << 8)), 24);
                f.advertise(handles[*pe as usize % 4], p);
            }
            if with_extra {
                let extra: Prefix = "172.16.0.0/12".parse().unwrap();
                let h = handles[target_pe as usize % 4];
                let (label, _) = f.advertise(h, extra);
                f.withdraw(h, extra, label);
            }
            let tables: Vec<Vec<(Prefix, usize, u32)>> = handles
                .iter()
                .map(|&h| {
                    let mut v: Vec<(Prefix, usize, u32)> = f
                        .routes(h)
                        .iter()
                        .map(|(p, r)| (p, r.egress_pe, r.vpn_label))
                        .collect();
                    v.sort();
                    v
                })
                .collect();
            let labels: Vec<u64> = (0..4).map(|pe| f.pe_state(pe).2).collect();
            (tables, labels)
        };
        // Duplicate prefixes in `others` advertise twice; fine — both runs
        // do the same thing, so state must still match.
        prop_assert_eq!(build(false), build(true));
    }

    /// The change report of `advertise` and `withdraw` is exactly the set
    /// of VRFs whose selected route for the prefix moved: after every step
    /// it equals the before/after diff of every VRF's `routes(h).get(..)`,
    /// in fabric order (PE, then VRF index). VRFs join random VPNs in a
    /// random order, prefixes are shared (multihomed sites), and import
    /// targets come and go without a refilter, leaving stale routes.
    #[test]
    fn change_report_matches_route_diff(
        pe_count in 2usize..5,
        vrfs in proptest::collection::vec((any::<usize>(), 0u64..3, 0u8..8), 1..10),
        ops in proptest::collection::vec((0u8..6, any::<usize>(), any::<usize>()), 1..40),
    ) {
        let mut f = BgpVpnFabric::new(pe_count);
        // A VRF of VPN `vpn` exports that VPN's target and imports it plus
        // the extra targets in `extra`'s bits.
        let handles: Vec<VrfHandle> = vrfs
            .iter()
            .map(|&(pe, vpn, extra)| {
                let mut import = vec![RouteTarget(vpn)];
                import.extend((0..3).filter(|b| extra & (1 << b) != 0).map(RouteTarget));
                let rd = RouteDistinguisher::new(65000, vpn as u32);
                f.add_vrf(pe % pe_count, rd, import, vec![RouteTarget(vpn)]).0
            })
            .collect();
        let selected = |f: &BgpVpnFabric, p: Prefix| -> Vec<Option<RemoteRoute>> {
            handles.iter().map(|&h| f.routes(h).get(p).copied()).collect()
        };
        let mut advertised: Vec<(VrfHandle, Prefix, u32)> = Vec::new();
        for (kind, a, b) in ops {
            let vrf = handles[a % handles.len()];
            let prefix = Prefix::new(Ip(0x0A00_0000 | (((b % 3) as u32) << 16)), 16);
            let rt = RouteTarget((b % 3) as u64);
            let (prefix, before, reported) = match kind {
                0 | 1 => {
                    let before = selected(&f, prefix);
                    let (label, reported) = f.advertise(vrf, prefix);
                    advertised.push((vrf, prefix, label));
                    (prefix, before, reported)
                }
                2 | 3 => {
                    let (vrf, prefix, label) = if advertised.is_empty() {
                        (vrf, prefix, 0) // nothing to withdraw: a no-op
                    } else {
                        advertised.swap_remove(a % advertised.len())
                    };
                    let before = selected(&f, prefix);
                    (prefix, before, f.withdraw(vrf, prefix, label))
                }
                4 => {
                    f.remove_import_target(vrf, rt);
                    continue;
                }
                _ => {
                    f.add_import_target(vrf, rt);
                    continue;
                }
            };
            let mut expected: Vec<(VrfHandle, Option<RemoteRoute>)> = handles
                .iter()
                .zip(before.into_iter().zip(selected(&f, prefix)))
                .filter(|(_, (was, now))| was != now)
                .map(|(&h, (_, now))| (h, now))
                .collect();
            expected.sort_by_key(|&(h, _)| (h.pe, h.index));
            prop_assert_eq!(reported, expected);
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The route reflector's holder index and sorted RIB lose nothing:
    /// after every random step, what `advertise`, `withdraw` (by label),
    /// `add_vrf` and `refilter_vrf` report and every VRF table equal the
    /// full-scan reference. Prefixes come from a pool of three, so sites
    /// are multihomed, and a VRF may advertise one prefix twice; one
    /// prefix is always advertised from two PEs first. Import targets come
    /// and go without a refilter, leaving stale imports for a withdraw to
    /// find, and VRFs join a running fabric through `add_vrf`'s replay.
    #[test]
    fn route_reflector_index_matches_full_scan(
        pe_count in 2usize..5,
        vrfs in proptest::collection::vec((any::<usize>(), 0u64..3, 0u8..8), 2..8),
        ops in proptest::collection::vec((0u8..10, any::<usize>(), any::<usize>()), 1..60),
    ) {
        let mut f = BgpVpnFabric::new(pe_count);
        let mut scan = ScanFabric { vrfs: Vec::new(), rib: Vec::new() };
        // A VRF of VPN `vpn` exports that VPN's target and imports it plus
        // the extra targets in `extra`'s bits.
        let add_vrf = |f: &mut BgpVpnFabric, scan: &mut ScanFabric, pe, vpn, extra: u8| {
            let mut import = vec![RouteTarget(vpn)];
            import.extend((0..3).filter(|b| extra & (1 << b) != 0).map(RouteTarget));
            let rd = RouteDistinguisher::new(65000, scan.vrfs.len() as u32);
            let export = vec![RouteTarget(vpn)];
            let (handle, replayed) = f.add_vrf(pe, rd, import.clone(), export.clone());
            scan.vrfs.push(ScanVrf { handle, import, export, rd, table: BTreeMap::new() });
            (replayed, scan.refilter(scan.vrfs.len() - 1))
        };
        for (i, &(pe, vpn, extra)) in vrfs.iter().enumerate() {
            // The first two VRFs sit on PEs 0 and 1 and export target 0.
            let (pe, vpn) = if i < 2 { (i, 0) } else { (pe % pe_count, vpn) };
            let (replayed, expected) = add_vrf(&mut f, &mut scan, pe, vpn, extra);
            prop_assert!(replayed.is_empty());
            prop_assert!(expected.is_empty());
        }
        let multihomed = Prefix::new(Ip(0x0A00_0000), 16);
        let mut advertised: Vec<(usize, Prefix, u32)> = Vec::new();
        for i in 0..2 {
            let (label, reported) = f.advertise(scan.vrfs[i].handle, multihomed);
            prop_assert_eq!(reported, scan.advertise(i, multihomed, label));
            advertised.push((i, multihomed, label));
        }
        for (kind, a, b) in ops {
            let i = a % scan.vrfs.len();
            let vrf = scan.vrfs[i].handle;
            let prefix = Prefix::new(Ip(0x0A00_0000 | (((b % 3) as u32) << 16)), 16);
            let rt = RouteTarget((b % 3) as u64);
            match kind {
                0 | 1 => {
                    let (label, reported) = f.advertise(vrf, prefix);
                    prop_assert_eq!(reported, scan.advertise(i, prefix, label));
                    advertised.push((i, prefix, label));
                }
                2 | 3 => {
                    let (i, prefix, label) = if advertised.is_empty() {
                        (i, prefix, 0) // nothing to withdraw: a no-op
                    } else {
                        advertised.swap_remove(b % advertised.len())
                    };
                    let reported = f.withdraw(scan.vrfs[i].handle, prefix, label);
                    prop_assert_eq!(reported, scan.withdraw(i, prefix, label));
                }
                4 => {
                    f.remove_import_target(vrf, rt);
                    scan.vrfs[i].import.retain(|t| *t != rt);
                }
                5 => {
                    f.add_import_target(vrf, rt);
                    if !scan.vrfs[i].import.contains(&rt) {
                        scan.vrfs[i].import.push(rt);
                    }
                }
                6 | 7 => {
                    prop_assert_eq!(f.refilter_vrf(vrf), scan.refilter(i));
                }
                8 => {
                    // A site joins the running fabric.
                    let (pe, vpn, extra) = (a % pe_count, (b % 3) as u64, (b / 3 % 8) as u8);
                    let (replayed, expected) = add_vrf(&mut f, &mut scan, pe, vpn, extra);
                    prop_assert_eq!(replayed, expected);
                }
                _ => {
                    // Extranet provisioning: a new import target, applied.
                    f.add_import_target(vrf, rt);
                    if !scan.vrfs[i].import.contains(&rt) {
                        scan.vrfs[i].import.push(rt);
                    }
                    prop_assert_eq!(f.refilter_vrf(vrf), scan.refilter(i));
                }
            }
            for v in &scan.vrfs {
                let table: BTreeMap<Prefix, RemoteRoute> =
                    f.routes(v.handle).iter().map(|(p, r)| (p, *r)).collect();
                prop_assert_eq!(&table, &v.table, "VRF {:?}", v.handle);
            }
        }
    }
}
