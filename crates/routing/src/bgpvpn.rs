//! BGP/MPLS VPN control plane (RFC 2547 model, emulated).
//!
//! The paper's §4 requires three functions; this module provides the first
//! two and the state the third consumes:
//!
//! * **Membership discovery** — VRFs declare route-target import/export
//!   communities; any two VRFs sharing a target discover each other through
//!   route distribution alone ("a single routing system \[supporting\]
//!   multiple VPNs whose internal address spaces overlap").
//! * **Reachability exchange** — each PE advertises its customer prefixes
//!   as VPN-IPv4 routes (route distinguisher + prefix) with a *piggybacked
//!   VPN label*. The fabric selects every VRF's routes; what that costs is
//!   the MP-BGP packets the PE routers send for each change it reports,
//!   counted by the routers (`mplsvpn-core`), not here.
//! * **Data separation** — the importer ends up with a per-VRF LPM table
//!   mapping prefixes to `(egress PE, VPN label)`, which `mplsvpn-core`
//!   installs into PE data planes.

use std::ops::Range;

use netsim_mpls::LabelSpace;
use netsim_net::{LpmTrie, Prefix};

/// A route distinguisher: makes VPN-IPv4 routes globally unique even when
/// customer prefixes overlap. (Encoded here as provider ASN + assigned
/// number.)
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct RouteDistinguisher {
    /// Provider AS number.
    asn: u32,
    /// Assigned number (unique per VPN or per VRF, per provider policy).
    pub assigned: u32,
}

impl RouteDistinguisher {
    /// Creates `asn:assigned`.
    pub fn new(asn: u32, assigned: u32) -> Self {
        RouteDistinguisher { asn, assigned }
    }
}

impl std::fmt::Display for RouteDistinguisher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.asn, self.assigned)
    }
}

/// A route-target extended community controlling VRF import/export.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct RouteTarget(pub u64);

/// Identifies one VRF instance on one PE. A provider network creates each
/// VRF on the fabric and on the PE router together, so `index` is also the
/// VRF's slot in the PE's data plane.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VrfHandle {
    /// The PE hosting the VRF.
    pub pe: usize,
    /// Index of the VRF on that PE.
    pub index: usize,
}

/// A route as imported into a VRF: where to tunnel and which VPN label to
/// push beneath the tunnel label.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RemoteRoute {
    /// Egress PE (tunnel endpoint).
    pub egress_pe: usize,
    /// VPN label advertised by the egress PE.
    pub vpn_label: u32,
    /// The distinguishing RD of the originating VRF.
    pub rd: RouteDistinguisher,
}

/// A VRF whose selected route for the prefix an advertise or withdraw
/// changed, with its new route (`None` when it has none left).
pub type RouteChange = (VrfHandle, Option<RemoteRoute>);

/// A prefix whose route in one VRF moved, with its new route (`None`:
/// removed).
pub type PrefixChange = (Prefix, Option<RemoteRoute>);

/// A VPN-IPv4 advertisement as carried by the fabric.
#[derive(Debug)]
struct VpnRouteAd {
    rd: RouteDistinguisher,
    prefix: Prefix,
    egress_pe: usize,
    vpn_label: u32,
    export_targets: Vec<RouteTarget>,
    origin: VrfHandle,
    /// Every VRF this advertisement was installed into: the only VRFs a
    /// withdraw must visit. VRFs that have since replaced or dropped the
    /// route may stay listed; the withdraw checks each one.
    holders: Vec<VrfHandle>,
}

impl VpnRouteAd {
    /// The route an importing VRF installs for this advertisement.
    fn route(&self) -> RemoteRoute {
        RemoteRoute { egress_pe: self.egress_pe, vpn_label: self.vpn_label, rd: self.rd }
    }

    /// BGP best-path rank among the advertisements of one prefix (a
    /// multihomed site): deterministic — lowest egress PE, then lowest
    /// label.
    fn rank(&self) -> (usize, u32) {
        (self.egress_pe, self.vpn_label)
    }

    /// Records that `vrf` installed this advertisement.
    fn held_by(&mut self, vrf: VrfHandle) {
        if !self.holders.contains(&vrf) {
            self.holders.push(vrf);
        }
    }
}

/// One VRF's control-plane state. The routes it originates live only in
/// the RIB, as advertisements whose `origin` is the VRF.
#[derive(Debug)]
struct VrfControl {
    rd: RouteDistinguisher,
    import: Vec<RouteTarget>,
    export: Vec<RouteTarget>,
    /// Imported remote routes.
    table: LpmTrie<RemoteRoute>,
}

/// One PE's control-plane state.
#[derive(Debug)]
struct PeControl {
    vrfs: Vec<VrfControl>,
    /// VPN label space (per-prefix allocation, the RFC 2547 default).
    label_space: LabelSpace,
}

/// First label value the fabric hands out as a VPN label. Kept disjoint
/// from the LDP range (which grows upward from 16) so that a PE's VPN
/// labels can never alias its transit labels.
pub const VPN_LABEL_BASE: u32 = 1 << 17;

/// The provider's VPN route distribution fabric: the one selection rule
/// for every VRF's routes. It reports what each operation changed; the
/// caller sends those changes as MP-BGP deltas, whose packets are the cost.
///
/// The rule: a VRF's route for a prefix is the lowest (egress PE, VPN
/// label) among the RIB's advertisements of that prefix that come from
/// another PE and that the VRF imports. Every operation only chooses which
/// (VRF, prefix) pairs it touches and reselects them by that rule:
///
/// * [`advertise`](Self::advertise): every VRF that imports the new
///   advertisement;
/// * [`withdraw`](Self::withdraw): every VRF that held the withdrawn
///   route;
/// * [`add_vrf`](Self::add_vrf), [`add_import_target`](Self::add_import_target)
///   and [`remove_import_target`](Self::remove_import_target): every
///   prefix of the one VRF.
///
/// A VRF's own routes are its advertisements in the RIB, each with the
/// VPN label it was advertised under; there is no second record of them.
///
/// **Invariant:** after every operation, every VRF table holds the rule's
/// answer for every prefix.
pub struct BgpVpnFabric {
    pes: Vec<PeControl>,
    /// All advertisements currently in the fabric, sorted by prefix;
    /// within a prefix, in arrival order.
    rib: Vec<VpnRouteAd>,
}

impl BgpVpnFabric {
    /// Creates a fabric over `pe_count` PEs.
    pub fn new(pe_count: usize) -> Self {
        BgpVpnFabric {
            pes: (0..pe_count)
                .map(|_| PeControl {
                    vrfs: Vec::new(),
                    label_space: LabelSpace::with_base(VPN_LABEL_BASE),
                })
                .collect(),
            rib: Vec::new(),
        }
    }

    /// Creates a VRF on `pe` with the given RD and import/export targets,
    /// next after the PE's existing VRFs, and selects every prefix of the
    /// RIB in it (the "new site joins" path of experiment M1). Returns the
    /// handle and every route the VRF installed, in prefix order.
    pub fn add_vrf(
        &mut self,
        pe: usize,
        rd: RouteDistinguisher,
        import: Vec<RouteTarget>,
        export: Vec<RouteTarget>,
    ) -> (VrfHandle, Vec<PrefixChange>) {
        let vrfs = &mut self.pes[pe].vrfs;
        vrfs.push(VrfControl { rd, import, export, table: LpmTrie::new() });
        let vrf = VrfHandle { pe, index: vrfs.len() - 1 };
        (vrf, self.reselect_all(vrf))
    }

    /// Adds an import target to a VRF (extranet provisioning) and
    /// reselects every prefix in it. Returns the moved routes in prefix
    /// order.
    pub fn add_import_target(&mut self, vrf: VrfHandle, rt: RouteTarget) -> Vec<PrefixChange> {
        let import = &mut self.pes[vrf.pe].vrfs[vrf.index].import;
        if !import.contains(&rt) {
            import.push(rt);
        }
        self.reselect_all(vrf)
    }

    /// Adds an export target to a VRF (extranet provisioning). Takes
    /// effect for routes advertised afterwards; re-advertise existing
    /// prefixes to distribute them under the new policy.
    pub fn add_export_target(&mut self, vrf: VrfHandle, rt: RouteTarget) {
        let v = &mut self.pes[vrf.pe].vrfs[vrf.index];
        if !v.export.contains(&rt) {
            v.export.push(rt);
        }
    }

    /// Removes an import target from a VRF and reselects every prefix in
    /// it: a route only that target imported leaves, or falls back to one
    /// another target still imports. Returns the moved routes in prefix
    /// order.
    pub fn remove_import_target(&mut self, vrf: VrfHandle, rt: RouteTarget) -> Vec<PrefixChange> {
        self.pes[vrf.pe].vrfs[vrf.index].import.retain(|t| *t != rt);
        self.reselect_all(vrf)
    }

    /// The import route targets of a VRF (read by the isolation verifier).
    pub fn import_targets(&self, vrf: VrfHandle) -> &[RouteTarget] {
        &self.pes[vrf.pe].vrfs[vrf.index].import
    }

    /// The export route targets of a VRF (read by the isolation verifier).
    pub fn export_targets(&self, vrf: VrfHandle) -> &[RouteTarget] {
        &self.pes[vrf.pe].vrfs[vrf.index].export
    }

    /// Advertises `prefix` from `vrf` (a connected customer route learned
    /// from the attached CE): allocates a VPN label, adds the advertisement
    /// to the RIB, and reselects the prefix in every VRF that imports it.
    /// The PE's data plane dispatches the label (`vpn_ilm` of the PE
    /// router), not the fabric. Returns the VPN label and every VRF whose
    /// route moved, in fabric order (PE, then VRF index).
    pub fn advertise(&mut self, vrf: VrfHandle, prefix: Prefix) -> (u32, Vec<RouteChange>) {
        let pe = &mut self.pes[vrf.pe];
        let label = pe.label_space.allocate();
        let v = &pe.vrfs[vrf.index];
        let ad = VpnRouteAd {
            rd: v.rd,
            prefix,
            egress_pe: vrf.pe,
            vpn_label: label,
            export_targets: v.export.clone(),
            origin: vrf,
            holders: Vec::new(),
        };
        let at = self.run(prefix).end;
        self.rib.insert(at, ad);
        // The touched VRFs, then those whose route moved. A VPN usually
        // has one VRF per PE.
        let mut changed = Vec::with_capacity(self.pes.len());
        for (pe, p) in self.pes.iter().enumerate() {
            for index in 0..p.vrfs.len() {
                let h = VrfHandle { pe, index };
                if self.imports(h, &self.rib[at]) {
                    changed.push((h, None));
                }
            }
        }
        // Sized once, so the holder pushes in `reselect` never regrow it.
        self.rib[at].holders.reserve(changed.len());
        changed.retain_mut(|(h, now)| self.reselect(*h, prefix).map(|r| *now = r).is_some());
        (label, changed)
    }

    /// Withdraws the advertisement of `prefix` that `vrf` made under VPN
    /// label `label` (a VRF may advertise one prefix for several sites,
    /// each under its own label): removes it from the RIB, frees the label
    /// and reselects the prefix in every VRF that held the route — where
    /// another advertisement of the prefix stays importable (a multihomed
    /// site), that fails the VRF over to the next-best path. Returns every
    /// VRF whose route moved, with its failover, in fabric order; nothing
    /// when no such advertisement is left.
    pub fn withdraw(&mut self, vrf: VrfHandle, prefix: Prefix, label: u32) -> Vec<RouteChange> {
        let mine = |ad: &VpnRouteAd| ad.origin == vrf && ad.vpn_label == label;
        let Some(at) = self.run(prefix).find(|&i| mine(&self.rib[i])) else {
            return Vec::new();
        };
        let mut ad = self.rib.remove(at);
        let withdrawn = ad.route();
        // Only a VRF the route was installed into can hold it.
        ad.holders.sort_unstable_by_key(|h| (h.pe, h.index));
        let mut changed = Vec::with_capacity(ad.holders.len());
        for &h in &ad.holders {
            if self.routes(h).get(prefix) == Some(&withdrawn) {
                changed.extend(self.reselect(h, prefix).map(|now| (h, now)));
            }
        }
        self.pes[vrf.pe].label_space.release(label);
        changed
    }

    /// RIB positions of the advertisements of `prefix`.
    fn run(&self, prefix: Prefix) -> Range<usize> {
        let start = self.rib.partition_point(|ad| ad.prefix < prefix);
        start..start + self.rib[start..].iter().take_while(|ad| ad.prefix == prefix).count()
    }

    /// Whether `vrf` imports `ad`: the route comes from another PE (local
    /// routes are reached directly, not tunneled) and carries one of the
    /// VRF's import targets.
    fn imports(&self, vrf: VrfHandle, ad: &VpnRouteAd) -> bool {
        let import = &self.pes[vrf.pe].vrfs[vrf.index].import;
        ad.egress_pe != vrf.pe && import.iter().any(|t| ad.export_targets.contains(t))
    }

    /// The selection rule: the RIB position of the best-ranked
    /// advertisement of `prefix` that `vrf` imports.
    fn select(&self, vrf: VrfHandle, prefix: Prefix) -> Option<usize> {
        self.run(prefix)
            .filter(|&i| self.imports(vrf, &self.rib[i]))
            .min_by_key(|&i| self.rib[i].rank())
    }

    /// Writes [`Self::select`]'s answer for `prefix` into `vrf`'s table and
    /// the holder index. Returns the VRF's new route (`None`: it has none
    /// left) if the route moved.
    fn reselect(&mut self, vrf: VrfHandle, prefix: Prefix) -> Option<Option<RemoteRoute>> {
        let best = self.select(vrf, prefix);
        let now = best.map(|i| self.rib[i].route());
        let table = &mut self.pes[vrf.pe].vrfs[vrf.index].table;
        // One trie walk: the value the write displaces says whether it moved.
        let held = match now {
            Some(route) => table.insert(prefix, route),
            None => table.remove(prefix),
        };
        if held == now {
            return None;
        }
        if let Some(i) = best {
            self.rib[i].held_by(vrf);
        }
        Some(now)
    }

    /// Reselects every prefix of the RIB in `vrf`, in one pass over it:
    /// a route no import target covers any more leaves, and a newly
    /// importable one replaces it or arrives. A local re-evaluation at the
    /// VRF's PE. Returns the moved routes in prefix order.
    fn reselect_all(&mut self, vrf: VrfHandle) -> Vec<PrefixChange> {
        // A table holds no prefix the RIB lacks: a withdraw reselects
        // every VRF that held the route.
        let mut changes = Vec::new();
        let mut at = 0;
        while let Some(prefix) = self.rib.get(at).map(|ad| ad.prefix) {
            at += self.rib[at..].iter().take_while(|ad| ad.prefix == prefix).count();
            changes.extend(self.reselect(vrf, prefix).map(|now| (prefix, now)));
        }
        changes
    }

    /// The imported remote-route table of a VRF.
    pub fn routes(&self, vrf: VrfHandle) -> &LpmTrie<RemoteRoute> {
        &self.pes[vrf.pe].vrfs[vrf.index].table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_net::addr::pfx;

    const RT_A: RouteTarget = RouteTarget(100);
    const RT_B: RouteTarget = RouteTarget(200);

    fn rd(n: u32) -> RouteDistinguisher {
        RouteDistinguisher::new(65000, n)
    }

    /// Two VPNs with byte-identical address spaces over 3 PEs: imports must
    /// stay strictly separate.
    #[test]
    fn overlapping_address_spaces_stay_separate() {
        let mut f = BgpVpnFabric::new(3);
        let a0 = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]).0;
        let a1 = f.add_vrf(1, rd(1), vec![RT_A], vec![RT_A]).0;
        let b0 = f.add_vrf(0, rd(2), vec![RT_B], vec![RT_B]).0;
        let b2 = f.add_vrf(2, rd(2), vec![RT_B], vec![RT_B]).0;

        let (la, _) = f.advertise(a1, pfx("10.1.0.0/16"));
        let (lb, _) = f.advertise(b2, pfx("10.1.0.0/16")); // same prefix, other VPN

        let ra = f.routes(a0).lookup(pfx("10.1.0.0/16").addr()).copied().unwrap();
        assert_eq!(ra.egress_pe, 1);
        assert_eq!(ra.vpn_label, la);
        let rb = f.routes(b0).lookup(pfx("10.1.0.0/16").addr()).copied().unwrap();
        assert_eq!(rb.egress_pe, 2);
        assert_eq!(rb.vpn_label, lb);
        assert_eq!(ra.rd, rd(1));
        assert_eq!(rb.rd, rd(2));

        // No cross-pollination: VPN A's VRF on PE1 must not have B's route.
        assert!(f.routes(a1).is_empty());
        assert!(f.routes(b2).is_empty());
    }

    #[test]
    fn labels_dispatch_to_the_right_vrf_at_egress() {
        let mut f = BgpVpnFabric::new(2);
        let a = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]).0;
        let b = f.add_vrf(0, rd(2), vec![RT_B], vec![RT_B]).0;
        let far = f.add_vrf(1, rd(3), vec![RT_A, RT_B], vec![]).0;
        let p = pfx("10.0.0.0/8");
        let (la, _) = f.advertise(a, p);
        let (lb, _) = f.advertise(b, p);
        assert_ne!(la, lb);
        assert_eq!(f.routes(far).get(p).map(|r| r.vpn_label), Some(la));
        // Each label withdraws its own VRF's advertisement, and no other
        // VRF's.
        assert!(f.withdraw(a, p, lb).is_empty(), "a wrong label withdraws nothing");
        let now = RemoteRoute { egress_pe: 0, vpn_label: lb, rd: rd(2) };
        assert_eq!(f.withdraw(a, p, la), [(far, Some(now))]);
        // The freed label is the PE's next one.
        assert_eq!(f.advertise(a, p).0, la);
    }

    #[test]
    fn withdraw_removes_route_and_frees_label() {
        let mut f = BgpVpnFabric::new(2);
        let a0 = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]).0;
        let a1 = f.add_vrf(1, rd(1), vec![RT_A], vec![RT_A]).0;
        let (l, _) = f.advertise(a1, pfx("172.16.0.0/12"));
        assert!(f.routes(a0).lookup(pfx("172.16.0.0/12").addr()).is_some());
        f.withdraw(a1, pfx("172.16.0.0/12"), l);
        assert!(f.routes(a0).lookup(pfx("172.16.0.0/12").addr()).is_none());
        // Idempotent on a second withdraw.
        assert!(f.withdraw(a1, pfx("172.16.0.0/12"), l).is_empty());
        assert_eq!(f.advertise(a1, pfx("10.0.0.0/8")).0, l, "label freed");
    }

    #[test]
    fn hub_and_spoke_via_asymmetric_targets() {
        // Spokes export RT_A, import RT_B; hub exports RT_B, imports RT_A:
        // spokes see only the hub, the hub sees all spokes.
        let mut f = BgpVpnFabric::new(3);
        let hub = f.add_vrf(0, rd(10), vec![RT_A], vec![RT_B]).0;
        let s1 = f.add_vrf(1, rd(11), vec![RT_B], vec![RT_A]).0;
        let s2 = f.add_vrf(2, rd(12), vec![RT_B], vec![RT_A]).0;
        f.advertise(hub, pfx("10.0.0.0/24"));
        f.advertise(s1, pfx("10.1.0.0/24"));
        f.advertise(s2, pfx("10.2.0.0/24"));
        assert_eq!(f.routes(hub).len(), 2, "hub imports both spokes");
        assert_eq!(f.routes(s1).len(), 1, "spoke sees only the hub");
        assert!(
            f.routes(s1).lookup(pfx("10.2.0.0/24").addr()).is_none(),
            "no spoke-to-spoke route"
        );
    }

    #[test]
    fn late_joining_vrf_catches_up_on_creation() {
        let mut f = BgpVpnFabric::new(3);
        let a0 = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]).0;
        f.advertise(a0, pfx("10.0.0.0/24"));
        let a1 = f.add_vrf(1, rd(1), vec![RT_A], vec![RT_A]).0;
        f.advertise(a1, pfx("10.1.0.0/24"));
        // The late VRF selects every prefix of the RIB as it is created.
        let (late, changes) = f.add_vrf(2, rd(1), vec![RT_A], vec![RT_A]);
        assert_eq!(changes.len(), 2);
        assert!(changes.iter().all(|(p, r)| f.routes(late).get(*p) == r.as_ref()));
        assert_eq!(f.routes(late).len(), 2);
        // A VRF created before any advertisement installs nothing.
        let mut fresh = BgpVpnFabric::new(2);
        assert!(fresh.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]).1.is_empty());
    }

    /// A site advertised from two PEs (multihoming): importers pick the
    /// deterministic best path, and a withdraw fails them over to the
    /// survivor.
    #[test]
    fn multihomed_prefix_best_path_and_failover() {
        let mut f = BgpVpnFabric::new(3);
        let v0 = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]).0; // importer
        let v1 = f.add_vrf(1, rd(1), vec![RT_A], vec![RT_A]).0; // primary home
        let v2 = f.add_vrf(2, rd(1), vec![RT_A], vec![RT_A]).0; // backup home
        let p = pfx("10.5.0.0/16");
        let (l1, _) = f.advertise(v1, p);
        let (l2, _) = f.advertise(v2, p);
        // Best path: lowest egress PE (1) regardless of arrival order.
        let r = f.routes(v0).lookup(p.addr()).copied().unwrap();
        assert_eq!((r.egress_pe, r.vpn_label), (1, l1));
        // Primary withdraws: importer fails over to PE2.
        f.withdraw(v1, p, l1);
        let r = f.routes(v0).lookup(p.addr()).copied().unwrap();
        assert_eq!((r.egress_pe, r.vpn_label), (2, l2));
        // Backup withdraws too: the prefix is gone.
        f.withdraw(v2, p, l2);
        assert!(f.routes(v0).lookup(p.addr()).is_none());
    }

    /// Best-path choice is independent of advertisement order.
    #[test]
    fn multihoming_is_order_independent() {
        let order_a = {
            let mut f = BgpVpnFabric::new(3);
            let v0 = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]).0;
            let v1 = f.add_vrf(1, rd(1), vec![RT_A], vec![RT_A]).0;
            let v2 = f.add_vrf(2, rd(1), vec![RT_A], vec![RT_A]).0;
            f.advertise(v1, pfx("10.5.0.0/16"));
            f.advertise(v2, pfx("10.5.0.0/16"));
            f.routes(v0).lookup(pfx("10.5.0.0/16").addr()).copied().unwrap().egress_pe
        };
        let order_b = {
            let mut f = BgpVpnFabric::new(3);
            let v0 = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]).0;
            let v1 = f.add_vrf(1, rd(1), vec![RT_A], vec![RT_A]).0;
            let v2 = f.add_vrf(2, rd(1), vec![RT_A], vec![RT_A]).0;
            f.advertise(v2, pfx("10.5.0.0/16"));
            f.advertise(v1, pfx("10.5.0.0/16"));
            f.routes(v0).lookup(pfx("10.5.0.0/16").addr()).copied().unwrap().egress_pe
        };
        assert_eq!(order_a, order_b);
        assert_eq!(order_a, 1);
    }

    /// An RT change removes now-unimportable routes and pulls newly
    /// importable ones — and reports exactly the delta.
    #[test]
    fn refilter_applies_import_policy_deltas() {
        let mut f = BgpVpnFabric::new(3);
        let a0 = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]).0;
        let a1 = f.add_vrf(1, rd(1), vec![RT_A], vec![RT_A]).0;
        let b2 = f.add_vrf(2, rd(2), vec![RT_B], vec![RT_B]).0;
        f.advertise(a1, pfx("10.1.0.0/16"));
        f.advertise(b2, pfx("10.9.0.0/16"));
        assert_eq!(f.routes(a0).len(), 1);

        // Import RT_B too: the refilter pulls b2's route.
        let changes = f.add_import_target(a0, RT_B);
        let b_route = f.routes(a0).get(pfx("10.9.0.0/16")).copied();
        assert!(b_route.is_some_and(|r| r.egress_pe == 2));
        assert_eq!(changes, [(pfx("10.9.0.0/16"), b_route)]);
        assert_eq!(f.routes(a0).len(), 2);

        // Drop RT_A: its route leaves and the delta says so.
        assert_eq!(f.remove_import_target(a0, RT_A), [(pfx("10.1.0.0/16"), None)]);
        assert_eq!(f.routes(a0).len(), 1);

        // Idempotent once settled.
        assert!(f.remove_import_target(a0, RT_A).is_empty());
        assert!(f.add_import_target(a0, RT_B).is_empty());
    }

    /// A removed import target takes its route away even where a worse
    /// advertisement of the same prefix stays importable: the importer
    /// falls back to it, and the delta reports it.
    #[test]
    fn refilter_drops_a_better_route_no_longer_imported() {
        let mut f = BgpVpnFabric::new(3);
        let home0 = f.add_vrf(0, rd(1), vec![], vec![RT_A]).0;
        let home1 = f.add_vrf(1, rd(2), vec![], vec![RT_B]).0;
        let importer = f.add_vrf(2, rd(3), vec![RT_A, RT_B], vec![]).0;
        let p = pfx("10.4.4.0/24");
        f.advertise(home0, p);
        let (l1, _) = f.advertise(home1, p);
        assert_eq!(f.routes(importer).get(p).map(|r| r.egress_pe), Some(0));

        let changes = f.remove_import_target(importer, RT_A);
        let pe1 = RemoteRoute { egress_pe: 1, vpn_label: l1, rd: rd(2) };
        assert_eq!(f.routes(importer).get(p), Some(&pe1));
        assert_eq!(changes, [(p, Some(pe1))]);
    }

    /// A VRF that advertises one prefix twice (two sites behind one PE)
    /// and withdraws the first label keeps the second advertisement, and
    /// importers route with it.
    #[test]
    fn withdrawing_one_of_two_advertisements_keeps_the_other() {
        let mut f = BgpVpnFabric::new(2);
        let a0 = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]).0;
        let a1 = f.add_vrf(1, rd(1), vec![RT_A], vec![RT_A]).0;
        let p = pfx("10.1.0.0/16");
        let (first, _) = f.advertise(a0, p);
        let (second, _) = f.advertise(a0, p);
        let changed = f.withdraw(a0, p, first);
        let now = RemoteRoute { egress_pe: 0, vpn_label: second, rd: rd(1) };
        assert_eq!(changed, [(a1, Some(now))]);
        assert_eq!(f.routes(a1).get(p), Some(&now));
    }
}
