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
//!   VPN label*, via a route reflector. Messages and
//!   sessions are counted: they are the per-VPN control cost that the §2.1
//!   overlay model pays N(N−1)/2 circuits for.
//! * **Data separation** — the importer ends up with a per-VRF LPM table
//!   mapping prefixes to `(egress PE, VPN label)`, which `mplsvpn-core`
//!   installs into PE data planes.

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

/// Identifies one VRF instance on one PE.
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

    /// Records that `vrf` installed this advertisement.
    fn held_by(&mut self, vrf: VrfHandle) {
        if !self.holders.contains(&vrf) {
            self.holders.push(vrf);
        }
    }
}

/// One VRF's control-plane state.
#[derive(Debug)]
struct VrfControl {
    rd: RouteDistinguisher,
    import: Vec<RouteTarget>,
    export: Vec<RouteTarget>,
    /// Prefixes this VRF originates, with their VPN labels.
    local: Vec<(Prefix, u32)>,
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

/// The provider's VPN route distribution fabric: one route reflector with
/// an iBGP session to every PE, so an update goes PE → RR → other PEs.
pub struct BgpVpnFabric {
    pes: Vec<PeControl>,
    /// All advertisements currently in the fabric (the RR's Adj-RIB).
    rib: Vec<VpnRouteAd>,
    messages: u64,
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
            messages: 0,
        }
    }

    /// Number of PEs.
    pub fn pe_count(&self) -> usize {
        self.pes.len()
    }

    /// iBGP sessions: one per PE, to the route reflector.
    pub fn session_count(&self) -> u64 {
        self.pes.len() as u64
    }

    /// Update messages sent so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Creates a VRF on `pe` with the given RD and import/export targets.
    pub fn add_vrf(
        &mut self,
        pe: usize,
        rd: RouteDistinguisher,
        import: Vec<RouteTarget>,
        export: Vec<RouteTarget>,
    ) -> VrfHandle {
        let vrfs = &mut self.pes[pe].vrfs;
        vrfs.push(VrfControl { rd, import, export, local: Vec::new(), table: LpmTrie::new() });
        VrfHandle { pe, index: vrfs.len() - 1 }
    }

    /// Adds an import target to a VRF (extranet provisioning). Takes
    /// effect for subsequently distributed routes; call
    /// [`BgpVpnFabric::refresh_vrf`] to pull existing ones.
    pub fn add_import_target(&mut self, vrf: VrfHandle, rt: RouteTarget) {
        let v = &mut self.pes[vrf.pe].vrfs[vrf.index];
        if !v.import.contains(&rt) {
            v.import.push(rt);
        }
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

    /// Removes an import target from a VRF. Already-imported routes stay
    /// until the next [`BgpVpnFabric::refresh_vrf`] — exactly the stale
    /// state the static verifier exists to catch.
    pub fn remove_import_target(&mut self, vrf: VrfHandle, rt: RouteTarget) {
        self.pes[vrf.pe].vrfs[vrf.index].import.retain(|t| *t != rt);
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
    /// from the attached CE): allocates a VPN label, records it as the
    /// VRF's local route, and distributes the route to every importing
    /// VRF. The PE's data plane dispatches the label (`vpn_ilm` of the
    /// PE router), not the fabric.
    /// Returns the VPN label and every VRF that selected the new route, in
    /// fabric order (PE, then VRF index).
    pub fn advertise(&mut self, vrf: VrfHandle, prefix: Prefix) -> (u32, Vec<RouteChange>) {
        let pe = &mut self.pes[vrf.pe];
        let label = pe.label_space.allocate();
        let v = &mut pe.vrfs[vrf.index];
        v.local.push((prefix, label));
        let mut ad = VpnRouteAd {
            rd: v.rd,
            prefix,
            egress_pe: vrf.pe,
            vpn_label: label,
            export_targets: v.export.clone(),
            origin: vrf,
            holders: Vec::new(),
        };
        let changed = self.distribute(&mut ad);
        self.rib.push(ad);
        (label, changed)
    }

    /// Withdraws a previously advertised prefix: removes it from every
    /// importer, frees the label, drops the local route — and, where
    /// another PE still advertises the same prefix (a multihomed site),
    /// fails importers over to the next-best path. Returns every VRF that
    /// held the withdrawn route, with its failover, in fabric order.
    pub fn withdraw(&mut self, vrf: VrfHandle, prefix: Prefix) -> Vec<RouteChange> {
        let Some(pos) = self.rib.iter().position(|ad| ad.origin == vrf && ad.prefix == prefix)
        else {
            return Vec::new();
        };
        let mut ad = self.rib.swap_remove(pos);
        // Withdrawal costs the same messages as the announcement.
        self.messages += self.update_fanout();
        let withdrawn = ad.route();
        // Only a VRF the route was installed into can hold it.
        ad.holders.sort_unstable_by_key(|h| (h.pe, h.index));
        let mut changed = Vec::with_capacity(ad.holders.len());
        let BgpVpnFabric { pes, rib, .. } = self;
        for &h in &ad.holders {
            let v = &mut pes[h.pe].vrfs[h.index];
            if v.table.get(prefix) != Some(&withdrawn) {
                continue;
            }
            v.table.remove(prefix);
            // Failover: best remaining importable advertisement.
            let best = rib
                .iter_mut()
                .filter(|x| {
                    x.prefix == prefix
                        && x.egress_pe != h.pe
                        && v.import.iter().any(|t| x.export_targets.contains(t))
                })
                .min_by_key(|x| (x.egress_pe, x.vpn_label))
                .map(|x| {
                    x.held_by(h);
                    x.route()
                });
            if let Some(alt) = best {
                v.table.insert(prefix, alt);
            }
            changed.push((h, best));
        }
        let pe = &mut self.pes[vrf.pe];
        pe.label_space.release(ad.vpn_label);
        pe.vrfs[vrf.index].local.retain(|(p, _)| *p != prefix);
        changed
    }

    /// Messages one update costs: PE → RR, then RR reflects to the other
    /// P−1 PEs.
    fn update_fanout(&self) -> u64 {
        1 + (self.pes.len() as u64).saturating_sub(1)
    }

    /// BGP best-path tie-break for two advertisements of the same prefix
    /// importable by the same VRF (a multihomed site): deterministic —
    /// lowest egress PE, then lowest label.
    fn better(a: &RemoteRoute, b: &RemoteRoute) -> bool {
        (a.egress_pe, a.vpn_label) < (b.egress_pe, b.vpn_label)
    }

    /// Offers `ad` to every importing VRF and returns those that selected
    /// it, which become its holders.
    fn distribute(&mut self, ad: &mut VpnRouteAd) -> Vec<RouteChange> {
        self.messages += self.update_fanout();
        let cand = ad.route();
        // A VPN usually has one VRF per PE.
        let mut changed = Vec::with_capacity(self.pes.len());
        for (pi, pe) in self.pes.iter_mut().enumerate() {
            if pi == ad.egress_pe {
                continue; // local routes are reached directly, not tunneled
            }
            for (index, v) in pe.vrfs.iter_mut().enumerate() {
                if !v.import.iter().any(|t| ad.export_targets.contains(t)) {
                    continue;
                }
                if v.table.get(ad.prefix).is_none_or(|existing| Self::better(&cand, existing)) {
                    v.table.insert(ad.prefix, cand);
                    changed.push((VrfHandle { pe: pi, index }, Some(cand)));
                }
            }
        }
        ad.holders.extend(changed.iter().map(|&(h, _)| h));
        changed
    }

    /// Re-sends every RIB route to a VRF (used after adding a VRF to an
    /// already-running VPN — the "new site joins" path of experiment M1).
    /// Returns the number of routes imported.
    pub fn refresh_vrf(&mut self, vrf: VrfHandle) -> usize {
        let mut imported = 0;
        let BgpVpnFabric { pes, rib, messages } = self;
        let v = &mut pes[vrf.pe].vrfs[vrf.index];
        for ad in rib.iter_mut().filter(|ad| ad.egress_pe != vrf.pe) {
            if v.import.iter().any(|t| ad.export_targets.contains(t)) {
                let cand = ad.route();
                if v.table.get(ad.prefix).is_none_or(|existing| Self::better(&cand, existing)) {
                    v.table.insert(ad.prefix, cand);
                    ad.held_by(vrf);
                }
                imported += 1;
                *messages += 1; // RR replays one update
            }
        }
        imported
    }

    /// Re-applies `vrf`'s *current* import policy to its table: routes no
    /// longer covered by any import target are removed, newly importable
    /// RIB routes are added (best-path among candidates). This is the
    /// RT-policy delta path — a local Adj-RIB-In re-evaluation that costs
    /// zero update messages in either distribution mode, unlike
    /// [`BgpVpnFabric::refresh_vrf`] which only ever adds. Returns the
    /// `(added, removed)` prefix deltas with their routes, so a caller
    /// maintaining a data-plane mirror can apply exactly the change.
    #[allow(clippy::type_complexity)]
    pub fn refilter_vrf(
        &mut self,
        vrf: VrfHandle,
    ) -> (Vec<(Prefix, RemoteRoute)>, Vec<(Prefix, RemoteRoute)>) {
        // Desired state: best importable advertisement per prefix, with
        // its RIB position.
        let mut desired: Vec<(Prefix, RemoteRoute, usize)> = Vec::new();
        {
            let v = &self.pes[vrf.pe].vrfs[vrf.index];
            for (at, ad) in self.rib.iter().enumerate() {
                if ad.egress_pe == vrf.pe {
                    continue;
                }
                if !v.import.iter().any(|t| ad.export_targets.contains(t)) {
                    continue;
                }
                let cand = ad.route();
                match desired.iter_mut().find(|(p, ..)| *p == ad.prefix) {
                    Some((_, existing, _)) if !Self::better(&cand, existing) => {}
                    Some((_, existing, from)) => (*existing, *from) = (cand, at),
                    None => desired.push((ad.prefix, cand, at)),
                }
            }
        }
        let BgpVpnFabric { pes, rib, .. } = self;
        let v = &mut pes[vrf.pe].vrfs[vrf.index];
        let current: Vec<(Prefix, RemoteRoute)> = v.table.iter().map(|(p, r)| (p, *r)).collect();
        let mut removed = Vec::new();
        for (p, r) in &current {
            if !desired.iter().any(|(dp, ..)| dp == p) {
                v.table.remove(*p);
                removed.push((*p, *r));
            }
        }
        let mut added = Vec::new();
        for (p, r, at) in desired {
            match v.table.get(p) {
                Some(existing) if !Self::better(&r, existing) => {}
                _ => {
                    v.table.insert(p, r);
                    rib[at].held_by(vrf);
                    added.push((p, r));
                }
            }
        }
        (added, removed)
    }

    /// The imported remote-route table of a VRF.
    pub fn routes(&self, vrf: VrfHandle) -> &LpmTrie<RemoteRoute> {
        &self.pes[vrf.pe].vrfs[vrf.index].table
    }

    /// The locally originated `(prefix, vpn_label)` pairs of a VRF.
    pub fn local_routes(&self, vrf: VrfHandle) -> &[(Prefix, u32)] {
        &self.pes[vrf.pe].vrfs[vrf.index].local
    }

    /// Per-PE control state size: (VRFs, imported routes, live VPN labels).
    /// The T1 state metric.
    pub fn pe_state(&self, pe: usize) -> (usize, usize, u64) {
        let p = &self.pes[pe];
        let routes = p.vrfs.iter().map(|v| v.table.len() + v.local.len()).sum();
        (p.vrfs.len(), routes, p.label_space.live())
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
        let a0 = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]);
        let a1 = f.add_vrf(1, rd(1), vec![RT_A], vec![RT_A]);
        let b0 = f.add_vrf(0, rd(2), vec![RT_B], vec![RT_B]);
        let b2 = f.add_vrf(2, rd(2), vec![RT_B], vec![RT_B]);

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
        let a = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]);
        let b = f.add_vrf(0, rd(2), vec![RT_B], vec![RT_B]);
        let (la, _) = f.advertise(a, pfx("10.0.0.0/8"));
        let (lb, _) = f.advertise(b, pfx("10.0.0.0/8"));
        assert_ne!(la, lb);
        // Each label names its own VRF's prefix, and no other VRF's.
        assert_eq!(f.local_routes(a), [(pfx("10.0.0.0/8"), la)]);
        assert_eq!(f.local_routes(b), [(pfx("10.0.0.0/8"), lb)]);
        // PE1 hosts no VRF, so it dispatches nothing.
        assert_eq!(f.pe_state(1), (0, 0, 0));
    }

    #[test]
    fn message_counting_per_update() {
        let mut f = BgpVpnFabric::new(5);
        assert_eq!(f.session_count(), 5, "one session per PE, to the RR");
        let v = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]);
        f.advertise(v, pfx("192.168.0.0/24"));
        // PE → RR (1) + RR → 4 other PEs.
        assert_eq!(f.messages(), 5);
    }

    #[test]
    fn withdraw_removes_route_and_frees_label() {
        let mut f = BgpVpnFabric::new(2);
        let a0 = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]);
        let a1 = f.add_vrf(1, rd(1), vec![RT_A], vec![RT_A]);
        let (l, _) = f.advertise(a1, pfx("172.16.0.0/12"));
        assert!(f.routes(a0).lookup(pfx("172.16.0.0/12").addr()).is_some());
        f.withdraw(a1, pfx("172.16.0.0/12"));
        assert!(f.routes(a0).lookup(pfx("172.16.0.0/12").addr()).is_none());
        assert!(f.local_routes(a1).iter().all(|&(_, x)| x != l), "label {l} still dispatched");
        assert_eq!(f.pe_state(1).2, 0, "label freed");
        // Idempotent on a second withdraw.
        f.withdraw(a1, pfx("172.16.0.0/12"));
    }

    #[test]
    fn hub_and_spoke_via_asymmetric_targets() {
        // Spokes export RT_A, import RT_B; hub exports RT_B, imports RT_A:
        // spokes see only the hub, the hub sees all spokes.
        let mut f = BgpVpnFabric::new(3);
        let hub = f.add_vrf(0, rd(10), vec![RT_A], vec![RT_B]);
        let s1 = f.add_vrf(1, rd(11), vec![RT_B], vec![RT_A]);
        let s2 = f.add_vrf(2, rd(12), vec![RT_B], vec![RT_A]);
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
    fn late_joining_vrf_catches_up_with_refresh() {
        let mut f = BgpVpnFabric::new(3);
        let a0 = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]);
        f.advertise(a0, pfx("10.0.0.0/24"));
        let a1 = f.add_vrf(1, rd(1), vec![RT_A], vec![RT_A]);
        f.advertise(a1, pfx("10.1.0.0/24"));
        // The late VRF missed the first update until refreshed.
        let late = f.add_vrf(2, rd(1), vec![RT_A], vec![RT_A]);
        assert!(f.routes(late).is_empty());
        assert_eq!(f.refresh_vrf(late), 2);
        assert_eq!(f.routes(late).len(), 2);
    }

    /// A site advertised from two PEs (multihoming): importers pick the
    /// deterministic best path, and a withdraw fails them over to the
    /// survivor.
    #[test]
    fn multihomed_prefix_best_path_and_failover() {
        let mut f = BgpVpnFabric::new(3);
        let v0 = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]); // importer
        let v1 = f.add_vrf(1, rd(1), vec![RT_A], vec![RT_A]); // primary home
        let v2 = f.add_vrf(2, rd(1), vec![RT_A], vec![RT_A]); // backup home
        let p = pfx("10.5.0.0/16");
        let (l1, _) = f.advertise(v1, p);
        let (l2, _) = f.advertise(v2, p);
        // Best path: lowest egress PE (1) regardless of arrival order.
        let r = f.routes(v0).lookup(p.addr()).copied().unwrap();
        assert_eq!((r.egress_pe, r.vpn_label), (1, l1));
        // Primary withdraws: importer fails over to PE2.
        f.withdraw(v1, p);
        let r = f.routes(v0).lookup(p.addr()).copied().unwrap();
        assert_eq!((r.egress_pe, r.vpn_label), (2, l2));
        // Backup withdraws too: the prefix is gone.
        f.withdraw(v2, p);
        assert!(f.routes(v0).lookup(p.addr()).is_none());
    }

    /// Best-path choice is independent of advertisement order.
    #[test]
    fn multihoming_is_order_independent() {
        let order_a = {
            let mut f = BgpVpnFabric::new(3);
            let v0 = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]);
            let v1 = f.add_vrf(1, rd(1), vec![RT_A], vec![RT_A]);
            let v2 = f.add_vrf(2, rd(1), vec![RT_A], vec![RT_A]);
            f.advertise(v1, pfx("10.5.0.0/16"));
            f.advertise(v2, pfx("10.5.0.0/16"));
            f.routes(v0).lookup(pfx("10.5.0.0/16").addr()).copied().unwrap().egress_pe
        };
        let order_b = {
            let mut f = BgpVpnFabric::new(3);
            let v0 = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]);
            let v1 = f.add_vrf(1, rd(1), vec![RT_A], vec![RT_A]);
            let v2 = f.add_vrf(2, rd(1), vec![RT_A], vec![RT_A]);
            f.advertise(v2, pfx("10.5.0.0/16"));
            f.advertise(v1, pfx("10.5.0.0/16"));
            f.routes(v0).lookup(pfx("10.5.0.0/16").addr()).copied().unwrap().egress_pe
        };
        assert_eq!(order_a, order_b);
        assert_eq!(order_a, 1);
    }

    /// Re-filtering after an RT change removes now-unimportable routes and
    /// pulls newly importable ones — and reports exactly the delta.
    #[test]
    fn refilter_applies_import_policy_deltas() {
        let mut f = BgpVpnFabric::new(3);
        let a0 = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]);
        let a1 = f.add_vrf(1, rd(1), vec![RT_A], vec![RT_A]);
        let b2 = f.add_vrf(2, rd(2), vec![RT_B], vec![RT_B]);
        f.advertise(a1, pfx("10.1.0.0/16"));
        f.advertise(b2, pfx("10.9.0.0/16"));
        assert_eq!(f.routes(a0).len(), 1);

        // Import RT_B too: the refilter pulls b2's route without messages.
        let before = f.messages();
        f.add_import_target(a0, RT_B);
        let (added, removed) = f.refilter_vrf(a0);
        assert_eq!(f.messages(), before, "RT policy is local, not an update");
        assert_eq!(added.len(), 1);
        assert_eq!(added[0].0, pfx("10.9.0.0/16"));
        assert!(removed.is_empty());
        assert_eq!(f.routes(a0).len(), 2);

        // Drop RT_A: its route leaves and the delta says so.
        f.remove_import_target(a0, RT_A);
        let (added, removed) = f.refilter_vrf(a0);
        assert!(added.is_empty());
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].0, pfx("10.1.0.0/16"));
        assert_eq!(f.routes(a0).len(), 1);

        // Idempotent once settled.
        let (added, removed) = f.refilter_vrf(a0);
        assert!(added.is_empty() && removed.is_empty());
    }

    #[test]
    fn pe_state_counts() {
        let mut f = BgpVpnFabric::new(2);
        let a0 = f.add_vrf(0, rd(1), vec![RT_A], vec![RT_A]);
        let a1 = f.add_vrf(1, rd(1), vec![RT_A], vec![RT_A]);
        f.advertise(a0, pfx("10.0.0.0/24"));
        f.advertise(a1, pfx("10.1.0.0/24"));
        let (vrfs, routes, labels) = f.pe_state(0);
        assert_eq!(vrfs, 1);
        assert_eq!(routes, 2, "one local + one imported");
        assert_eq!(labels, 1);
    }
}
