//! Static verification of a provisioned [`ProviderNetwork`].
//!
//! This module runs the four [`netsim_verify`] passes over a running
//! provider network:
//!
//! 1. **Label plane** — the pass reads the routers' live tables through
//!    [`LabelPlane`]: every router's installed LFIB is checked for
//!    dangling references, black holes, loops and reserved-label misuse,
//!    and every ingress stack (live LDP FTNs and per-VRF remote routes)
//!    is walked over the links that are up.
//! 2. **VRF isolation** — the route-target import/export graph is
//!    checked for cross-VPN leaks (unless declared via
//!    [`ProviderNetwork::declare_extranet`]) and intra-VPN partitions.
//! 3. **QoS lints** — each PE's DSCP↔EXP map, the RED profile the
//!    builder installs on the AF bands of a strict-priority core, and EF
//!    admission against every backbone link.
//! 4. **TE** — the pass reads the admitted trunks through
//!    [`netsim_verify::TePlane`]: no link reserved past capacity, no
//!    trunk unsatisfiable on an empty network, and every trunk's FTN,
//!    walked over the links that are up, visits exactly the path it
//!    reserved.
//!
//! A healthy network produced by [`crate::BackboneBuilder`] verifies
//! clean; every experiment binary and example asserts this before
//! injecting traffic or faults.

use netsim_mpls::Nhlfe;
use netsim_routing::VrfHandle;
use netsim_verify::{
    codes, lint_ef_admission, lint_exp_map, lint_red_profile, verify_isolation, verify_label_plane,
    verify_te, LabelPlane, Severity, StackWalk, VerifyReport, VrfPolicy,
};

use crate::network::{af_band_red, CoreQos, DsSched, ProviderNetwork, VpnId};
use crate::router::{PeRouter, VrfRoute};

/// Fraction of a backbone link's capacity the EF aggregate may commit
/// to: the paper's premium class stays low-delay only while it is
/// under-subscribed, so admission is checked against half of every
/// link (the worst case of all contracts concentrating on one link).
pub const EF_SHARE: f64 = 0.5;

impl ProviderNetwork {
    /// Declares that VPN `a` and VPN `b` intentionally exchange routes
    /// (an extranet). The verifier then reports their route-target
    /// coupling as informational instead of a `V-VRF-001` leak.
    pub fn declare_extranet(&mut self, a: VpnId, b: VpnId) {
        let pair = if a.0 <= b.0 { (a, b) } else { (b, a) };
        if !self.extranets.contains(&pair) {
            self.extranets.push(pair);
        }
    }

    /// Commits an EF (premium) contract of `rate_bps` for `name`; the
    /// verifier checks the EF aggregate against [`EF_SHARE`] of every
    /// backbone link.
    pub fn commit_ef_contract(&mut self, name: impl Into<String>, rate_bps: u64) {
        self.ef_contracts.push(netsim_verify::EfContract { name: name.into(), rate_bps });
    }

    /// Statically analyzes the provisioned control and QoS state and
    /// returns the diagnostics. A freshly built healthy network is
    /// clean; see [`netsim_verify`] for the diagnostic-code table. The
    /// label pass reads the routers' live tables. Its per-entry checks
    /// hold whatever the link state, but its stack walks cross only links
    /// that are up: between a cut and its detection, every FTN and VRF
    /// route whose stack crosses the cut is reported as `V-LBL-001` until
    /// the routers repair it. Only VRF routes that have landed are walked:
    /// provisioning reaches remote PEs when the simulator runs
    /// (`run_for(0)` under the oracle). An admitted trunk is walked the
    /// same way, so a trunk whose path crosses a cut link is `V-TE-004`
    /// until the link is repaired or [`ProviderNetwork::reconverge`]
    /// clears the record.
    pub fn verify(&self) -> VerifyReport {
        let mut report = VerifyReport::new();
        let walks = self.stack_walks(&mut report);
        verify_label_plane(self, &walks, &mut report);
        let extranets: Vec<(usize, usize)> =
            self.extranets.iter().map(|&(a, b)| (a.0, b.0)).collect();
        verify_isolation(&self.vrf_policies(), &extranets, &mut report);
        self.lint_qos(&mut report);
        verify_te(self, &mut report);
        report
    }

    /// One stack walk per live FTN (each router's own control-plane
    /// view) and per remote VRF route over the tunnel it resolves to. A
    /// remote route that resolves to no tunnel cannot be walked; it is
    /// reported as a `V-LBL-003` black hole.
    fn stack_walks(&self, report: &mut VerifyReport) -> Vec<StackWalk> {
        let mut walks = Vec::new();
        for u in 0..self.topo.node_count() {
            for (f, &egress) in self.pes.iter().enumerate().filter(|&(_, &e)| e != u) {
                let Some(ftn) = self.backbone(u).1.ftn(f) else { continue };
                walks.push(StackWalk {
                    origin: u,
                    fec: format!("{} Fec({f})", self.node_name(u)),
                    push: ftn.push.into_iter().collect(),
                    out_iface: ftn.out_iface,
                    expect_delivery: Some(egress),
                });
            }
        }
        for (k, &pe_topo) in self.pes.iter().enumerate() {
            let pe = self.net.node_ref::<PeRouter>(self.node_ids[pe_topo]);
            for (index, (vrf, vpn)) in pe.vrfs.iter().zip(&self.vrf_vpns[k]).enumerate() {
                let selected = self.fabric.routes(VrfHandle { pe: k, index });
                for (prefix, route) in vrf.fib.iter() {
                    let VrfRoute::Remote { egress_pe, vpn_label, .. } = route else {
                        continue;
                    };
                    let fec = format!("PE{k} vrf {} {prefix}", self.vpns[vpn.0].name);
                    let Some(tunnel) = PeRouter::resolve_tunnel(&pe.tunnels, route) else {
                        report.push(
                            codes::LBL_BLACKHOLE,
                            Severity::Error,
                            fec,
                            format!("remote route resolves to no tunnel toward PE{egress_pe}"),
                        );
                        continue;
                    };
                    // A route from another domain names this domain's ASBR
                    // as its next hop; its stack unwinds at the PE that
                    // originated it, the fabric's selection.
                    let origin = selected
                        .get(prefix)
                        .map(|r| r.egress_pe)
                        .filter(|&o| !self.same_domain(o, k))
                        .unwrap_or(*egress_pe);
                    let mut push = vec![*vpn_label];
                    push.extend(tunnel.push);
                    walks.push(StackWalk {
                        origin: pe_topo,
                        fec,
                        push,
                        out_iface: tunnel.out_iface,
                        expect_delivery: Some(self.pes[origin]),
                    });
                }
            }
        }
        walks
    }

    /// Snapshot of every VRF's route-target policy, sorted for
    /// deterministic diagnostics.
    fn vrf_policies(&self) -> Vec<VrfPolicy> {
        let mut policies: Vec<VrfPolicy> = self
            .vrfs()
            .map(|(vrf, vpn)| VrfPolicy {
                name: format!("PE{}:{}", vrf.pe, self.vpns[vpn.0].name),
                vpn: vpn.0,
                imports: self.fabric.import_targets(vrf).iter().map(|rt| rt.0).collect(),
                exports: self.fabric.export_targets(vrf).iter().map(|rt| rt.0).collect(),
            })
            .collect();
        policies.sort_by(|a, b| a.name.cmp(&b.name));
        policies
    }

    fn lint_qos(&self, report: &mut VerifyReport) {
        for (k, &pe_topo) in self.pes.iter().enumerate() {
            let pe = self.net.node_ref::<PeRouter>(self.node_ids[pe_topo]);
            lint_exp_map(&pe.exp_map, &format!("PE{k}"), report);
        }
        if let CoreQos::DiffServ { cap_bytes, sched: DsSched::Priority } = self.core_qos {
            let (red, per_band) = af_band_red(cap_bytes);
            lint_red_profile(&red, per_band, "core DiffServ AF band", report);
        }
        let links: Vec<(String, u64)> = (0..self.topo.link_count())
            .map(|l| {
                let (u, v, attrs) = self.topo.link(l);
                (format!("link {u}-{v}"), attrs.capacity_bps)
            })
            .collect();
        lint_ef_admission(&self.ef_contracts, &links, EF_SHARE, report);
    }
}

/// The live routers as the label pass reads them: a PE is named by its
/// ordinal, a P router by its node.
impl LabelPlane for ProviderNetwork {
    fn node_name(&self, node: usize) -> String {
        match self.pes.iter().position(|&p| p == node) {
            Some(k) => format!("PE{k}"),
            None => format!("P{node}"),
        }
    }
    fn ilm(&self, node: usize) -> impl Iterator<Item = (u32, Nhlfe)> + '_ {
        self.backbone(node).0.iter().map(|(l, e)| (l, *e))
    }
}
