//! Static verification of a provisioned [`ProviderNetwork`].
//!
//! This module extracts the neutral models consumed by the
//! [`netsim_verify`] passes from a running provider network and runs
//! three of its four passes (the TE pass,
//! [`netsim_verify::verify_te`], operates on a standalone
//! [`netsim_te::TeDomain`] and is called directly by the experiments
//! that build one):
//!
//! 1. **Label plane** — every router's LFIB plus every ingress stack
//!    (live LDP FTNs and per-VRF remote routes) is checked for dangling
//!    references, black holes, loops and reserved-label misuse.
//! 2. **VRF isolation** — the route-target import/export graph is
//!    checked for cross-VPN leaks (unless declared via
//!    [`ProviderNetwork::declare_extranet`]) and intra-VPN partitions.
//! 3. **QoS lints** — each PE's DSCP↔EXP map, the core RED drop
//!    profile, and EF admission against every backbone link.
//!
//! A healthy network produced by [`crate::BackboneBuilder`] verifies
//! clean; every experiment binary and example asserts this before
//! injecting traffic or faults.

use netsim_qos::RedParams;
use netsim_verify::{
    codes, lint_ef_admission, lint_exp_map, lint_red_profile, verify_isolation, verify_label_plane,
    LabelNode, LabelPlane, Severity, StackWalk, VerifyReport, VrfPolicy,
};

use crate::network::{CoreQos, ProviderNetwork, VpnId};
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
    /// clean; see [`netsim_verify`] for the diagnostic-code table. Only
    /// VRF routes that have landed are walked: provisioning reaches remote
    /// PEs when the simulator runs (`run_for(0)` under the oracle).
    pub fn verify(&self) -> VerifyReport {
        let mut report = VerifyReport::new();
        let plane = self.extract_label_plane(&mut report);
        verify_label_plane(&plane, &mut report);
        let extranets: Vec<(usize, usize)> =
            self.extranets.iter().map(|&(a, b)| (a.0, b.0)).collect();
        verify_isolation(&self.vrf_policies(), &extranets, &mut report);
        self.lint_qos(&mut report);
        report
    }

    /// Builds the label-plane model: per-router ILMs straight out of
    /// the simulated routers, plus one stack walk per live FTN (each
    /// router's own control-plane view) and per remote VRF route over the
    /// tunnel it resolves to. A remote route that resolves to no tunnel
    /// cannot be walked; it is reported as a `V-LBL-003` black hole.
    fn extract_label_plane(&self, report: &mut VerifyReport) -> LabelPlane {
        let n = self.topo.node_count();
        let mut nodes = Vec::with_capacity(n);
        for u in 0..n {
            let neighbors: Vec<Option<usize>> =
                self.topo.neighbors(u).map(|(v, _, _)| Some(v)).collect();
            let (name, local_labels) = if let Some(k) = self.pe_ordinal(u) {
                let pe = self.net.node_ref::<PeRouter>(self.node_ids[u]);
                let mut locals: Vec<u32> = pe.vpn_ilm.keys().copied().collect();
                locals.sort_unstable();
                (format!("PE{k}"), locals)
            } else {
                (format!("P{u}"), Vec::new())
            };
            let ilm = self.backbone(u).0.iter().map(|(l, e)| (l, *e)).collect();
            nodes.push(LabelNode { name, neighbors, ilm, local_labels });
        }

        let mut walks = Vec::new();
        for (u, lnode) in nodes.iter().enumerate() {
            for (f, &egress) in self.pes.iter().enumerate().filter(|&(_, &e)| e != u) {
                let Some(ftn) = self.backbone(u).1.ftn(f) else { continue };
                walks.push(StackWalk {
                    origin: u,
                    fec: format!("{} Fec({f})", lnode.name),
                    push: ftn.push.into_iter().collect(),
                    out_iface: ftn.out_iface,
                    expect_delivery: Some(egress),
                });
            }
        }
        for (k, &pe_topo) in self.pes.iter().enumerate() {
            let pe = self.net.node_ref::<PeRouter>(self.node_ids[pe_topo]);
            for vrf in &pe.vrfs {
                for (prefix, route) in vrf.fib.iter() {
                    let VrfRoute::Remote { egress_pe, vpn_label, .. } = route else {
                        continue;
                    };
                    let fec = format!("PE{k} vrf {} {prefix}", vrf.name);
                    let Some(tunnel) = PeRouter::resolve_tunnel(&pe.tunnels, route) else {
                        report.push(
                            codes::LBL_BLACKHOLE,
                            Severity::Error,
                            fec,
                            format!("remote route resolves to no tunnel toward PE{egress_pe}"),
                        );
                        continue;
                    };
                    let mut push = vec![*vpn_label];
                    push.extend(tunnel.push);
                    walks.push(StackWalk {
                        origin: pe_topo,
                        fec,
                        push,
                        out_iface: tunnel.out_iface,
                        expect_delivery: Some(self.pes[*egress_pe]),
                    });
                }
            }
        }
        LabelPlane { nodes, walks }
    }

    /// Snapshot of every VRF's route-target policy, sorted for
    /// deterministic diagnostics.
    fn vrf_policies(&self) -> Vec<VrfPolicy> {
        let mut policies: Vec<VrfPolicy> = self
            .vrf_handles
            .iter()
            .map(|(&(pe, vpn), &(handle, _))| VrfPolicy {
                name: format!("PE{pe}:{}", self.vpns[vpn.0].name),
                vpn: vpn.0,
                imports: self.fabric.import_targets(handle).iter().map(|rt| rt.0).collect(),
                exports: self.fabric.export_targets(handle).iter().map(|rt| rt.0).collect(),
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
        if let CoreQos::DiffServ { cap_bytes, .. } = self.core_qos {
            // Mirror the AF-band RED profile BackboneBuilder installs.
            let per_band = cap_bytes / 8;
            lint_red_profile(
                &RedParams::new(per_band / 4, per_band * 3 / 4),
                per_band,
                "core DiffServ AF band",
                report,
            );
        }
        let links: Vec<(String, u64)> = (0..self.topo.link_count())
            .map(|l| {
                let (u, v, attrs) = self.topo.link(l);
                (format!("link {u}-{v}"), attrs.capacity_bps)
            })
            .collect();
        lint_ef_admission(&self.ef_contracts, &links, EF_SHARE, report);
    }

    fn pe_ordinal(&self, topo_node: usize) -> Option<usize> {
        self.pes.iter().position(|&p| p == topo_node)
    }
}
