//! Pass 2: VRF isolation — the paper's §4.3 zero-leakage claim.
//!
//! Builds the directed reachability relation induced by route-target
//! import/export policies (`a → b` iff some RT exported by `a` is
//! imported by `b`) and checks it against intent:
//!
//! * an edge between different VPNs is a **leak** (`V-VRF-001`) unless
//!   that VPN pair is a declared extranet, in which case it is reported
//!   as an informational refutation of strict separation (`V-VRF-002`);
//! * missing edges inside one VPN mean a **partitioned VPN**
//!   (`V-VRF-003`);
//! * imports nobody exports are dead configuration (`V-VRF-004`).

use crate::diag::{codes, VerifyReport};

/// The route-target policy of one VRF, plus which VPN it belongs to.
#[derive(Clone, Debug)]
pub struct VrfPolicy {
    /// Display name, e.g. `PE0:acme`.
    pub name: String,
    /// VPN (customer) index the VRF was provisioned for.
    pub vpn: usize,
    /// Imported route-target values.
    pub imports: Vec<u64>,
    /// Exported route-target values.
    pub exports: Vec<u64>,
}

fn edge(from: &VrfPolicy, to: &VrfPolicy) -> bool {
    from.exports.iter().any(|rt| to.imports.contains(rt))
}

/// Runs the isolation pass. `extranets` lists VPN pairs whose
/// cross-importing is intended (order-insensitive).
pub fn verify_isolation(
    vrfs: &[VrfPolicy],
    extranets: &[(usize, usize)],
    report: &mut VerifyReport,
) {
    let allowed =
        |a: usize, b: usize| extranets.iter().any(|&(x, y)| (x, y) == (a, b) || (x, y) == (b, a));
    for (i, a) in vrfs.iter().enumerate() {
        for (j, b) in vrfs.iter().enumerate() {
            if i == j {
                continue;
            }
            let reach = edge(a, b);
            if a.vpn == b.vpn {
                if !reach {
                    report.push(
                        codes::VRF_PARTITION,
                        format!("{} ↛ {}", a.name, b.name),
                        format!(
                            "VRFs of the same VPN {} cannot exchange routes \
                             (no exported RT of the former is imported by the latter)",
                            a.vpn
                        ),
                    );
                }
            } else if reach {
                if allowed(a.vpn, b.vpn) {
                    report.push(
                        codes::VRF_EXTRANET,
                        format!("{} → {}", a.name, b.name),
                        "declared extranet: cross-VPN reachability is intended".to_string(),
                    );
                } else {
                    report.push(
                        codes::VRF_LEAK,
                        format!("{} → {}", a.name, b.name),
                        format!(
                            "routes of VPN {} leak into VPN {} via a shared route target",
                            a.vpn, b.vpn
                        ),
                    );
                }
            }
        }
        for rt in &a.imports {
            if !vrfs.iter().any(|v| v.exports.contains(rt)) {
                report.push(
                    codes::VRF_USELESS_IMPORT,
                    format!("{} import {rt}", a.name),
                    "imported route target is exported by no VRF (typo or stale policy?)"
                        .to_string(),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vrf(name: &str, vpn: usize, imports: &[u64], exports: &[u64]) -> VrfPolicy {
        VrfPolicy { name: name.into(), vpn, imports: imports.to_vec(), exports: exports.to_vec() }
    }

    #[test]
    fn two_disjoint_vpns_are_clean() {
        let vrfs = [
            vrf("PE0:acme", 0, &[100], &[100]),
            vrf("PE1:acme", 0, &[100], &[100]),
            vrf("PE0:globex", 1, &[101], &[101]),
            vrf("PE1:globex", 1, &[101], &[101]),
        ];
        let mut r = VerifyReport::new();
        verify_isolation(&vrfs, &[], &mut r);
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.diagnostics().len(), 0);
    }

    #[test]
    fn shared_rt_without_declaration_is_a_leak() {
        let vrfs = [vrf("PE0:acme", 0, &[100], &[100]), vrf("PE1:globex", 1, &[101, 100], &[101])];
        let mut r = VerifyReport::new();
        verify_isolation(&vrfs, &[], &mut r);
        assert!(r.has_code(codes::VRF_LEAK), "{r}");
        assert!(!r.is_clean());
    }

    #[test]
    fn declared_extranet_downgrades_to_info() {
        let vrfs = [vrf("PE0:acme", 0, &[100], &[100]), vrf("PE1:globex", 1, &[101, 100], &[101])];
        let mut r = VerifyReport::new();
        verify_isolation(&vrfs, &[(0, 1)], &mut r);
        assert!(r.has_code(codes::VRF_EXTRANET), "{r}");
        assert!(!r.has_code(codes::VRF_LEAK), "{r}");
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn missing_import_partitions_the_vpn() {
        let vrfs = [vrf("PE0:acme", 0, &[100], &[100]), vrf("PE1:acme", 0, &[], &[100])];
        let mut r = VerifyReport::new();
        verify_isolation(&vrfs, &[], &mut r);
        assert!(r.has_code(codes::VRF_PARTITION), "{r}");
    }

    #[test]
    fn orphan_import_warns() {
        let vrfs = [vrf("PE0:acme", 0, &[100, 999], &[100])];
        let mut r = VerifyReport::new();
        verify_isolation(&vrfs, &[], &mut r);
        assert!(r.has_code(codes::VRF_USELESS_IMPORT), "{r}");
        assert!(r.is_clean(), "warnings must not fail pre-flight: {r}");
    }
}
