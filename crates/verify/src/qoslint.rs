//! Pass 3: QoS configuration lints — the §5 DiffServ pipeline.
//!
//! Pure functions over configuration values, so they apply equally to a
//! provisioned `ProviderNetwork`, a hand-built CPE tree, or a fuzzer's
//! mutation:
//!
//! * [`lint_cbq_tree`] — link-share over-subscription (`V-QOS-001`);
//! * [`lint_red_profile`] — RED threshold ordering (`V-QOS-003`);
//! * [`lint_ef_admission`] — EF aggregate vs. engineered link share
//!   (`V-QOS-004`).

use crate::diag::{codes, VerifyReport};
use netsim_qos::{CbqNodeConfig, RedParams};

/// Checks a CBQ link-share tree: the allocated rates of each node's
/// children must not exceed the node's own rate.
pub fn lint_cbq_tree(configs: &[CbqNodeConfig], location: &str, report: &mut VerifyReport) {
    for (i, cfg) in configs.iter().enumerate() {
        let child_sum: u64 =
            configs.iter().filter(|c| c.parent == Some(i)).map(|c| c.rate_bps).sum();
        if child_sum > cfg.rate_bps {
            report.push(
                codes::QOS_CBQ_OVERSUB,
                format!("{location} class {i}"),
                format!(
                    "children allocate {child_sum} b/s but the class is limited to {} b/s",
                    cfg.rate_bps
                ),
            );
        }
    }
}

/// Checks one RED drop profile against its queue capacity:
/// `0 ≤ min < max ≤ cap` and a sane drop probability.
pub fn lint_red_profile(
    params: &RedParams,
    cap_bytes: usize,
    location: &str,
    report: &mut VerifyReport,
) {
    #[allow(clippy::cast_precision_loss)]
    let cap = cap_bytes as f64;
    if !(params.min_th_bytes >= 0.0
        && params.min_th_bytes < params.max_th_bytes
        && params.max_th_bytes <= cap)
    {
        report.push(
            codes::QOS_WRED_ORDER,
            location.to_string(),
            format!(
                "thresholds out of order: need min < max ≤ cap, got min={} max={} cap={}",
                params.min_th_bytes, params.max_th_bytes, cap_bytes
            ),
        );
    }
    if !(params.max_p > 0.0 && params.max_p <= 1.0) {
        report.push(
            codes::QOS_WRED_ORDER,
            location.to_string(),
            format!("max_p={} is not a probability in (0, 1]", params.max_p),
        );
    }
}

/// One committed EF (premium) contract feeding the backbone.
#[derive(Clone, Debug)]
pub struct EfContract {
    /// Who the contract belongs to (diagnostic location).
    pub name: String,
    /// Committed EF rate in bits/s.
    pub rate_bps: u64,
}

/// Checks EF aggregate admission: the sum of committed EF rates must fit
/// within `ef_share` of every link it could concentrate on (the paper
/// engineers EF for low delay, which only holds under-subscribed).
pub fn lint_ef_admission(
    contracts: &[EfContract],
    links: &[(String, u64)],
    ef_share: f64,
    report: &mut VerifyReport,
) {
    let total: u64 = contracts.iter().map(|c| c.rate_bps).sum();
    if total == 0 {
        return;
    }
    for (name, capacity_bps) in links {
        #[allow(clippy::cast_precision_loss)]
        let budget = (*capacity_bps as f64) * ef_share;
        #[allow(clippy::cast_precision_loss)]
        if total as f64 > budget {
            report.push(
                codes::QOS_EF_ADMISSION,
                name.clone(),
                format!(
                    "EF aggregate {total} b/s exceeds the engineered EF share \
                     ({budget:.0} b/s = {ef_share} × {capacity_bps} b/s)"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_cbq_tree_is_clean() {
        let configs = vec![
            CbqNodeConfig { parent: None, rate_bps: 2_000_000, bounded: true, cap_bytes: 64_000 },
            CbqNodeConfig {
                parent: Some(0),
                rate_bps: 1_200_000,
                bounded: false,
                cap_bytes: 32_000,
            },
            CbqNodeConfig { parent: Some(0), rate_bps: 800_000, bounded: true, cap_bytes: 32_000 },
        ];
        let mut r = VerifyReport::new();
        lint_cbq_tree(&configs, "cpe", &mut r);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn oversubscribed_cbq_children_flagged() {
        let configs = vec![
            CbqNodeConfig { parent: None, rate_bps: 1_000_000, bounded: true, cap_bytes: 64_000 },
            CbqNodeConfig { parent: Some(0), rate_bps: 900_000, bounded: false, cap_bytes: 32_000 },
            CbqNodeConfig { parent: Some(0), rate_bps: 400_000, bounded: true, cap_bytes: 32_000 },
        ];
        let mut r = VerifyReport::new();
        lint_cbq_tree(&configs, "cpe", &mut r);
        assert!(r.has_code(codes::QOS_CBQ_OVERSUB), "{r}");
    }

    #[test]
    fn red_thresholds_must_be_ordered() {
        let ok = RedParams::new(10_000, 30_000);
        let mut r = VerifyReport::new();
        lint_red_profile(&ok, 40_000, "core", &mut r);
        assert!(r.is_clean(), "{r}");

        let mut inverted = RedParams::new(10_000, 30_000);
        std::mem::swap(&mut inverted.min_th_bytes, &mut inverted.max_th_bytes);
        lint_red_profile(&inverted, 40_000, "core-bad", &mut r);
        assert!(r.has_code(codes::QOS_WRED_ORDER), "{r}");

        let mut above_cap = VerifyReport::new();
        lint_red_profile(&RedParams::new(10_000, 50_000), 40_000, "core", &mut above_cap);
        assert!(above_cap.has_code(codes::QOS_WRED_ORDER), "{above_cap}");
    }

    #[test]
    fn ef_admission_respects_link_share() {
        let contracts = vec![
            EfContract { name: "seoul".into(), rate_bps: 30_000_000 },
            EfContract { name: "busan".into(), rate_bps: 30_000_000 },
        ];
        let links = vec![("PE0-P1".into(), 100_000_000u64)];
        let mut ok = VerifyReport::new();
        lint_ef_admission(&contracts, &links, 0.7, &mut ok);
        assert!(ok.is_clean(), "{ok}");
        let mut over = VerifyReport::new();
        lint_ef_admission(&contracts, &links, 0.5, &mut over);
        assert!(over.has_code(codes::QOS_EF_ADMISSION), "{over}");
    }
}
