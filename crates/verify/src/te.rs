//! Pass 4: TE accounting — trunk reservations vs. reservable bandwidth.
//!
//! Reads the admitted-trunk state of a [`TeDomain`] and checks:
//!
//! * no link carries more total reservation than its capacity
//!   (`V-TE-001`);
//! * every admitted trunk's constraints are satisfiable at all — i.e.
//!   CSPF finds a path on an *empty* network; a trunk whose demand
//!   exceeds every cut between its endpoints can only exist through
//!   corrupted accounting (`V-TE-002`);
//! * the per-priority reservation counters equal the sum of demands of
//!   the trunks holding them (`V-TE-003`).

use crate::diag::{codes, Severity, VerifyReport};
use netsim_te::{cspf_path, trunk::PRIORITIES, TeDomain};

/// Runs the TE accounting pass over an admitted-trunk database.
pub fn verify_te(te: &TeDomain, report: &mut VerifyReport) {
    let topo = te.topology();
    // Recompute what the per-priority ledgers should say.
    let mut expect = vec![[0u64; PRIORITIES]; topo.link_count()];
    for (id, req, links) in te.trunk_entries() {
        for &l in links {
            expect[l][req.hold_priority as usize] += req.demand_bps;
        }
        let demand = req.demand_bps;
        if cspf_path(topo, req.src, req.dst, &|l| topo.link(l).2.capacity_bps >= demand).is_none() {
            report.push(
                codes::TE_UNSATISFIABLE,
                Severity::Error,
                format!("trunk {}", id.0),
                format!(
                    "no path from {} to {} can carry {demand} b/s even on an empty network",
                    req.src, req.dst
                ),
            );
        }
    }
    for (link, expect_prios) in expect.iter().enumerate() {
        let (u, v, attrs) = topo.link(link);
        let total = te.reserved_bps(link);
        if total > attrs.capacity_bps {
            report.push(
                codes::TE_OVERSUB,
                Severity::Error,
                format!("link {u}-{v}"),
                format!("reservations total {total} b/s on a {} b/s link", attrs.capacity_bps),
            );
        }
        for (prio, &want) in expect_prios.iter().enumerate() {
            #[allow(clippy::cast_possible_truncation)]
            let held = te.reserved_at(link, prio as u8);
            if held != want {
                report.push(
                    codes::TE_ACCOUNTING,
                    Severity::Error,
                    format!("link {u}-{v} prio {prio}"),
                    format!("ledger holds {held} b/s but admitted trunks account for {want} b/s"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_routing::{LinkAttrs, Topology};
    use netsim_te::TrunkRequest;

    fn line(capacity_bps: u64) -> Topology {
        let mut t = Topology::new(3);
        let attrs = LinkAttrs { cost: 1, capacity_bps };
        t.add_link(0, 1, attrs);
        t.add_link(1, 2, attrs);
        t
    }

    #[test]
    fn admitted_trunks_verify_clean() {
        let mut te = TeDomain::new(line(100_000_000));
        te.signal(TrunkRequest::new(0, 2, 40_000_000).priority(2)).unwrap();
        te.signal(TrunkRequest::new(0, 2, 30_000_000).priority(5)).unwrap();
        let mut r = VerifyReport::new();
        verify_te(&te, &mut r);
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.diagnostics().len(), 0, "{r}");
    }

    #[test]
    fn ledger_corruption_is_caught() {
        let mut te = TeDomain::new(line(100_000_000));
        let (id, _) = te.signal(TrunkRequest::new(0, 2, 40_000_000)).unwrap();
        // Simulate a double-release / lost-teardown accounting bug.
        te.corrupt_reservation_for_test(0, 7, 10_000_000);
        let mut r = VerifyReport::new();
        verify_te(&te, &mut r);
        assert!(r.has_code(codes::TE_ACCOUNTING), "{r}");
        let _ = id;
    }

    #[test]
    fn oversubscribed_link_is_caught() {
        let mut te = TeDomain::new(line(100_000_000));
        te.signal(TrunkRequest::new(0, 2, 90_000_000)).unwrap();
        te.corrupt_reservation_for_test(1, 3, 50_000_000);
        let mut r = VerifyReport::new();
        verify_te(&te, &mut r);
        assert!(r.has_code(codes::TE_OVERSUB), "{r}");
    }
}
