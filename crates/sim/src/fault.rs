//! Seeded fault-injection plans.
//!
//! A [`FaultPlan`] is a deterministic schedule of link cuts, repairs and
//! flaps. Plans are either hand-written (regression scenarios) or generated
//! from a seed ([`FaultPlan::random`]) for chaos testing: the same seed
//! always yields the same schedule, so a failing chaos run can be replayed
//! bit-for-bit. Plans are pure data — the executor (in `mplsvpn-core`)
//! walks the schedule against a live network through
//! `ProviderNetwork::fail_link` and `repair_link`, which arm the detection
//! timers and LSA sequence a cut or repair needs.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::Nanos;

/// What a scheduled fault event does to its link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// The link goes down (fiber cut): its egress buffers flush to
    /// `LinkStats.dropped` and further offered packets are lost.
    Cut,
    /// The link comes back up.
    Repair,
}

/// One entry of a fault schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Absolute simulation time the event lands.
    pub at: Nanos,
    /// Topology link index the event applies to.
    pub link: usize,
    /// Cut or repair.
    pub action: FaultAction,
}

/// A deterministic schedule of link faults, sorted by time.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Builds a plan from explicit events (sorted by time; ties keep the
    /// given order, so a cut listed before a repair at the same instant is
    /// applied first).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// Generates a seeded random plan: `flaps` cut/repair pairs over
    /// `links`, with cut times in `[0, horizon)` and outage durations in
    /// `[min_outage, 2 * min_outage)`. The same `(seed, links, horizon,
    /// flaps, min_outage)` tuple always produces the same plan.
    pub fn random(
        seed: u64,
        links: &[usize],
        horizon: Nanos,
        flaps: usize,
        min_outage: Nanos,
    ) -> Self {
        assert!(!links.is_empty(), "fault plan needs at least one link");
        assert!(horizon > 0 && min_outage > 0, "horizon and outage must be positive");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut events = Vec::with_capacity(flaps * 2);
        for _ in 0..flaps {
            let link = links[rng.random_range(0..links.len() as u64) as usize];
            let at = rng.random_range(0..horizon);
            let outage = min_outage + rng.random_range(0..min_outage);
            events.push(FaultEvent { at, link, action: FaultAction::Cut });
            events.push(FaultEvent { at: at + outage, link, action: FaultAction::Repair });
        }
        FaultPlan::new(events)
    }

    /// The schedule, in time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MSEC;

    #[test]
    fn random_plans_are_seed_stable() {
        let links = [0usize, 1, 2, 3];
        let a = FaultPlan::random(7, &links, 100 * MSEC, 5, 10 * MSEC);
        let b = FaultPlan::random(7, &links, 100 * MSEC, 5, 10 * MSEC);
        assert_eq!(a.events(), b.events());
        let c = FaultPlan::random(8, &links, 100 * MSEC, 5, 10 * MSEC);
        assert_ne!(a.events(), c.events(), "different seeds should differ");
    }

    #[test]
    fn events_are_time_sorted_and_cut_precedes_its_repair() {
        let plan = FaultPlan::random(42, &[0, 1], 50 * MSEC, 8, 5 * MSEC);
        assert_eq!(plan.events().len(), 16);
        for w in plan.events().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        // Per link, walk the schedule: a repair never precedes its cut.
        for link in [0, 1] {
            let mut down = 0i32;
            for e in plan.events().iter().filter(|e| e.link == link) {
                match e.action {
                    FaultAction::Cut => down += 1,
                    FaultAction::Repair => down -= 1,
                }
                assert!(down >= 0, "a repair must follow its cut");
            }
            assert_eq!(down, 0, "every cut is eventually repaired");
        }
    }

    #[test]
    fn explicit_plans_sort_and_report_extent() {
        let plan = FaultPlan::new(vec![
            FaultEvent { at: 30 * MSEC, link: 1, action: FaultAction::Repair },
            FaultEvent { at: 10 * MSEC, link: 1, action: FaultAction::Cut },
        ]);
        assert_eq!(plan.events()[0].action, FaultAction::Cut);
        assert_eq!(plan.events().last().map(|e| e.at), Some(30 * MSEC));
    }
}
