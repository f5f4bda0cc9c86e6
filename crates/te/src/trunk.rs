//! Trunk admission control: per-link bandwidth bookkeeping with eight
//! setup/hold priority levels and preemption, in the RSVP-TE style.

use netsim_routing::Topology;

use crate::cspf::cspf_path;

/// Number of priority levels (0 = most important, 7 = least).
pub const PRIORITIES: usize = 8;

/// Identifies an admitted trunk.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TrunkId(pub usize);

/// A request to establish a traffic trunk.
#[derive(Clone, Debug)]
pub struct TrunkRequest {
    /// Ingress node.
    pub src: usize,
    /// Egress node.
    pub dst: usize,
    /// Bandwidth to reserve, bits/s.
    pub demand_bps: u64,
    /// Priority at which the trunk competes for bandwidth when signalled
    /// (may preempt reservations held at numerically greater priority).
    setup_priority: u8,
    /// Priority at which the reservation is held afterwards.
    pub hold_priority: u8,
    /// Pin the trunk to this exact node path instead of running CSPF.
    explicit_path: Option<Vec<usize>>,
}

impl TrunkRequest {
    /// A best-effort-priority trunk (setup=hold=7).
    pub fn new(src: usize, dst: usize, demand_bps: u64) -> Self {
        TrunkRequest {
            src,
            dst,
            demand_bps,
            setup_priority: 7,
            hold_priority: 7,
            explicit_path: None,
        }
    }

    /// Sets both setup and hold priority.
    pub fn priority(mut self, p: u8) -> Self {
        assert!((p as usize) < PRIORITIES);
        self.setup_priority = p;
        self.hold_priority = p;
        self
    }

    /// Pins an explicit route.
    pub fn via(mut self, path: Vec<usize>) -> Self {
        self.explicit_path = Some(path);
        self
    }
}

/// Why a trunk could not be admitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TeError {
    /// No path satisfies the bandwidth constraint at the setup priority.
    NoFeasiblePath,
    /// The explicit path is not a connected path in the topology.
    BadExplicitPath,
    /// The explicit path lacks bandwidth at the setup priority.
    ExplicitPathFull {
        /// First saturated link on the path.
        link: usize,
    },
}

#[derive(Clone, Debug)]
struct Trunk {
    req: TrunkRequest,
    path: Vec<usize>,
    links: Vec<usize>,
}

/// The TE bandwidth broker for one backbone.
pub struct TeDomain {
    topo: Topology,
    /// reserved[link][prio] = bits/s held at that priority.
    reserved: Vec<[u64; PRIORITIES]>,
    trunks: Vec<Option<Trunk>>,
}

impl TeDomain {
    /// Creates a TE domain over a topology (capacities come from
    /// [`netsim_routing::LinkAttrs::capacity_bps`]).
    pub fn new(topo: Topology) -> Self {
        let links = topo.link_count();
        TeDomain { topo, reserved: vec![[0; PRIORITIES]; links], trunks: Vec::new() }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Bandwidth on `link` still available to a trunk signalled at
    /// priority `prio` (reservations at numerically greater hold priority
    /// are preemptable and therefore count as available).
    fn available_bps(&self, link: usize, prio: u8) -> u64 {
        let cap = self.topo.link(link).2.capacity_bps;
        let held: u64 = self.reserved[link][..=prio as usize].iter().sum();
        cap.saturating_sub(held)
    }

    /// Total reserved bandwidth on a link, all priorities.
    pub fn reserved_bps(&self, link: usize) -> u64 {
        self.reserved[link].iter().sum()
    }

    /// Reservation-based utilization of a link.
    pub fn utilization(&self, link: usize) -> f64 {
        self.reserved_bps(link) as f64 / self.topo.link(link).2.capacity_bps as f64
    }

    /// Bandwidth held on `link` at exactly priority `prio` (the static
    /// verifier reconciles this ledger against the admitted trunks).
    pub fn reserved_at(&self, link: usize, prio: u8) -> u64 {
        self.reserved[link][prio as usize]
    }

    /// Iterates over admitted trunks: id, request, and the link ids of
    /// the reserved path.
    pub fn trunk_entries(&self) -> impl Iterator<Item = (TrunkId, &TrunkRequest, &[usize])> + '_ {
        self.trunks
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_ref().map(|t| (TrunkId(i), &t.req, t.links.as_slice())))
    }

    /// Deliberately skews the reservation ledger — a fault-injection hook
    /// for the verifier's negative tests (models a lost teardown or a
    /// double booking). Not used by any forwarding path.
    pub fn corrupt_reservation_for_test(&mut self, link: usize, prio: u8, delta_bps: u64) {
        self.reserved[link][prio as usize] += delta_bps;
    }

    /// The node path of an admitted trunk.
    pub fn path(&self, id: TrunkId) -> Option<&[usize]> {
        self.trunks.get(id.0)?.as_ref().map(|t| t.path.as_slice())
    }

    /// Attempts to admit a trunk. On success returns its id and the ids of
    /// any lower-priority trunks preempted to make room.
    pub fn signal(&mut self, req: TrunkRequest) -> Result<(TrunkId, Vec<TrunkId>), TeError> {
        assert!((req.setup_priority as usize) < PRIORITIES);
        assert!(
            req.hold_priority >= req.setup_priority,
            "hold priority must not outrank setup priority (priority inversion)"
        );
        let path = match &req.explicit_path {
            Some(p) => {
                self.validate_explicit(p, req.demand_bps, req.setup_priority)?;
                p.clone()
            }
            None => {
                let prio = req.setup_priority;
                let demand = req.demand_bps;
                let usable = |l: usize| self.available_bps(l, prio) >= demand;
                cspf_path(&self.topo, req.src, req.dst, &usable).ok_or(TeError::NoFeasiblePath)?
            }
        };
        let links = self.links_of(&path);

        // Preempt until the demand physically fits on every link.
        let mut preempted = Vec::new();
        for &l in &links {
            loop {
                let cap = self.topo.link(l).2.capacity_bps;
                if self.reserved_bps(l) + req.demand_bps <= cap {
                    break;
                }
                let victim = self
                    .victim_on(l, req.setup_priority)
                    .expect("CSPF admitted the link, so enough must be preemptable");
                self.release(victim);
                preempted.push(victim);
            }
        }

        for &l in &links {
            self.reserved[l][req.hold_priority as usize] += req.demand_bps;
        }
        let id = TrunkId(self.trunks.len());
        self.trunks.push(Some(Trunk { req, path, links }));
        Ok((id, preempted))
    }

    /// Releases a trunk's reservation. Idempotent.
    pub fn release(&mut self, id: TrunkId) {
        let Some(slot) = self.trunks.get_mut(id.0) else {
            return;
        };
        let Some(t) = slot.take() else {
            return;
        };
        for &l in &t.links {
            let r = &mut self.reserved[l][t.req.hold_priority as usize];
            *r = r.saturating_sub(t.req.demand_bps);
        }
    }

    fn validate_explicit(&self, path: &[usize], demand: u64, prio: u8) -> Result<(), TeError> {
        if path.len() < 2 {
            return Err(TeError::BadExplicitPath);
        }
        for w in path.windows(2) {
            let Some(link) =
                self.topo.neighbors(w[0]).find(|&(peer, _, _)| peer == w[1]).map(|(_, _, l)| l)
            else {
                return Err(TeError::BadExplicitPath);
            };
            if self.available_bps(link, prio) < demand {
                return Err(TeError::ExplicitPathFull { link });
            }
        }
        Ok(())
    }

    fn links_of(&self, path: &[usize]) -> Vec<usize> {
        path.windows(2)
            .map(|w| {
                self.topo
                    .neighbors(w[0])
                    .find(|&(peer, _, _)| peer == w[1])
                    .map(|(_, _, l)| l)
                    .expect("path follows topology links")
            })
            .collect()
    }

    /// Lowest-importance preemptable trunk crossing `l` (hold priority
    /// numerically greater than `setup_prio`), largest demand first.
    fn victim_on(&self, l: usize, setup_prio: u8) -> Option<TrunkId> {
        self.trunks
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_ref().map(|t| (i, t)))
            .filter(|(_, t)| t.links.contains(&l) && t.req.hold_priority > setup_prio)
            .max_by_key(|(_, t)| (t.req.hold_priority, t.req.demand_bps))
            .map(|(i, _)| TrunkId(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_routing::LinkAttrs;

    fn attrs(cost: u64, cap: u64) -> LinkAttrs {
        LinkAttrs { cost, capacity_bps: cap }
    }

    /// The fish: short path 0-1-4, long path 0-2-3-4, both 10 Mb/s.
    fn fish() -> Topology {
        let mut t = Topology::new(5);
        t.add_link(0, 1, attrs(1, 10_000_000)); // 0
        t.add_link(1, 4, attrs(1, 10_000_000)); // 1
        t.add_link(0, 2, attrs(1, 10_000_000)); // 2
        t.add_link(2, 3, attrs(1, 10_000_000)); // 3
        t.add_link(3, 4, attrs(1, 10_000_000)); // 4
        t
    }

    #[test]
    fn second_trunk_diverts_around_reservation() {
        let mut te = TeDomain::new(fish());
        let (a, pre) = te.signal(TrunkRequest::new(0, 4, 7_000_000)).unwrap();
        assert!(pre.is_empty());
        assert_eq!(te.path(a).unwrap(), &[0, 1, 4]);
        // 7 of 10 Mb/s taken: a second 7 Mb/s trunk must take the long way.
        let (b, pre) = te.signal(TrunkRequest::new(0, 4, 7_000_000)).unwrap();
        assert!(pre.is_empty());
        assert_eq!(te.path(b).unwrap(), &[0, 2, 3, 4]);
        assert!(te.utilization(0) > 0.69 && te.utilization(2) > 0.69);
    }

    #[test]
    fn admission_fails_when_everything_is_full() {
        let mut te = TeDomain::new(fish());
        te.signal(TrunkRequest::new(0, 4, 9_000_000)).unwrap();
        te.signal(TrunkRequest::new(0, 4, 9_000_000)).unwrap();
        assert_eq!(te.signal(TrunkRequest::new(0, 4, 2_000_000)), Err(TeError::NoFeasiblePath));
        // A smaller trunk still fits.
        assert!(te.signal(TrunkRequest::new(0, 4, 1_000_000)).is_ok());
    }

    #[test]
    fn high_priority_preempts_low() {
        let mut te = TeDomain::new(fish());
        let (low1, _) = te.signal(TrunkRequest::new(0, 4, 9_000_000).priority(7)).unwrap();
        let (_low2, _) = te.signal(TrunkRequest::new(0, 4, 9_000_000).priority(7)).unwrap();
        // Priority-0 trunk preempts one of them.
        let (high, pre) = te.signal(TrunkRequest::new(0, 4, 9_000_000).priority(0)).unwrap();
        assert_eq!(pre.len(), 1);
        assert_eq!(pre[0], low1, "victim is on the chosen (shortest) path");
        assert_eq!(te.path(high).unwrap(), &[0, 1, 4]);
        assert!(te.path(low1).is_none(), "preempted trunk is gone");
    }

    #[test]
    fn low_priority_cannot_preempt_high() {
        let mut te = TeDomain::new(fish());
        te.signal(TrunkRequest::new(0, 4, 9_000_000).priority(0)).unwrap();
        te.signal(TrunkRequest::new(0, 4, 9_000_000).priority(0)).unwrap();
        assert_eq!(
            te.signal(TrunkRequest::new(0, 4, 5_000_000).priority(7)),
            Err(TeError::NoFeasiblePath)
        );
    }

    #[test]
    fn explicit_path_admission_and_rejection() {
        let mut te = TeDomain::new(fish());
        let (t, _) = te.signal(TrunkRequest::new(0, 4, 1_000_000).via(vec![0, 2, 3, 4])).unwrap();
        assert_eq!(te.path(t).unwrap(), &[0, 2, 3, 4]);
        // Disconnected explicit path.
        assert_eq!(
            te.signal(TrunkRequest::new(0, 4, 1_000_000).via(vec![0, 3, 4])),
            Err(TeError::BadExplicitPath)
        );
        // Saturate link 2 (0→2), then an explicit route over it must fail.
        te.signal(TrunkRequest::new(0, 2, 9_000_000)).unwrap();
        assert_eq!(
            te.signal(TrunkRequest::new(0, 4, 2_000_000).via(vec![0, 2, 3, 4])),
            Err(TeError::ExplicitPathFull { link: 2 })
        );
    }

    #[test]
    fn release_frees_bandwidth() {
        let mut te = TeDomain::new(fish());
        let (a, _) = te.signal(TrunkRequest::new(0, 4, 9_000_000)).unwrap();
        assert_eq!(te.reserved_bps(0), 9_000_000);
        te.release(a);
        assert_eq!(te.reserved_bps(0), 0);
        te.release(a); // idempotent
        let (b, _) = te.signal(TrunkRequest::new(0, 4, 9_000_000)).unwrap();
        assert_eq!(te.path(b).unwrap(), &[0, 1, 4], "shortest path available again");
    }

    #[test]
    fn stats_track_signalling_outcomes() {
        let mut te = TeDomain::new(fish());
        te.signal(TrunkRequest::new(0, 4, 9_000_000).priority(7)).unwrap();
        te.signal(TrunkRequest::new(0, 4, 9_000_000).priority(7)).unwrap();
        assert_eq!(
            te.signal(TrunkRequest::new(0, 4, 5_000_000).priority(7)),
            Err(TeError::NoFeasiblePath)
        );
        let (_, pre) = te.signal(TrunkRequest::new(0, 4, 9_000_000).priority(0)).unwrap();
        assert_eq!(pre.len(), 1);
    }

    #[test]
    fn utilization_accounting() {
        let mut te = TeDomain::new(fish());
        te.signal(TrunkRequest::new(0, 1, 2_500_000)).unwrap();
        assert!((te.utilization(0) - 0.25).abs() < 1e-9);
        assert_eq!(te.utilization(1), 0.0);
    }
}
