//! Pass 4: TE — the admitted trunks against the topology and the LSPs
//! they ride.
//!
//! Reads the network's trunk record through [`TePlane`], the label plane
//! the trunks' LSPs are installed in, and checks:
//!
//! * no link carries more reservation than its capacity, a link's
//!   reservation being the sum of the demands of the trunks that cross
//!   it (`V-TE-001`);
//! * every trunk's FTN, walked as its packets go, visits exactly the
//!   path the trunk reserved (`V-TE-004`).
//!
//! A trunk no path could carry even on an empty network needs no check of
//! its own: its recorded path follows topology links, so one of them has
//! less capacity than the trunk's demand, which is at most that link's
//! reservation, and `V-TE-001` fires.

use crate::diag::{codes, VerifyReport};
use crate::labelplane::LabelPlane;
use netsim_mpls::walk::walk;
use netsim_mpls::FtnEntry;
use netsim_routing::Topology;

/// One admitted traffic trunk: a bandwidth reservation along `path` and
/// the explicit LSP installed along it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trunk {
    /// Ingress node.
    pub src: usize,
    /// Egress node.
    pub dst: usize,
    /// Bandwidth reserved on every link of the path, bits/s.
    pub demand_bps: u64,
    /// The node path reserved, `src` first.
    pub path: Vec<usize>,
    /// The ingress FTN of the trunk's LSP.
    pub ftn: FtnEntry,
}

/// What the TE pass reads: the label plane the trunks' LSPs live in, the
/// topology they reserve bandwidth on, and the trunk record.
pub trait TePlane: LabelPlane {
    /// The topology whose link capacities the trunks reserve.
    fn topology(&self) -> &Topology;
    /// The admitted trunks.
    fn trunks(&self) -> &[Trunk];
    /// Per link id, the bandwidth reserved on it: the sum of the demands
    /// of the trunks whose path crosses it. Derived on every call; there
    /// is no other ledger. A hop between nodes that share no link reserves
    /// nothing: no LSP can ride it, and `V-TE-004` reports the trunk.
    fn reservations(&self) -> Vec<u64> {
        let topo = self.topology();
        let mut reserved = vec![0; topo.link_count()];
        for t in self.trunks() {
            for l in t.path.windows(2).filter_map(|w| topo.link_between(w[0], w[1])) {
                reserved[l] += t.demand_bps;
            }
        }
        reserved
    }
}

/// Runs the TE pass over a network's admitted trunks.
pub fn verify_te(plane: &impl TePlane, report: &mut VerifyReport) {
    let topo = plane.topology();
    for (i, t) in plane.trunks().iter().enumerate() {
        let walked = walk(plane, t.src, t.ftn.push.as_slice(), t.ftn.out_iface).path_to(t.dst);
        if walked.as_ref() != Some(&t.path) {
            report.push(
                codes::TE_PATH,
                format!("trunk {i}"),
                format!("reserved path {:?} but its LSP rides {walked:?}", t.path),
            );
        }
    }
    for (link, total) in plane.reservations().into_iter().enumerate() {
        let (u, v, attrs) = topo.link(link);
        if total > attrs.capacity_bps {
            report.push(
                codes::TE_OVERSUB,
                format!("link {u}-{v}"),
                format!("reservations total {total} b/s on a {} b/s link", attrs.capacity_bps),
            );
        }
    }
}
