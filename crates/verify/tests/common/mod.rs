//! The hand-built label plane that the label-pass and TE-pass tests
//! verify.

use netsim_mpls::lfib::Nhlfe;
use netsim_mpls::walk::LabelTables;
use netsim_routing::Topology;
use netsim_verify::{
    verify_label_plane, verify_te, LabelPlane, StackWalk, TePlane, Trunk, VerifyReport,
};

/// One router of a [`Plane`].
#[derive(Clone, Debug, Default)]
pub(crate) struct Node {
    /// Display name, e.g. `PE0` or `P3`.
    pub(crate) name: String,
    /// `neighbors[iface]` is the node at the far end of `iface` (`None`
    /// where no LSR is attached, e.g. a customer-facing port).
    pub(crate) neighbors: Vec<Option<usize>>,
    /// Installed ILM entries: (incoming label, NHLFE).
    pub(crate) ilm: Vec<(u32, Nhlfe)>,
    /// Labels the node dispatches locally (a PE's VPN labels).
    pub(crate) local_labels: Vec<u32>,
}

/// A label plane held in plain vectors, with the ingress stacks to walk
/// and the TE trunks admitted over it.
#[derive(Clone, Debug, Default)]
pub(crate) struct Plane {
    /// The routers, indexed by node id.
    pub(crate) nodes: Vec<Node>,
    /// The ingress stacks to walk.
    pub(crate) walks: Vec<StackWalk>,
    /// The topology the trunks reserve (its interface numbering should
    /// match the nodes' `neighbors`); empty when no trunk is admitted.
    pub(crate) topo: Topology,
    /// The admitted trunks.
    pub(crate) trunks: Vec<Trunk>,
}

impl LabelTables for Plane {
    fn node_count(&self) -> usize {
        self.nodes.len()
    }
    fn far_end(&self, node: usize, iface: usize) -> Option<usize> {
        self.nodes[node].neighbors.get(iface).copied().flatten()
    }
    fn nhlfe(&self, node: usize, label: u32) -> Option<Nhlfe> {
        self.nodes[node].ilm.iter().find(|(l, _)| *l == label).map(|&(_, n)| n)
    }
    fn dispatches(&self, node: usize, label: u32) -> bool {
        self.nodes[node].local_labels.contains(&label)
    }
}

impl LabelPlane for Plane {
    fn node_name(&self, node: usize) -> String {
        self.nodes[node].name.clone()
    }
    fn ilm(&self, node: usize) -> impl Iterator<Item = (u32, Nhlfe)> + '_ {
        self.nodes[node].ilm.iter().copied()
    }
}

impl TePlane for Plane {
    fn topology(&self) -> &Topology {
        &self.topo
    }
    fn trunks(&self) -> &[Trunk] {
        &self.trunks
    }
}

impl Plane {
    /// Runs the label pass over the plane and its walks, then the TE pass
    /// over its trunks.
    pub(crate) fn verify(&self) -> VerifyReport {
        let mut report = VerifyReport::new();
        verify_label_plane(self, &self.walks, &mut report);
        verify_te(self, &mut report);
        report
    }
}
