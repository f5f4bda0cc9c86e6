//! **F2 — VPN sites connected by LSP tunnels** (paper Figure 2).
//!
//! "An ISP can deploy a VPN by provisioning a set of LSPs to provide
//! connectivity among the different sites in the VPN." VPN V1 has three
//! sites, V2 has two (as in the figure); the experiment enumerates the
//! tunnel mesh each VPN rides, verifies every tunnel follows the IGP
//! shortest path (stretch 1.0), and reports label stack depth.

use mplsvpn_core::{BackboneBuilder, ProviderNetwork, SiteId};
use netsim_net::addr::pfx;
use netsim_routing::Topology;
use netsim_sim::{Sink, SourceConfig, MSEC, SEC};

use crate::table::{f2, Table};
use crate::topo;

/// One PE-pair tunnel record.
#[derive(Clone, Debug)]
pub struct TunnelRecord {
    /// VPN name.
    pub vpn: String,
    /// Ingress/egress PE ordinals.
    pub pes: (usize, usize),
    /// Backbone node path of the LSP.
    pub path: Vec<usize>,
    /// Path cost over IGP shortest-path cost.
    stretch: f64,
}

/// The Figure-2 backbone with V1's sites on PE0 and PE2, provisioned and
/// verified clean.
fn build() -> (ProviderNetwork, SiteId, SiteId) {
    let (t, pes) = topo::national(4, 4, 622);
    let mut pn = BackboneBuilder::new(t, pes).build();
    let v1 = pn.new_vpn("V1");
    let a = pn.add_site(v1, 0, pfx("10.1.0.0/16"), None);
    let c = pn.add_site(v1, 2, pfx("10.3.0.0/16"), None);
    pn.run_for(0); // the MP-BGP updates land, then the VRFs verify
    pn.verify().assert_clean("tunnel-state data-plane check");
    (pn, a, c)
}

/// Walks every tunnel of the Figure-2 mesh through the live LFIBs of
/// `pn`, and counts the tunnel labels its routers hold.
pub fn measure(pn: &ProviderNetwork) -> (Vec<TunnelRecord>, u64) {
    let mut records = Vec::new();
    let mut walk_pairs = |vpn: &str, members: &[usize]| {
        for &i in members {
            for &j in members {
                if i == j {
                    continue;
                }
                let path = pn.lsp_path(i, j).expect("tunnel must exist");
                let cost: u64 = path.windows(2).map(|h| link_cost(&pn.topo, h[0], h[1])).sum();
                let (from, to) = (path[0], path[path.len() - 1]);
                let best = pn.effective_spf(from).dist[to];
                records.push(TunnelRecord {
                    vpn: vpn.to_string(),
                    pes: (i, j),
                    path,
                    stretch: cost as f64 / best as f64,
                });
            }
        }
    };
    // V1: sites on PE0, PE1, PE2. V2: sites on PE0, PE3 (paper Figure 2).
    walk_pairs("V1", &[0, 1, 2]);
    walk_pairs("V2", &[0, 3]);
    (records, pn.live_labels())
}

/// IGP cost of the link between adjacent nodes `u` and `v`.
fn link_cost(t: &Topology, u: usize, v: usize) -> u64 {
    t.link(t.link_between(u, v).expect("adjacent")).2.cost
}

/// Runs the experiment, also pushing one data flow over V1 PE0→PE2 to
/// prove the tunnels carry traffic, and renders the table.
pub fn run(_quick: bool) -> String {
    let (mut pn, a, c) = build();
    let (records, labels) = measure(&pn);
    let mut t = Table::new(
        format!("F2: LSP tunnel mesh per VPN (total tunnel labels in backbone: {labels})"),
        &["vpn", "ingress→egress", "LSP path (backbone nodes)", "stretch"],
    );
    for r in &records {
        t.row(&[
            r.vpn.clone(),
            format!("PE{}→PE{}", r.pes.0, r.pes.1),
            format!("{:?}", r.path),
            f2(r.stretch),
        ]);
    }
    let mut out = t.render();
    out.push_str(&data_plane_check(&mut pn, a, c));
    out
}

/// Sends 100 packets from site `a` to site `c` and reports how many arrive.
fn data_plane_check(pn: &mut ProviderNetwork, a: SiteId, c: SiteId) -> String {
    let sink = pn.attach_sink(c, pfx("10.3.0.0/16"));
    let cfg = SourceConfig::udp(1, pn.site_addr(a, 1), pn.site_addr(c, 1), 5000, 200);
    pn.attach_cbr_source(a, cfg, MSEC, Some(100));
    pn.run_for(SEC);
    let got = pn.net.node_ref::<Sink>(sink).flow(1).map(|f| f.rx_packets).unwrap_or(0);
    format!("data-plane check: 100 packets offered over V1 PE0→PE2, {got} delivered\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tunnel_mesh_is_complete_and_shortest_path() {
        let (records, labels) = measure(&build().0);
        // V1: 3 sites → 6 ordered pairs; V2: 2 sites → 2.
        assert_eq!(records.iter().filter(|r| r.vpn == "V1").count(), 6);
        assert_eq!(records.iter().filter(|r| r.vpn == "V2").count(), 2);
        assert!(records.iter().all(|r| (r.stretch - 1.0).abs() < 1e-9), "LDP follows IGP");
        assert!(labels > 0);
    }

    #[test]
    fn tunnels_carry_data() {
        let (mut pn, a, c) = build();
        let s = data_plane_check(&mut pn, a, c);
        assert!(s.contains("100 delivered"), "{s}");
    }
}
