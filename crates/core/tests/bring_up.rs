//! Bring-up through the routers' own LDP deltas against the synchronous
//! LDP reference run over the same topology.

#[path = "../../mpls/tests/common/ldp_reference.rs"]
mod ldp_reference;

use ldp_reference::{Fec, LdpConfig, LdpDomain};
use mplsvpn_core::{BackboneBuilder, CoreRouter, PeRouter, ProviderNetwork};
use netsim_mpls::walk::walk;
use netsim_mpls::Lfib;
use netsim_routing::{Igp, LinkAttrs, Topology};

/// Backbone node `u`'s label-switching table.
fn lfib<'a>(pn: &'a ProviderNetwork, pes: &[usize], u: usize) -> &'a Lfib {
    let id = pn.backbone_node(u);
    if pes.contains(&u) {
        &pn.net.node_ref::<PeRouter>(id).lfib
    } else {
        &pn.net.node_ref::<CoreRouter>(id).lfib
    }
}

/// The same LSP between every PE pair, the same label count and the same
/// number of mappings. The zero-latency transport delivers in send order,
/// so every router also ends up with the run's label values.
fn assert_bring_up_matches_ldp_run(name: &str, topo: &Topology, pes: &[usize]) {
    for php in [true, false] {
        let what = format!("{name} pes {pes:?} php {php}");
        let pn = BackboneBuilder::new(topo.clone(), pes.to_vec()).php(php).build();
        let igp = Igp::converge(topo);
        let adj: Vec<Vec<usize>> = (0..topo.node_count())
            .map(|u| topo.neighbors(u).map(|(v, _, _)| v).collect())
            .collect();
        let fecs: Vec<(Fec, usize)> =
            pes.iter().enumerate().map(|(k, &pe)| (Fec(k as u32), pe)).collect();
        let nh = |u: usize, v: usize| igp.next_hop(u, v);
        let ldp = LdpDomain::run(&adj, &fecs, &nh, LdpConfig { php });
        for (i, &ingress) in pes.iter().enumerate() {
            for (j, &egress) in pes.iter().enumerate().filter(|&(j, _)| j != i) {
                let ftn = ldp.nodes[ingress].ftn.get(&Fec(j as u32));
                let want = ftn.and_then(|t| {
                    walk(&ldp, ingress, t.push.as_slice(), t.out_iface).path_to(egress)
                });
                assert!(want.is_some(), "{what}: the run has an LSP {i} -> {j}");
                assert_eq!(pn.lsp_path(i, j), want, "{what}: LSP {i} -> {j}");
            }
        }
        let run_labels: u64 = ldp.nodes.iter().map(|s| s.space.live()).sum();
        assert_eq!(pn.live_labels(), run_labels, "{what}: labels");
        let ldp_pkts = pn.control_stats().unwrap().pkts_by_proto[1];
        assert_eq!(ldp_pkts, ldp.messages, "{what}: mappings");
        assert_eq!(ldp_pkts, 2 * topo.link_count() as u64 * pes.len() as u64, "{what}");
        for u in 0..topo.node_count() {
            let entries = |lfib: &Lfib| -> Vec<_> { lfib.iter().map(|(l, e)| (l, *e)).collect() };
            assert_eq!(entries(lfib(&pn, pes, u)), entries(&ldp.nodes[u].lfib), "{what}: node {u}");
        }
    }
}

#[test]
fn bring_up_matches_the_global_ldp_run() {
    let attrs = |cost| LinkAttrs { cost, capacity_bps: 100_000_000 };
    let build = |n: usize, links: &[(usize, usize)]| {
        let mut topo = Topology::new(n);
        for &(u, v) in links {
            topo.add_link(u, v, attrs(1));
        }
        topo
    };
    let fish = build(5, &[(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)]);
    assert_bring_up_matches_ldp_run("fish", &fish, &[0, 4]);
    let ladder = build(6, &[(0, 2), (2, 4), (1, 3), (3, 5), (0, 1), (2, 3), (4, 5)]);
    assert_bring_up_matches_ldp_run("ladder", &ladder, &[0, 5]);
    let ring: Vec<(usize, usize)> = (0..8).map(|u| (u, (u + 1) % 8)).collect();
    assert_bring_up_matches_ldp_run("ring", &build(8, &ring), &[0, 2, 5, 7]);
    // Seeded random connected topologies: a random spanning tree plus
    // extra links of random cost, with PEs in a random order.
    let mut rng = 0x2545_f491_4f6c_dd1du64;
    let mut next = |bound: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % bound as u64) as usize
    };
    for seed in 0..6 {
        let n = 4 + next(7);
        let mut topo = Topology::new(n);
        for v in 1..n {
            topo.add_link(next(v), v, attrs(1 + next(3) as u64));
        }
        for _ in 0..next(n) {
            let (u, v) = (next(n), next(n));
            if u != v {
                topo.add_link(u, v, attrs(1 + next(3) as u64));
            }
        }
        let mut nodes: Vec<usize> = (0..n).collect();
        let pes: Vec<usize> =
            (0..2 + next(n - 1)).map(|_| nodes.swap_remove(next(nodes.len()))).collect();
        assert_bring_up_matches_ldp_run(&format!("random {seed}"), &topo, &pes);
    }
}
