//! Property-based tests for the assembled architecture: isolation and
//! delivery over randomized VPN layouts — the strongest form of the
//! paper's §4 "kept separate" requirement.

use mplsvpn_core::{BackboneBuilder, PeRouter, ProviderNetwork};
use netsim_net::{Ip, Prefix};
use netsim_routing::{LinkAttrs, Topology};
use netsim_sim::{Sink, SourceConfig, MSEC, SEC};
use proptest::prelude::*;

/// A randomized VPN deployment: up to 3 VPNs, up to 6 sites, arbitrary
/// homing of sites onto 3 PEs. All VPNs share the same address plan.
#[derive(Clone, Debug)]
struct Deployment {
    /// (vpn index, pe ordinal) per site; VPN indices are compacted later.
    sites: Vec<(usize, usize)>,
}

fn arb_deployment() -> impl Strategy<Value = Deployment> {
    proptest::collection::vec((0usize..3, 0usize..3), 2..6).prop_map(|sites| Deployment { sites })
}

fn backbone() -> (Topology, Vec<usize>) {
    // Triangle core, one PE per corner.
    let mut t = Topology::new(3);
    let attrs = LinkAttrs { cost: 1, capacity_bps: 622_000_000 };
    t.add_link(0, 1, attrs);
    t.add_link(1, 2, attrs);
    t.add_link(2, 0, attrs);
    let pes: Vec<usize> = (0..3)
        .map(|k| {
            let pe = t.add_node();
            t.add_link(pe, k, attrs);
            pe
        })
        .collect();
    (t, pes)
}

/// Site `i` (within its VPN) gets 10.<i+1>.0.0/16 — the same plan in
/// every VPN, maximizing collision opportunities.
fn block(i: usize) -> Prefix {
    Prefix::new(Ip(0x0A00_0000 | (((i as u32) + 1) << 16)), 16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any deployment: every intra-VPN site pair communicates, and no
    /// sink ever sees a foreign VPN's flow.
    #[test]
    fn random_deployments_deliver_and_isolate(dep in arb_deployment()) {
        let (t, pes) = backbone();
        let mut pn: ProviderNetwork = BackboneBuilder::new(t, pes).build();

        // Create VPNs and sites. Per-VPN ordinal assigns the address block,
        // so different VPNs intentionally reuse blocks.
        let mut vpn_handles = std::collections::HashMap::new();
        let mut per_vpn_count: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        let mut site_info = Vec::new(); // (vpn_key, site handle, ordinal)
        for &(v, pe) in &dep.sites {
            let vpn = *vpn_handles
                .entry(v)
                .or_insert_with(|| pn.new_vpn(format!("vpn{v}")));
            let ord = {
                let c = per_vpn_count.entry(v).or_insert(0);
                let o = *c;
                *c += 1;
                o
            };
            let site = pn.add_site(vpn, pe, block(ord), None);
            site_info.push((v, site, ord));
        }

        // One sink per site; one flow per ordered intra-VPN pair.
        let sinks: Vec<_> = site_info
            .iter()
            .map(|&(_, site, ord)| pn.attach_sink(site, block(ord)))
            .collect();
        let mut flow = 0u64;
        let mut expected: Vec<(usize, u64)> = Vec::new(); // (sink idx, flow)
        for i in 0..site_info.len() {
            for j in 0..site_info.len() {
                if i == j {
                    continue;
                }
                let (vi, si, _oi) = site_info[i];
                let (vj, _sj, oj) = site_info[j];
                if vi != vj {
                    continue;
                }
                flow += 1;
                let src = pn.site_addr(si, 50);
                let dst = block(oj).nth(60);
                let cfg = SourceConfig::udp(flow, src, dst, 5000, 120);
                pn.attach_cbr_source(si, cfg, MSEC, Some(8));
                expected.push((j, flow));
            }
        }
        pn.run_for(2 * SEC);

        // Every expected flow arrived in full at its own sink…
        for &(sink_idx, f) in &expected {
            let s = pn.net.node_ref::<Sink>(sinks[sink_idx]);
            prop_assert_eq!(
                s.flow(f).map(|x| x.rx_packets),
                Some(8),
                "flow {} to site {} incomplete (deployment {:?})",
                f,
                sink_idx,
                dep
            );
        }
        // …and nowhere else.
        for (idx, &sink) in sinks.iter().enumerate() {
            let s = pn.net.node_ref::<Sink>(sink);
            let own: std::collections::HashSet<u64> = expected
                .iter()
                .filter(|&&(i, _)| i == idx)
                .map(|&(_, f)| f)
                .collect();
            for (f, st) in s.flows() {
                prop_assert!(
                    own.contains(&f),
                    "sink {} leaked flow {} ({} pkts) in deployment {:?}",
                    idx,
                    f,
                    st.rx_packets,
                    dep
                );
            }
        }
    }

    /// Adding sites in any order yields the same reachability as adding
    /// them up front (route distribution is order-independent).
    #[test]
    fn site_order_does_not_matter(n in 2usize..5, seed in any::<u64>()) {
        let order: Vec<usize> = {
            // Deterministic permutation from the seed.
            let mut v: Vec<usize> = (0..n).collect();
            let mut s = seed | 1;
            for i in (1..n).rev() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                v.swap(i, (s as usize) % (i + 1));
            }
            v
        };
        let run = |order: &[usize]| {
            let (t, pes) = backbone();
            let mut pn = BackboneBuilder::new(t, pes).build();
            let vpn = pn.new_vpn("acme");
            let mut sites = vec![None; n];
            for &i in order {
                sites[i] = Some(pn.add_site(vpn, i % 3, block(i), None));
            }
            pn.run_for(0);
            // Route counts per PE are the reachability fingerprint.
            let mut counts: Vec<usize> = (0..3)
                .map(|pe| {
                    let vrfs = &pn.net.node_ref::<PeRouter>(pn.pe_node(pe)).vrfs;
                    vrfs.iter().map(|v| v.fib.len()).sum()
                })
                .collect();
            counts.sort_unstable();
            counts
        };
        let natural: Vec<usize> = (0..n).collect();
        prop_assert_eq!(run(&natural), run(&order));
    }
}
