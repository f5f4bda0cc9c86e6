//! Scale smoke test: a provider-sized deployment — 6-router core ring,
//! 8 PEs, 4 VPNs with 8 sites each (all VPNs reusing the same address
//! plan) — carrying a 64-flow traffic matrix. Verifies complete delivery,
//! zero inter-VPN leakage, and that the routers' control-plane state and
//! counts match the expectations at this size.

use mplsvpn::net::{Ip, Prefix};
use mplsvpn::routing::{LinkAttrs, Topology};
use mplsvpn::sim::{Sink, SourceConfig, MSEC, SEC};
use mplsvpn::vpn::{BackboneBuilder, PeRouter, ProviderNetwork};

const CORE: usize = 6;
const PES: usize = 8;
const VPNS: usize = 4;
const SITES_PER_VPN: usize = 8;

fn build() -> (ProviderNetwork, Vec<Vec<mplsvpn::vpn::SiteId>>) {
    let mut t = Topology::new(CORE);
    let attrs = LinkAttrs { cost: 1, capacity_bps: 2_500_000_000 };
    for i in 0..CORE {
        t.add_link(i, (i + 1) % CORE, attrs);
    }
    // Two chords make the core 2-connected with diverse paths.
    t.add_link(0, 3, attrs);
    t.add_link(1, 4, attrs);
    let pes: Vec<usize> = (0..PES)
        .map(|k| {
            let pe = t.add_node();
            t.add_link(pe, k % CORE, attrs);
            pe
        })
        .collect();
    let mut pn = BackboneBuilder::new(t, pes).build();

    let mut sites = Vec::new();
    for v in 0..VPNS {
        let vpn = pn.new_vpn(format!("vpn{v}"));
        let mut vsites = Vec::new();
        for s in 0..SITES_PER_VPN {
            // Identical plan in every VPN: 10.<s>.0.0/16.
            let prefix = Prefix::new(Ip(0x0A00_0000 | ((s as u32) << 16)), 16);
            vsites.push(pn.add_site(vpn, s % PES, prefix, None));
        }
        sites.push(vsites);
    }
    // Deliver the provisioning's MP-BGP updates.
    pn.run_for(0);
    (pn, sites)
}

#[test]
fn provider_scale_delivery_and_isolation() {
    let (mut pn, sites) = build();

    // Control-plane expectations at this size. The routers count what
    // they sent once the provisioning has landed: site s's join updates
    // the s VRFs its VPN already has on other PEs, Σ s = 28 MP-BGP deltas
    // per VPN, each delivered.
    let cs = pn.control_stats().expect("control counters");
    let deltas = (VPNS * SITES_PER_VPN * (SITES_PER_VPN - 1) / 2) as u64;
    assert_eq!(cs.bgp_originated, deltas);
    assert_eq!((cs.undeliverable, cs.no_lsp_to_egress), (0, 0));
    assert_eq!(cs.pkts_sent, cs.pkts_terminated);
    // Every PE's view holds an LDP tunnel to every other PE.
    for i in 0..PES {
        for j in (0..PES).filter(|&j| j != i) {
            assert!(pn.view_tunnel(i, j).is_some(), "no LSP from PE{i} to PE{j}");
        }
    }

    // One sink per site; a ring of flows per VPN (site s → site s+1).
    let mut sinks = Vec::new();
    for vsites in &sites {
        let per_vpn: Vec<_> = (0..SITES_PER_VPN)
            .map(|s| {
                let prefix = Prefix::new(Ip(0x0A00_0000 | ((s as u32) << 16)), 16);
                pn.attach_sink(vsites[s], prefix)
            })
            .collect();
        sinks.push(per_vpn);
    }
    let mut flow = 0u64;
    let mut expected = Vec::new();
    for (v, vsites) in sites.iter().enumerate() {
        for (s, &site) in vsites.iter().enumerate() {
            let dst_site = (s + 1) % SITES_PER_VPN;
            flow += 1;
            let dst = Prefix::new(Ip(0x0A00_0000 | ((dst_site as u32) << 16)), 16).nth(77);
            let cfg = SourceConfig::udp(flow, pn.site_addr(site, 7), dst, 5000, 256);
            pn.attach_cbr_source(site, cfg, 2 * MSEC, Some(100));
            expected.push((v, dst_site, flow));
        }
    }
    pn.run_for(3 * SEC);

    // Complete delivery, strictly in-VPN.
    for (v, dst_site, flow) in expected {
        let s = pn.net.node_ref::<Sink>(sinks[v][dst_site]);
        assert_eq!(
            s.flow(flow).map(|f| f.rx_packets),
            Some(100),
            "vpn{v} flow {flow} to site {dst_site}"
        );
    }
    let mut total = 0;
    for per_vpn in &sinks {
        for &sink in per_vpn {
            let s = pn.net.node_ref::<Sink>(sink);
            total += s.total_packets;
            // A sink may legitimately receive only its own VPN's ring flow.
            assert!(s.flows().count() <= 1, "leak: sink saw multiple flows");
        }
    }
    assert_eq!(total, (VPNS * SITES_PER_VPN * 100) as u64);
}

#[test]
fn per_pe_state_is_linear_in_its_own_load() {
    let (pn, _) = build();
    // Each PE homes exactly VPNS vrfs (one per VPN) and each VRF holds
    // SITES_PER_VPN routes (its own + 7 imported).
    for pe in 0..PES {
        let router = pn.net.node_ref::<PeRouter>(pn.pe_node(pe));
        assert_eq!(router.vrfs.len(), VPNS);
        assert!(router.vrfs.iter().all(|v| v.fib.len() == SITES_PER_VPN));
        assert_eq!(router.vpn_ilm.len(), VPNS, "one label per locally homed site");
    }
}
