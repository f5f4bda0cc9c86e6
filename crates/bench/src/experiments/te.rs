//! **Q3 — traffic engineering avoids congested links** (paper §5, §2.2).
//!
//! §2.2: "the routing protocols like OSPF used to build routing tables do
//! not exchange QoS information … it is impossible to route IP flows along
//! paths where resources, and therefore QoS, could be guaranteed." §5: TE
//! tools let providers "avoid congested, constrained or disabled links".
//!
//! Two 6.5 Mb/s trunks cross the fish topology (two 10 Mb/s paths). Under
//! IGP routing both pile onto the short path (13 Mb/s offered on 10 —
//! heavy loss). With CSPF admission the network places the second trunk on
//! the long path, each flow is pinned to its own trunk's LSP, and both
//! flows are clean. Each row prints the path its flow rides, walked
//! through the live LFIBs.

use mplsvpn_core::{BackboneBuilder, ProviderNetwork};
use netsim_net::addr::pfx;
use netsim_qos::Nanos;
use netsim_sim::{LinkId, Sink, SourceConfig, SEC};

use crate::table::{ms, pct, Table};
use crate::topo;

/// Result of one configuration.
#[derive(Clone, Debug)]
pub struct TeResult {
    /// Per-trunk (loss, mean latency ns, node path used).
    pub trunks: Vec<(f64, u64, Vec<usize>)>,
    /// Utilization of the short path's first link.
    util_short: f64,
    /// Utilization of the long path's first link.
    util_long: f64,
}

const DEMAND_BPS: u64 = 6_500_000;

fn build() -> ProviderNetwork {
    let (t, pes) = topo::fish(10);
    let mut pn = BackboneBuilder::new(t, pes).build();
    let vpn = pn.new_vpn("acme");
    let _a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
    let _b = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
    pn.run_for(0); // the MP-BGP updates land, then the VRFs verify
    pn.verify().assert_clean("te experiment backbone");
    pn
}

/// Runs both trunks with or without TE. Trunk traffic: 1000 B wire packets
/// at the demand rate.
pub fn measure(with_te: bool, duration: Nanos) -> TeResult {
    let mut pn = build();
    let vpn = mplsvpn_core::VpnId(0);
    let (a, b) = (mplsvpn_core::SiteId(0), mplsvpn_core::SiteId(1));
    let sink = pn.attach_sink(b, pfx("10.2.0.0/16"));

    // The path each flow rides, walked through the live LFIBs.
    let used_paths = if with_te {
        // CSPF admission over the live backbone: trunk 1 takes the short
        // path, trunk 2 the detour. Each flow's half of the destination
        // block (10.2.0.0/17 and 10.2.128.0/17) is pinned to its own
        // trunk's LSP, so each row is the path its flow rides.
        let mut paths = Vec::new();
        for half in [pfx("10.2.0.0/17"), pfx("10.2.128.0/17")] {
            let trunk = pn.admit_trunk(0, 4, DEMAND_BPS).expect("CSPF finds room for each trunk");
            pn.pin_prefix_to_tunnel(vpn, 0, half, trunk.ftn);
            paths.push(pn.trunk_lsp_path(&trunk).expect("a trunk's LSP reaches its egress"));
        }
        // The pinned LSPs and the trunk record must pass the verifier.
        pn.verify().assert_clean("te experiment, trunks placed");
        paths
    } else {
        let igp = pn.lsp_path(0, 1).expect("an LDP LSP between the PEs");
        vec![igp.clone(), igp]
    };

    // Two trunk flows: 972 B payload (1000 B wire) at 6.5 Mb/s each
    // → one packet every 1.2308 ms.
    let interval = 1_000u64 * 8 * 1_000_000_000 / DEMAND_BPS;
    for (i, flow) in [1u64, 2].iter().enumerate() {
        let dst = if i == 0 { pfx("10.2.0.0/17").nth(5) } else { pfx("10.2.128.0/17").nth(5) };
        let cfg = SourceConfig::udp(*flow, pn.site_addr(a, 1 + i as u32), dst, 5000, 972);
        let count = duration / interval;
        pn.attach_cbr_source(a, cfg, interval, Some(count));
    }
    pn.run_for(duration + SEC);

    let s = pn.net.node_ref::<Sink>(sink);
    let mut trunks = Vec::new();
    for flow in [1u64, 2] {
        let tx = duration / interval;
        let (loss, mean) =
            s.flow(flow).map(|f| (f.loss(tx), f.latency.mean() as u64)).unwrap_or((1.0, 0));
        trunks.push((loss, mean, used_paths[(flow - 1) as usize].clone()));
    }
    TeResult {
        trunks,
        util_short: pn.net.link_stats(LinkId(topo::FISH_SHORT[0]), 0).utilization(duration),
        util_long: pn.net.link_stats(LinkId(topo::FISH_LONG[0]), 0).utilization(duration),
    }
}

/// Runs both configurations and renders the table.
pub fn run(quick: bool) -> String {
    let duration = if quick { SEC } else { 5 * SEC };
    let mut out = String::new();
    for (name, with_te) in [("IGP shortest path only", false), ("CSPF traffic engineering", true)] {
        let r = measure(with_te, duration);
        let mut t = Table::new(
            format!(
                "Q3 [{name}] — short-path util {:.0}%, long-path util {:.0}%",
                r.util_short * 100.0,
                r.util_long * 100.0
            ),
            &["trunk", "path", "loss", "mean ms"],
        );
        for (i, (loss, mean, path)) in r.trunks.iter().enumerate() {
            t.row(&[format!("T{}", i + 1), format!("{path:?}"), pct(*loss), ms(*mean)]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn te_spreads_load_and_eliminates_loss() {
        let igp = measure(false, 2 * SEC);
        let te = measure(true, 2 * SEC);
        let igp_loss: f64 = igp.trunks.iter().map(|t| t.0).sum::<f64>() / 2.0;
        let te_loss: f64 = te.trunks.iter().map(|t| t.0).sum::<f64>() / 2.0;
        assert!(igp_loss > 0.1, "IGP-only must congest the short path: {igp_loss}");
        assert!(te_loss < 0.01, "TE must avoid the congestion: {te_loss}");
        assert!(igp.util_long < 0.05, "IGP leaves the long path idle");
        assert!(te.util_long > 0.4, "TE uses the long path");
        // The two trunks take different paths under TE.
        assert_ne!(te.trunks[0].2, te.trunks[1].2);
    }
}
