//! **F1 — integrated VPN service network** (paper Figure 1).
//!
//! Several VPNs with *identical* customer address plans share one MPLS
//! backbone. The measurement is the isolation matrix: every packet must be
//! delivered inside its own VPN and none may cross — the "data traffic from
//! different VPNs is kept separate" function of §4.3.

use mplsvpn_core::{BackboneBuilder, ProviderNetwork};
use netsim_net::addr::pfx;
use netsim_sim::{Sink, SourceConfig, MSEC, SEC};

use crate::table::Table;
use crate::topo;

/// Outcome of one multi-VPN isolation run.
#[derive(Clone, Debug)]
pub struct IsolationResult {
    /// Per VPN: (name, packets sent, packets delivered in-VPN).
    pub per_vpn: Vec<(String, u64, u64)>,
    /// Packets delivered into the *wrong* VPN (must be zero).
    pub leaked: u64,
}

/// Builds `vpn_count` VPNs, all using the same 10.1/16 → 10.2/16 plan, and
/// sends one flow per VPN.
pub fn measure(vpn_count: usize, packets: u64) -> IsolationResult {
    let (t, pes) = topo::line(2, 1000);
    let mut pn: ProviderNetwork = BackboneBuilder::new(t, pes).build();
    let mut sinks = Vec::new();
    let mut flows = Vec::new();
    for k in 0..vpn_count {
        let vpn = pn.new_vpn(format!("vpn{k}"));
        let a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), None);
        let b = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
        let sink = pn.attach_sink(b, pfx("10.2.0.0/16"));
        let flow = 1 + k as u64;
        let cfg = SourceConfig::udp(flow, pn.site_addr(a, 10), pn.site_addr(b, 20), 5000, 256);
        pn.attach_cbr_source(a, cfg, MSEC, Some(packets));
        sinks.push(sink);
        flows.push(flow);
    }
    // Static isolation proof over every VRF pair before the dynamic one.
    pn.run_for(0); // the MP-BGP updates land, then the VRFs verify
    pn.verify().assert_clean("isolation experiment");
    pn.run_for(3 * SEC);

    let mut per_vpn = Vec::new();
    let mut leaked = 0;
    for (k, &sink) in sinks.iter().enumerate() {
        let s = pn.net.node_ref::<Sink>(sink);
        let own = s.flow(flows[k]).map(|f| f.rx_packets).unwrap_or(0);
        let foreign: u64 =
            s.flows().filter(|(f, _)| *f != flows[k]).map(|(_, st)| st.rx_packets).sum();
        leaked += foreign;
        per_vpn.push((format!("vpn{k}"), packets, own));
    }
    IsolationResult { per_vpn, leaked }
}

/// Runs the experiment and renders the table.
pub fn run(quick: bool) -> String {
    let (vpns, packets) = if quick { (4, 50) } else { (10, 500) };
    let r = measure(vpns, packets);
    let mut t = Table::new(
        format!(
            "F1: {vpns} VPNs with identical 10.0.0.0/8 address plans over one backbone \
             (leaked packets: {} — must be 0)",
            r.leaked
        ),
        &["vpn", "sent", "delivered in-VPN", "delivery"],
    );
    for (name, sent, got) in &r.per_vpn {
        t.row(&[
            name.clone(),
            sent.to_string(),
            got.to_string(),
            crate::table::pct(*got as f64 / *sent as f64),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_leakage_full_delivery() {
        let r = measure(4, 40);
        assert_eq!(r.leaked, 0, "VPN isolation violated");
        for (name, sent, got) in &r.per_vpn {
            assert_eq!(got, sent, "{name} lost traffic");
        }
    }
}
