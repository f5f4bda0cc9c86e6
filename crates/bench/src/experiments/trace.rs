//! **F3 — deployment path CE→PE→P→…→PE→CE** (paper Figure 3).
//!
//! One voice packet is followed hop by hop through the full architecture:
//! CPE classification/marking, two-level label imposition with DSCP→EXP
//! mapping at the ingress PE, label swapping and the penultimate-hop pop in
//! the core, VPN-label dispatch at the egress PE, and site delivery.

use mplsvpn_core::{BackboneBuilder, TraceLog};
use netsim_net::addr::pfx;
use netsim_qos::MarkingPolicy;
use netsim_sim::{Sink, SourceConfig, MSEC, SEC};

use crate::table::Table;
use crate::topo;

/// Runs the scenario and returns (trace log, delivered count).
pub fn measure() -> (TraceLog, u64) {
    let (t, pes) = topo::line(2, 1000); // PE0 - P1 - P2 - PE3
    let mut pn = BackboneBuilder::new(t, pes).build();
    pn.net.enable_trace();
    let vpn = pn.new_vpn("acme");
    let a = pn.add_site(vpn, 0, pfx("10.1.0.0/16"), Some(MarkingPolicy::enterprise_default()));
    let b = pn.add_site(vpn, 1, pfx("10.2.0.0/16"), None);
    pn.run_for(0); // the MP-BGP updates land, then the VRFs verify
    pn.verify().assert_clean("trace scenario");
    let sink = pn.attach_sink(b, pfx("10.2.0.0/16"));
    // A voice packet (UDP to an RTP port → the CPE marks it EF).
    let cfg = SourceConfig::udp(1, pn.site_addr(a, 10), pn.site_addr(b, 20), 16400, 160);
    pn.attach_cbr_source(a, cfg, MSEC, Some(1));
    pn.run_for(SEC);
    let got = pn.net.node_ref::<Sink>(sink).flow(1).map(|f| f.rx_packets).unwrap_or(0);
    (pn.net.trace().cloned().expect("trace enabled"), got)
}

/// Runs the experiment and renders the hop table.
pub fn run(_quick: bool) -> String {
    let (log, got) = measure();
    let mut t = Table::new(
        format!("F3: hop-by-hop trace of one voice packet (delivered: {got}/1)"),
        &["t (us)", "device", "action", "label stack", "EXP", "DSCP"],
    );
    for (op, r) in log.path(1, 0) {
        t.row(&[
            format!("{:.1}", r.at as f64 / 1e3),
            if r.device.is_empty() { "host".into() } else { r.device.clone() },
            format!("{op} → if{}", r.iface.0),
            format!("{:?}", r.labels),
            r.exp.map_or("-".into(), |e| e.to_string()),
            r.dscp.map_or("-".into(), |d| d.to_string()),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mplsvpn_core::HopOp;
    use netsim_net::Dscp;

    #[test]
    fn trace_shows_the_figure_3_sequence() {
        let (log, got) = measure();
        assert_eq!(got, 1);
        let path = log.path(1, 0);
        let devices: Vec<&str> = path.iter().map(|(_, r)| r.device.as_str()).collect();
        assert_eq!(devices, ["", "CE-acme-s0", "PE0", "P1", "P2", "PE1", "CE-acme-s1"]);
        let ops: Vec<HopOp> = path.iter().map(|(op, _)| op.clone()).collect();
        // The host sends BE, the CE marks EF, the ingress PE pushes tunnel
        // above VPN label, the core swaps then pops the tunnel label (PHP),
        // the egress PE pops the VPN label and the remote CE delivers.
        let (HopOp::Push(stack), HopOp::Swap(_, swapped)) = (&ops[2], &ops[3]) else {
            panic!("no push then swap: {ops:?}");
        };
        let (tunnel, vpn, swapped) = (stack[0], stack[1], *swapped);
        assert_eq!(
            ops,
            [
                HopOp::Originate,
                HopOp::Mark(Dscp::EF),
                HopOp::Push(vec![tunnel, vpn]),
                HopOp::Swap(tunnel, swapped),
                HopOp::Pop(swapped, vpn),
                HopOp::PopAll(vec![vpn]),
                HopOp::Forward,
            ]
        );
        // EXP rode the whole labeled path.
        assert!(path.iter().filter_map(|(_, r)| r.exp).all(|e| e == 5));
    }
}
