//! The label forwarding information base: ILM, NHLFE and FTN.
//!
//! The ILM is a dense vector indexed by incoming label, so the per-packet
//! cost of label-switched forwarding is a bounds-checked array read — the
//! speed claim of the paper's §3 ("forward traffic based on information in
//! the labels instead of having to inspect the various fields deep within
//! each and every packet"), which bench `lpm_vs_label` quantifies against
//! the LPM trie.

use netsim_net::{Dscp, Layer, MplsLabel, Packet};

/// Forwarding-plane counters of one LFIB.
///
/// Interior-mutable (`Cell`) so [`Lfib::forward`] keeps its `&self` hot-path
/// signature: counting must not force exclusive borrows onto every caller.
#[allow(clippy::disallowed_types)] // perfbench's ledger `replay` forwards through `&Lfib`
#[derive(Clone, Debug, Default)]
pub struct LfibStats {
    swaps: std::cell::Cell<u64>,
    pops: std::cell::Cell<u64>,
    pushes: std::cell::Cell<u64>,
    bypass_activations: std::cell::Cell<u64>,
}

impl LfibStats {
    /// Label swap operations applied (including the swap half of
    /// swap-and-push).
    pub fn swaps(&self) -> u64 {
        self.swaps.get()
    }

    /// Labels popped (PHP and egress pops alike).
    pub fn pops(&self) -> u64 {
        self.pops.get()
    }

    /// Labels pushed (tunnel nesting and fast-reroute bypass wraps).
    pub fn pushes(&self) -> u64 {
        self.pushes.get()
    }

    /// Packets redirected into a fast-reroute bypass tunnel.
    pub fn bypass_activations(&self) -> u64 {
        self.bypass_activations.get()
    }

    /// Accumulates another block's counts into this one — used to carry
    /// forwarding history across a table replacement on reconvergence.
    pub fn merge(&self, other: &LfibStats) {
        self.swaps.set(self.swaps.get() + other.swaps.get());
        self.pops.set(self.pops.get() + other.pops.get());
        self.pushes.set(self.pushes.get() + other.pushes.get());
        self.bypass_activations.set(self.bypass_activations.get() + other.bypass_activations.get());
    }
}

/// The label operation of an NHLFE.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LabelOp {
    /// Replace the top label with `0.0` (value set by the entry).
    Swap(u32),
    /// Pop the top label (penultimate hop or egress).
    Pop,
    /// Swap the top label and push one more above it (used when an LSP is
    /// nested into another tunnel, e.g. inter-provider stitching).
    SwapPush {
        /// Replacement for the current top label.
        swap: u32,
        /// Additional label pushed above it.
        push: u32,
    },
}

/// Next-hop label forwarding entry: what to do with a matched packet and
/// where to send it. `out_iface` is an opaque interface index interpreted
/// by the owning router.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Nhlfe {
    /// The label-stack operation.
    pub op: LabelOp,
    /// Egress interface index.
    pub out_iface: usize,
}

/// Ingress mapping for one FEC: the label to push and the egress interface.
/// Every FTN pushes at most one label (an LDP tunnel, an explicit LSP or a
/// bypass), so the entry is a plain `Copy` value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FtnEntry {
    /// Label to push; `None` when the first hop advertised implicit null.
    pub push: Option<u32>,
    /// Egress interface index.
    pub out_iface: usize,
}

/// Result of running a packet through [`Lfib::forward`].
#[derive(Debug, PartialEq, Eq)]
pub enum LfibVerdict {
    /// Forward out `out_iface` (label ops already applied to the packet).
    Forward {
        /// Interface to transmit on.
        out_iface: usize,
    },
    /// The stack emptied at this LSR: deliver the inner packet locally
    /// (egress processing, e.g. VPN label handling or IP forwarding).
    PoppedToLocal,
    /// No ILM entry for the top label: drop (counts as a misrouting bug in
    /// tests).
    NoEntry,
    /// MPLS TTL expired: drop.
    TtlExpired,
    /// The packet carried no label.
    NotLabeled,
}

/// The label forwarding table of one LSR.
#[derive(Clone, Debug, Default)]
pub struct Lfib {
    ilm: Vec<Option<Nhlfe>>,
    entries: usize,
    /// Fast-reroute state: `protection[out_iface]` is the bypass tunnel
    /// protecting that egress. The bypass terminates at the merge point
    /// (the protected link's far end), which expects exactly the label
    /// this LSR would have sent — so switchover is "apply the primary
    /// operation, then push the bypass label and redirect".
    protection: Vec<Option<FtnEntry>>,
    /// Interfaces the local failure detector has declared down.
    down: Vec<bool>,
    /// Whether any interface is down — keeps the hot path to one branch
    /// while the network is healthy.
    any_down: bool,
    /// Forwarding counters (interior-mutable; see [`LfibStats`]).
    stats: LfibStats,
}

impl Lfib {
    /// Creates an empty LFIB.
    pub fn new() -> Self {
        Lfib::default()
    }

    /// Installs an ILM entry for `in_label`.
    pub fn install(&mut self, in_label: u32, nhlfe: Nhlfe) {
        let idx = in_label as usize;
        if idx >= self.ilm.len() {
            self.ilm.resize(idx + 1, None);
        }
        if self.ilm[idx].replace(nhlfe).is_none() {
            self.entries += 1;
        }
    }

    /// Removes the ILM entry for `in_label`, returning it if present.
    pub fn remove(&mut self, in_label: u32) -> Option<Nhlfe> {
        let e = self.ilm.get_mut(in_label as usize)?.take();
        if e.is_some() {
            self.entries -= 1;
        }
        e
    }

    /// Looks up an incoming label. This is the hot path.
    #[inline]
    pub fn lookup(&self, in_label: u32) -> Option<&Nhlfe> {
        self.ilm.get(in_label as usize)?.as_ref()
    }

    /// Number of installed ILM entries (per-LSR state metric for T1).
    pub fn len(&self) -> usize {
        self.entries
    }

    /// The forwarding counters of this table.
    pub fn stats(&self) -> &LfibStats {
        &self.stats
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Iterates over the installed `(incoming label, NHLFE)` pairs, in
    /// label order. This is how the static verifier walks the ILM.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Nhlfe)> + '_ {
        self.ilm.iter().enumerate().filter_map(|(label, e)| e.as_ref().map(|n| (label as u32, n)))
    }

    /// Installs a fast-reroute bypass for egress `out_iface`: while the
    /// interface is marked down, traffic headed there is redirected into
    /// the bypass tunnel instead of being dropped on the dead link.
    pub fn install_protection(&mut self, out_iface: usize, bypass: FtnEntry) {
        if out_iface >= self.protection.len() {
            self.protection.resize(out_iface + 1, None);
        }
        self.protection[out_iface] = Some(bypass);
    }

    /// The bypass protecting `out_iface`, if any.
    pub fn protection(&self, out_iface: usize) -> Option<&FtnEntry> {
        self.protection.get(out_iface)?.as_ref()
    }

    /// Records the local failure detector's view of an interface. Marking
    /// an unprotected interface down is allowed (traffic keeps flowing to
    /// the dead link and drops there, as without FRR).
    pub fn set_iface_down(&mut self, iface: usize, down: bool) {
        if iface >= self.down.len() {
            if !down {
                return;
            }
            self.down.resize(iface + 1, false);
        }
        self.down[iface] = down;
        self.any_down = self.down.iter().any(|&d| d);
    }

    /// Whether the failure detector considers `iface` down.
    pub fn iface_down(&self, iface: usize) -> bool {
        self.down.get(iface).copied().unwrap_or(false)
    }

    /// Fast-reroute switchover: if `out_iface` is down and protected,
    /// pushes the bypass label over whatever the packet now carries and
    /// returns the bypass egress; otherwise returns `out_iface` unchanged.
    /// Single-level: a bypass is never itself rerouted.
    #[inline]
    pub fn apply_protection(&self, pkt: &mut Packet, out_iface: usize) -> usize {
        if !self.any_down || !self.iface_down(out_iface) {
            return out_iface;
        }
        let Some(bypass) = self.protection.get(out_iface).and_then(Option::as_ref) else {
            return out_iface;
        };
        let (exp, ttl) = match pkt.top_label() {
            Some(l) => (l.exp, l.ttl),
            // PHP already stripped the stack: classify the bypass label
            // by the default DSCP→EXP fold.
            None => (pkt.dscp().map_or(0, Dscp::default_exp), 64),
        };
        if let Some(label) = bypass.push {
            pkt.push_outer(Layer::Mpls(MplsLabel { label, exp, ttl }));
            self.stats.pushes.set(self.stats.pushes.get() + 1);
        }
        self.stats.bypass_activations.set(self.stats.bypass_activations.get() + 1);
        bypass.out_iface
    }

    /// Applies this LSR's forwarding to a labeled packet in place:
    /// TTL check + ILM lookup + label operation, then fast-reroute
    /// switchover when the chosen egress is down and protected.
    pub fn forward(&self, pkt: &mut Packet) -> LfibVerdict {
        match self.forward_primary(pkt) {
            LfibVerdict::Forward { out_iface } if self.any_down => {
                LfibVerdict::Forward { out_iface: self.apply_protection(pkt, out_iface) }
            }
            v => v,
        }
    }

    /// The primary forwarding decision, before protection.
    fn forward_primary(&self, pkt: &mut Packet) -> LfibVerdict {
        let Some(top) = pkt.top_label() else {
            return LfibVerdict::NotLabeled;
        };
        let Some(nhlfe) = self.lookup(top.label) else {
            return LfibVerdict::NoEntry;
        };
        // TTL processing: decrement the top entry; expiry drops the packet.
        let mut top = top;
        if !top.decrement_ttl() {
            return LfibVerdict::TtlExpired;
        }
        match nhlfe.op {
            LabelOp::Swap(out) => {
                if let Some(Layer::Mpls(l)) = pkt.outer_mut() {
                    *l = MplsLabel { label: out, exp: top.exp, ttl: top.ttl };
                }
                self.stats.swaps.set(self.stats.swaps.get() + 1);
                LfibVerdict::Forward { out_iface: nhlfe.out_iface }
            }
            LabelOp::SwapPush { swap, push } => {
                if let Some(Layer::Mpls(l)) = pkt.outer_mut() {
                    *l = MplsLabel { label: swap, exp: top.exp, ttl: top.ttl };
                }
                pkt.push_outer(Layer::Mpls(MplsLabel { label: push, exp: top.exp, ttl: top.ttl }));
                self.stats.swaps.set(self.stats.swaps.get() + 1);
                self.stats.pushes.set(self.stats.pushes.get() + 1);
                LfibVerdict::Forward { out_iface: nhlfe.out_iface }
            }
            LabelOp::Pop => {
                pkt.pop_outer();
                self.stats.pops.set(self.stats.pops.get() + 1);
                if pkt.top_label().is_some() {
                    // Propagate the decremented TTL to the exposed entry
                    // (uniform TTL model) and keep forwarding.
                    if let Some(Layer::Mpls(l)) = pkt.outer_mut() {
                        l.ttl = top.ttl;
                    }
                    LfibVerdict::Forward { out_iface: nhlfe.out_iface }
                } else if nhlfe.out_iface == LOCAL_IFACE {
                    LfibVerdict::PoppedToLocal
                } else {
                    // Penultimate-hop pop: forward the now-unlabeled packet.
                    LfibVerdict::Forward { out_iface: nhlfe.out_iface }
                }
            }
        }
    }
}

/// Sentinel interface index meaning "deliver locally" in an [`Nhlfe`].
pub const LOCAL_IFACE: usize = usize::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_net::addr::ip;

    fn labeled(label: u32, exp: u8, ttl: u8) -> Packet {
        let mut p = Packet::udp(ip("10.0.0.1"), ip("10.0.0.2"), 1, 2, Dscp::BE, 64);
        p.push_outer(Layer::Mpls(MplsLabel::new(label, exp, ttl)));
        p
    }

    #[test]
    fn swap_preserves_exp_and_decrements_ttl() {
        let mut lfib = Lfib::new();
        lfib.install(100, Nhlfe { op: LabelOp::Swap(200), out_iface: 3 });
        let mut p = labeled(100, 5, 64);
        assert_eq!(lfib.forward(&mut p), LfibVerdict::Forward { out_iface: 3 });
        let top = p.top_label().unwrap();
        assert_eq!(top.label, 200);
        assert_eq!(top.exp, 5, "EXP must survive the swap (QoS in the core)");
        assert_eq!(top.ttl, 63);
    }

    #[test]
    fn pop_to_local_at_egress() {
        let mut lfib = Lfib::new();
        lfib.install(77, Nhlfe { op: LabelOp::Pop, out_iface: LOCAL_IFACE });
        let mut p = labeled(77, 1, 10);
        assert_eq!(lfib.forward(&mut p), LfibVerdict::PoppedToLocal);
        assert!(p.top_label().is_none());
    }

    #[test]
    fn php_pop_forwards_unlabeled() {
        let mut lfib = Lfib::new();
        lfib.install(77, Nhlfe { op: LabelOp::Pop, out_iface: 2 });
        let mut p = labeled(77, 1, 10);
        assert_eq!(lfib.forward(&mut p), LfibVerdict::Forward { out_iface: 2 });
        assert!(p.top_label().is_none());
    }

    #[test]
    fn pop_exposes_inner_label_with_propagated_ttl() {
        let mut lfib = Lfib::new();
        lfib.install(300, Nhlfe { op: LabelOp::Pop, out_iface: 4 });
        let mut p = labeled(42, 3, 9); // inner VPN label
        p.push_outer(Layer::Mpls(MplsLabel::new(300, 3, 7))); // tunnel label
        assert_eq!(lfib.forward(&mut p), LfibVerdict::Forward { out_iface: 4 });
        let top = p.top_label().unwrap();
        assert_eq!(top.label, 42);
        assert_eq!(top.ttl, 6, "uniform TTL model propagates downward");
    }

    #[test]
    fn swap_push_nests_tunnels() {
        let mut lfib = Lfib::new();
        lfib.install(10, Nhlfe { op: LabelOp::SwapPush { swap: 11, push: 500 }, out_iface: 1 });
        let mut p = labeled(10, 2, 20);
        assert_eq!(lfib.forward(&mut p), LfibVerdict::Forward { out_iface: 1 });
        assert_eq!(p.label_depth(), 2);
        assert_eq!(p.top_label().unwrap().label, 500);
        assert_eq!(p.layers()[1], Layer::Mpls(MplsLabel::new(11, 2, 19)));
    }

    #[test]
    fn ttl_expiry_and_missing_entry() {
        let mut lfib = Lfib::new();
        lfib.install(5, Nhlfe { op: LabelOp::Swap(6), out_iface: 0 });
        let mut p = labeled(5, 0, 1);
        assert_eq!(lfib.forward(&mut p), LfibVerdict::TtlExpired);
        let mut q = labeled(9, 0, 64);
        assert_eq!(lfib.forward(&mut q), LfibVerdict::NoEntry);
        let mut r = Packet::udp(ip("1.1.1.1"), ip("2.2.2.2"), 1, 2, Dscp::BE, 0);
        assert_eq!(lfib.forward(&mut r), LfibVerdict::NotLabeled);
    }

    #[test]
    fn protection_reroutes_only_while_iface_is_down() {
        let mut lfib = Lfib::new();
        lfib.install(100, Nhlfe { op: LabelOp::Swap(200), out_iface: 3 });
        lfib.install_protection(3, FtnEntry { push: Some(900), out_iface: 7 });

        // Healthy: primary egress, single label.
        let mut p = labeled(100, 5, 64);
        assert_eq!(lfib.forward(&mut p), LfibVerdict::Forward { out_iface: 3 });
        assert_eq!(p.label_depth(), 1);

        // Down: primary swap still applied, bypass label pushed on top
        // (the merge point expects label 200), redirected out iface 7.
        lfib.set_iface_down(3, true);
        assert!(lfib.iface_down(3));
        let mut p = labeled(100, 5, 64);
        assert_eq!(lfib.forward(&mut p), LfibVerdict::Forward { out_iface: 7 });
        assert_eq!(p.label_depth(), 2);
        let top = p.top_label().unwrap();
        assert_eq!((top.label, top.exp), (900, 5), "bypass inherits the packet's EXP");
        assert_eq!(p.layers()[1], Layer::Mpls(MplsLabel::new(200, 5, 63)));

        // Repair detected: back on the primary.
        lfib.set_iface_down(3, false);
        let mut p = labeled(100, 5, 64);
        assert_eq!(lfib.forward(&mut p), LfibVerdict::Forward { out_iface: 3 });
        assert_eq!(p.label_depth(), 1);
    }

    #[test]
    fn down_iface_without_protection_forwards_unchanged() {
        let mut lfib = Lfib::new();
        lfib.install(100, Nhlfe { op: LabelOp::Swap(200), out_iface: 3 });
        lfib.set_iface_down(3, true);
        let mut p = labeled(100, 0, 64);
        // No bypass installed: the packet heads for the dead link and will
        // drop there, exactly as before FRR existed.
        assert_eq!(lfib.forward(&mut p), LfibVerdict::Forward { out_iface: 3 });
        assert_eq!(p.label_depth(), 1);
    }

    #[test]
    fn php_pop_onto_bypass_classifies_by_the_default_fold() {
        // Penultimate hop: the pop strips the last label; protection must
        // still wrap the bare IP packet so the merge point receives what
        // it expected, in the class the edge mapped it to (CS7 shares
        // network control's EXP 6).
        let mut lfib = Lfib::new();
        lfib.install(77, Nhlfe { op: LabelOp::Pop, out_iface: 2 });
        lfib.install_protection(2, FtnEntry { push: Some(901), out_iface: 5 });
        lfib.set_iface_down(2, true);
        for (dscp, exp) in [(Dscp::EF, 5), (Dscp::new(56), 6)] {
            let mut p = labeled(77, exp, 10);
            p.outer_ipv4_mut().unwrap().dscp = dscp;
            assert_eq!(lfib.forward(&mut p), LfibVerdict::Forward { out_iface: 5 });
            let top = p.top_label().unwrap();
            assert_eq!((top.label, top.exp), (901, exp), "{dscp} classifies the bypass label");
        }
    }

    #[test]
    fn protection_table_management() {
        let mut lfib = Lfib::new();
        lfib.install_protection(4, FtnEntry { push: Some(1), out_iface: 0 });
        lfib.install_protection(9, FtnEntry { push: Some(2), out_iface: 1 });
        assert_eq!(lfib.protection(4).map(|b| b.out_iface), Some(0));
        assert_eq!(lfib.protection(9).map(|b| b.out_iface), Some(1));
        assert!(lfib.protection(5).is_none() && lfib.protection(1000).is_none());
        // Marking an out-of-range iface up is a no-op, not a panic.
        lfib.set_iface_down(1000, false);
        assert!(!lfib.iface_down(1000));
    }

    #[test]
    fn stats_count_ops() {
        let mut lfib = Lfib::new();
        lfib.install(100, Nhlfe { op: LabelOp::Swap(200), out_iface: 3 });
        lfib.install(77, Nhlfe { op: LabelOp::Pop, out_iface: 2 });
        lfib.install(10, Nhlfe { op: LabelOp::SwapPush { swap: 11, push: 500 }, out_iface: 1 });
        for _ in 0..3 {
            let mut p = labeled(100, 0, 64);
            lfib.forward(&mut p);
        }
        let mut p = labeled(77, 0, 64);
        lfib.forward(&mut p);
        let mut p = labeled(10, 0, 64);
        lfib.forward(&mut p);
        assert_eq!(lfib.stats().swaps(), 4, "3 plain swaps + the swap half of swap-push");
        assert_eq!(lfib.stats().pops(), 1);
        assert_eq!(lfib.stats().pushes(), 1);
        assert_eq!(lfib.stats().bypass_activations(), 0);
    }

    #[test]
    fn stats_count_bypass_and_merge_carries_history() {
        let mut lfib = Lfib::new();
        lfib.install(100, Nhlfe { op: LabelOp::Swap(200), out_iface: 3 });
        lfib.install_protection(3, FtnEntry { push: Some(900), out_iface: 7 });
        lfib.set_iface_down(3, true);
        let mut p = labeled(100, 0, 64);
        lfib.forward(&mut p);
        assert_eq!(lfib.stats().bypass_activations(), 1);
        assert_eq!(lfib.stats().pushes(), 1, "bypass wrap is a push");

        // Reconvergence replaces the table; merging first keeps history.
        let fresh = Lfib::new();
        fresh.stats().merge(lfib.stats());
        assert_eq!(fresh.stats().swaps(), 1);
        assert_eq!(fresh.stats().bypass_activations(), 1);
    }

    #[test]
    fn install_remove_len() {
        let mut lfib = Lfib::new();
        lfib.install(100, Nhlfe { op: LabelOp::Pop, out_iface: 0 });
        lfib.install(100, Nhlfe { op: LabelOp::Swap(1), out_iface: 0 });
        assert_eq!(lfib.len(), 1, "reinstall replaces");
        lfib.install(200, Nhlfe { op: LabelOp::Pop, out_iface: 0 });
        assert_eq!(lfib.len(), 2);
        assert!(lfib.remove(100).is_some());
        assert!(lfib.remove(100).is_none());
        assert_eq!(lfib.len(), 1);
        assert!(lfib.lookup(100).is_none());
    }
}
