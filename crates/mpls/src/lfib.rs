//! The label forwarding information base: ILM, NHLFE and FTN.
//!
//! The ILM is a dense vector indexed by incoming label, so the per-packet
//! cost of label-switched forwarding is a bounds-checked array read — the
//! speed claim of the paper's §3 ("forward traffic based on information in
//! the labels instead of having to inspect the various fields deep within
//! each and every packet"), which bench `lpm_vs_label` quantifies against
//! the LPM trie.

use netsim_net::{Layer, MplsLabel, Packet};

/// Forwarding-plane counters of one LFIB: numbers as [`Lfib::stats`] reads
/// them, cells inside the table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LfibStats<T = u64> {
    /// Label swap operations applied (including the swap half of
    /// swap-and-push).
    pub swaps: T,
    /// Labels popped (PHP and egress pops alike).
    pub pops: T,
    /// Labels pushed (tunnel nesting and fast-reroute bypass wraps).
    pub pushes: T,
    /// Packets redirected into a fast-reroute bypass tunnel.
    pub bypass_activations: T,
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

impl LabelOp {
    /// Applies the operation to `stack`, whose top is the incoming label:
    /// the one reading of a label operation, for packets and walks alike.
    #[inline]
    pub fn apply(self, stack: &mut impl LabelStack) {
        match self {
            LabelOp::Swap(out) => stack.swap_top(out),
            LabelOp::SwapPush { swap, push } => {
                stack.swap_top(swap);
                stack.push_label(push);
            }
            LabelOp::Pop => stack.pop_label(),
        }
    }
}

/// A label stack, top last: a walk's bare labels or a packet's entries.
pub trait LabelStack {
    /// Replaces the top label.
    fn swap_top(&mut self, label: u32);
    /// Pushes `label` over the top.
    fn push_label(&mut self, label: u32);
    /// Removes the top label.
    fn pop_label(&mut self);
}

impl LabelStack for Vec<u32> {
    fn swap_top(&mut self, label: u32) {
        *self.last_mut().expect("a swap needs a top label") = label;
    }
    fn push_label(&mut self, label: u32) {
        self.push(label);
    }
    fn pop_label(&mut self) {
        self.pop();
    }
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

impl FtnEntry {
    /// Pushes the entry's label, if any, onto `stack`; returns its egress.
    #[inline]
    pub fn impose(self, stack: &mut impl LabelStack) -> usize {
        if let Some(label) = self.push {
            stack.push_label(label);
        }
        self.out_iface
    }
}

/// One forwarding step at an LSR: the ILM entry for the top label, and
/// the bypass in force on its out-interface ([`Lfib::bypass`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// The primary entry.
    pub nhlfe: Nhlfe,
    /// The bypass the step rides instead of the entry's out-interface.
    pub bypass: Option<FtnEntry>,
}

impl Step {
    /// Applies the entry's operation to `stack`, then pushes the bypass
    /// label over it (RFC 4090 facility backup: the merge point expects
    /// the label the operation wrote); returns the egress.
    #[inline]
    pub fn apply(self, stack: &mut impl LabelStack) -> usize {
        self.nhlfe.op.apply(stack);
        match self.bypass {
            Some(bypass) => bypass.impose(stack),
            None => self.nhlfe.out_iface,
        }
    }
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
    /// No ILM entry for the top label, or no label at all: drop (counts as
    /// a misrouting bug in tests).
    NoEntry,
    /// MPLS TTL expired: drop.
    TtlExpired,
}

/// The label forwarding table of one LSR.
#[allow(clippy::disallowed_types)] // `counts`: see the field
#[derive(Clone, Debug, Default)]
pub struct Lfib {
    ilm: Vec<Option<Nhlfe>>,
    /// Fast-reroute state: `protection[out_iface]` is the bypass tunnel
    /// protecting that egress (see [`Step::apply`]).
    protection: Vec<Option<FtnEntry>>,
    /// Interfaces the local failure detector has declared down.
    down: Vec<bool>,
    /// Whether any interface is down — keeps the hot path to one branch
    /// while the network is healthy.
    any_down: bool,
    /// Forwarding counters, interior-mutable so that [`Lfib::forward`] keeps
    /// its `&self` signature, which perfbench's ledger replays through.
    counts: LfibStats<std::cell::Cell<u64>>,
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
        self.ilm[idx] = Some(nhlfe);
    }

    /// Empties the table at a router's cold restart; the counters carry on.
    pub fn clear(&mut self) {
        *self = Lfib { counts: self.counts.clone(), ..Lfib::default() };
    }

    /// Removes the ILM entry for `in_label`, returning it if present.
    pub fn remove(&mut self, in_label: u32) -> Option<Nhlfe> {
        self.ilm.get_mut(in_label as usize)?.take()
    }

    /// Looks up an incoming label. This is the hot path.
    #[inline]
    pub fn lookup(&self, in_label: u32) -> Option<&Nhlfe> {
        self.ilm.get(in_label as usize)?.as_ref()
    }

    /// The forwarding counters of this table.
    pub fn stats(&self) -> LfibStats {
        let c = &self.counts;
        let (swaps, pops, pushes) = (c.swaps.get(), c.pops.get(), c.pushes.get());
        LfibStats { swaps, pops, pushes, bypass_activations: c.bypass_activations.get() }
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
    pub fn protection(&self, out_iface: usize) -> Option<FtnEntry> {
        *self.protection.get(out_iface)?
    }

    /// Records the local failure detector's view of an interface. Marking
    /// an unprotected interface down is allowed (traffic keeps flowing to
    /// the dead link and drops there, as without FRR).
    pub fn set_iface_down(&mut self, iface: usize, down: bool) {
        if iface >= self.down.len() {
            self.down.resize(iface + 1, false);
        }
        self.down[iface] = down;
        self.any_down = self.down.contains(&true);
    }

    /// The bypass in force on `out_iface`: installed, and the interface
    /// marked down by the local failure detector.
    #[inline]
    pub fn bypass(&self, out_iface: usize) -> Option<FtnEntry> {
        if !self.any_down || !self.down.get(out_iface).copied().unwrap_or(false) {
            return None;
        }
        self.protection(out_iface)
    }

    /// The step a packet with top label `label` takes now.
    #[inline]
    pub fn step(&self, label: u32) -> Option<Step> {
        let nhlfe = *self.lookup(label)?;
        Some(Step { nhlfe, bypass: self.bypass(nhlfe.out_iface) })
    }

    /// Fast-reroute switchover at a PE's ingress: pushes `bypass`'s label
    /// over the imposed stack, with the TTL of what it covers (the top
    /// label, or the IP header when the FTN imposed none); returns the
    /// bypass egress.
    pub fn impose_bypass(&self, pkt: &mut Packet, bypass: FtnEntry) -> usize {
        bump(&self.counts.bypass_activations);
        let ttl = match pkt.top_label() {
            Some(l) => l.ttl,
            None => pkt.outer_ipv4().map_or(0, |h| h.ttl),
        };
        bypass.impose(&mut Rewrite { pkt, ttl, counts: &self.counts })
    }

    /// Applies this LSR's [`Lfib::step`] to a labeled packet in place,
    /// after the TTL check.
    pub fn forward(&self, pkt: &mut Packet) -> LfibVerdict {
        let Some(mut top) = pkt.top_label() else { return LfibVerdict::NoEntry };
        let Some(step) = self.step(top.label) else { return LfibVerdict::NoEntry };
        // TTL processing: decrement the top entry; expiry drops the packet.
        if !top.decrement_ttl() {
            return LfibVerdict::TtlExpired;
        }
        if step.bypass.is_some() {
            bump(&self.counts.bypass_activations);
        }
        let out_iface = step.apply(&mut Rewrite { pkt, ttl: top.ttl, counts: &self.counts });
        if out_iface == LOCAL_IFACE && pkt.top_label().is_none() {
            return LfibVerdict::PoppedToLocal;
        }
        LfibVerdict::Forward { out_iface }
    }
}

#[allow(clippy::disallowed_types)] // one of the table's counters
fn bump(count: &std::cell::Cell<u64>) {
    count.set(count.get() + 1);
}

/// A packet's entries as a [`LabelStack`]: a swap, pop or push leaves
/// `ttl` on the top entry (uniform TTL model), so a bypass label pushed
/// over a PHP-popped packet carries the TTL the pop left; a push takes the
/// packet's class (the EXP of the entry it covers, if any); and `counts`
/// counts each.
struct Rewrite<'a> {
    pkt: &'a mut Packet,
    ttl: u8,
    #[allow(clippy::disallowed_types)] // the table's counters
    counts: &'a LfibStats<std::cell::Cell<u64>>,
}

impl LabelStack for Rewrite<'_> {
    fn swap_top(&mut self, label: u32) {
        if let Some(Layer::Mpls(l)) = self.pkt.outer_mut() {
            *l = MplsLabel { label, ttl: self.ttl, ..*l };
        }
        bump(&self.counts.swaps);
    }

    fn push_label(&mut self, label: u32) {
        let exp = self.pkt.class();
        self.pkt.push_outer(Layer::Mpls(MplsLabel { label, exp, ttl: self.ttl }));
        bump(&self.counts.pushes);
    }

    fn pop_label(&mut self) {
        self.pkt.pop_outer();
        if let Some(Layer::Mpls(l)) = self.pkt.outer_mut() {
            l.ttl = self.ttl;
        }
        bump(&self.counts.pops);
    }
}

/// Sentinel interface index meaning "deliver locally" in an [`Nhlfe`].
pub const LOCAL_IFACE: usize = usize::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_net::addr::ip;
    use netsim_net::Dscp;

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
        assert_eq!(lfib.forward(&mut r), LfibVerdict::NoEntry);
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
        assert_eq!(lfib.bypass(3), Some(FtnEntry { push: Some(900), out_iface: 7 }));
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
    fn php_pop_onto_bypass_keeps_the_decremented_ttl() {
        // The bypass label covers a bare packet: it takes the TTL the pop
        // left, so a packet looping between bypasses still dies by TTL.
        let mut lfib = Lfib::new();
        lfib.install(77, Nhlfe { op: LabelOp::Pop, out_iface: 2 });
        lfib.install_protection(2, FtnEntry { push: Some(901), out_iface: 5 });
        lfib.set_iface_down(2, true);
        let mut p = labeled(77, 0, 10);
        assert_eq!(lfib.forward(&mut p), LfibVerdict::Forward { out_iface: 5 });
        assert_eq!(p.label_depth(), 1);
        assert_eq!(p.top_label().unwrap().ttl, 9);
    }

    #[test]
    fn ingress_bypass_over_a_bare_packet_takes_the_ip_ttl() {
        // At a PE whose FTN imposed nothing, the bypass label covers the IP
        // header and takes its TTL; over a label it takes the label's.
        let lfib = Lfib::new();
        let bypass = FtnEntry { push: Some(902), out_iface: 6 };
        let mut p = Packet::udp(ip("10.0.0.1"), ip("10.0.0.2"), 1, 2, Dscp::BE, 64);
        p.outer_ipv4_mut().unwrap().ttl = 37;
        assert_eq!(lfib.impose_bypass(&mut p, bypass), 6);
        assert_eq!(p.top_label().unwrap(), MplsLabel::new(902, 0, 37));
        let mut p = labeled(100, 3, 12);
        assert_eq!(lfib.impose_bypass(&mut p, bypass), 6);
        assert_eq!(p.top_label().unwrap(), MplsLabel::new(902, 3, 12));
    }

    #[test]
    fn protection_table_management() {
        let mut lfib = Lfib::new();
        lfib.install_protection(4, FtnEntry { push: Some(1), out_iface: 0 });
        lfib.install_protection(9, FtnEntry { push: Some(2), out_iface: 1 });
        assert_eq!(lfib.protection(4).map(|b| b.out_iface), Some(0));
        assert_eq!(lfib.protection(9).map(|b| b.out_iface), Some(1));
        assert!(lfib.protection(5).is_none() && lfib.protection(1000).is_none());
        // Marking an out-of-range iface up is not a panic.
        lfib.set_iface_down(1000, false);
        assert!(lfib.bypass(1000).is_none());
        // A bypass is in force only while its interface is marked down.
        assert!(lfib.bypass(4).is_none());
        lfib.set_iface_down(4, true);
        assert_eq!(lfib.bypass(4).map(|b| b.out_iface), Some(0));
        assert!(lfib.bypass(9).is_none(), "iface 9 is still up");
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
        assert_eq!(lfib.stats().swaps, 4, "3 plain swaps + the swap half of swap-push");
        assert_eq!(lfib.stats().pops, 1);
        assert_eq!(lfib.stats().pushes, 1);
        assert_eq!(lfib.stats().bypass_activations, 0);
    }

    #[test]
    fn stats_count_bypass_and_clear_carries_history() {
        let mut lfib = Lfib::new();
        lfib.install(100, Nhlfe { op: LabelOp::Swap(200), out_iface: 3 });
        lfib.install_protection(3, FtnEntry { push: Some(900), out_iface: 7 });
        lfib.set_iface_down(3, true);
        let mut p = labeled(100, 0, 64);
        lfib.forward(&mut p);
        assert_eq!(lfib.stats().bypass_activations, 1);
        assert_eq!(lfib.stats().pushes, 1, "bypass wrap is a push");

        // A cold restart empties the table and keeps the history.
        let before = lfib.stats();
        lfib.clear();
        assert!(lfib.iter().next().is_none() && lfib.bypass(3).is_none());
        assert_eq!(lfib.stats(), before);
        assert_eq!((before.swaps, before.bypass_activations), (1, 1));
    }

    #[test]
    fn install_remove_len() {
        let mut lfib = Lfib::new();
        lfib.install(100, Nhlfe { op: LabelOp::Pop, out_iface: 0 });
        lfib.install(100, Nhlfe { op: LabelOp::Swap(1), out_iface: 0 });
        assert_eq!(lfib.iter().count(), 1, "reinstall replaces");
        lfib.install(200, Nhlfe { op: LabelOp::Pop, out_iface: 0 });
        assert_eq!(lfib.iter().count(), 2);
        assert!(lfib.remove(100).is_some());
        assert!(lfib.remove(100).is_none());
        assert_eq!(lfib.iter().count(), 1);
        assert!(lfib.lookup(100).is_none());
    }
}
