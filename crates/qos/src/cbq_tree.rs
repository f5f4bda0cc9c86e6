//! CBQ: Floyd & Van Jacobson's link-sharing class tree.
//!
//! The paper's CPE "could use technologies such as CBQ to classify
//! traffic" (§5). An organization buys a bounded share of the link,
//! divides it among departments, and departments' traffic classes borrow
//! unused capacity from their own organization before anyone else sees it.
//! The configuration is a forest: a flat CBQ is a forest whose classes are
//! all root leaves.
//!
//! Semantics (simplified from the formal link-sharing guidelines, but
//! faithful in effect):
//!
//! * Every node has a rate. **Bounded** nodes are hard caps: traffic under
//!   them never exceeds their rate. Unbounded nodes are *targets*: they
//!   gate only the in-profile pass, so their subtree can borrow idle
//!   capacity.
//! * Pass 1 (in-profile, round-robin): a leaf may send if every node on
//!   its root path has tokens.
//! * Pass 2 (borrowing, round-robin): a leaf may send if every **bounded**
//!   node on its root path has tokens.
//! * Non-work-conserving when every eligible leaf is gated by a bounded
//!   ancestor — the link retries at [`QueueDiscipline::next_ready`].

use std::collections::VecDeque;

use netsim_net::Pkt;
use netsim_obs::DropCause;

use crate::meter::TokenBucket;
use crate::queue::{ClassOf, EnqueueOutcome, QueueDiscipline};
use crate::{Nanos, SEC};

/// Configuration of one node in the class tree.
#[derive(Clone, Debug)]
pub struct CbqNodeConfig {
    /// Parent node index; `None` for a root. Parents must be declared
    /// before children (indices ascend toward the leaves).
    pub parent: Option<usize>,
    /// The node's rate, bits/s.
    pub rate_bps: u64,
    /// Hard cap: the subtree may never exceed `rate_bps`.
    pub bounded: bool,
    /// Leaf buffer capacity in bytes (ignored for interior nodes).
    pub cap_bytes: usize,
}

struct TreeNode {
    cfg: CbqNodeConfig,
    bucket: TokenBucket,
    /// Queue, present only on leaves.
    q: Option<VecDeque<Pkt>>,
    bytes: usize,
}

/// The hierarchical CBQ discipline. Packets are classified to *leaves* by
/// `class_of` (leaf ordinal in declaration order).
pub struct HierCbq {
    nodes: Vec<TreeNode>,
    /// Node indices of the leaves, in declaration order.
    leaves: Vec<usize>,
    class_of: ClassOf,
    rr: usize,
}

impl HierCbq {
    /// Builds the forest; every node without a parent is a root. The last
    /// node of a non-empty forest has no children, so there is always a
    /// leaf.
    ///
    /// # Panics
    /// Panics if `configs` is empty or a parent index is not smaller than
    /// its child's.
    pub fn new(configs: Vec<CbqNodeConfig>, class_of: ClassOf) -> Self {
        assert!(!configs.is_empty(), "CBQ tree needs nodes");
        let mut has_child = vec![false; configs.len()];
        for (i, c) in configs.iter().enumerate() {
            if let Some(p) = c.parent {
                assert!(p < i, "parent {p} must be declared before child {i}");
                has_child[p] = true;
            }
        }
        let nodes: Vec<TreeNode> = configs
            .into_iter()
            .map(|cfg| {
                // Burst of ~100 ms at the node rate, floored at two MTUs so
                // a bounded node can always eventually pass a full-size
                // packet (a bucket smaller than the packet would deadlock).
                let burst = (cfg.rate_bps / 80).max(3200);
                TreeNode { bucket: TokenBucket::new(cfg.rate_bps, burst), cfg, q: None, bytes: 0 }
            })
            .collect();
        let mut me = HierCbq { nodes, leaves: Vec::new(), class_of, rr: 0 };
        for (i, leaf) in has_child.iter().enumerate() {
            if !leaf {
                me.nodes[i].q = Some(VecDeque::new());
                me.leaves.push(i);
            }
        }
        me
    }

    /// The node configurations in declaration order (read by the static
    /// verifier to lint the link-share allocation).
    pub fn configs(&self) -> Vec<CbqNodeConfig> {
        self.nodes.iter().map(|n| n.cfg.clone()).collect()
    }

    /// Whether every node on `leaf`'s root path (filtered by
    /// `only_bounded`) can cover `bytes` at `now`; if yes, charges all of
    /// them and returns true.
    fn try_charge(&mut self, leaf: usize, bytes: usize, now: Nanos, only_bounded: bool) -> bool {
        // Check first (level_bytes refills as a side effect, which is fine).
        let mut node = Some(leaf);
        while let Some(n) = node {
            let n = &mut self.nodes[n];
            let gate = !only_bounded || n.cfg.bounded;
            if gate && (n.bucket.level_bytes(now) as usize) < bytes {
                return false;
            }
            node = n.cfg.parent;
        }
        let mut node = Some(leaf);
        while let Some(n) = node {
            // Charge every node that can pay (hierarchical accounting);
            // nodes that can't are borrowers' victims and simply stay empty.
            let n = &mut self.nodes[n];
            n.bucket.conforms(bytes, now);
            node = n.cfg.parent;
        }
        true
    }

    fn try_pass(&mut self, now: Nanos, only_bounded: bool) -> Option<Pkt> {
        let n_leaves = self.leaves.len();
        for off in 0..n_leaves {
            let li = (self.rr + off) % n_leaves;
            let leaf = self.leaves[li];
            let head_len = match self.nodes[leaf].q.as_ref().and_then(|q| q.front()) {
                Some(p) => p.wire_len(),
                None => continue,
            };
            if self.try_charge(leaf, head_len, now, only_bounded) {
                let node = &mut self.nodes[leaf];
                let pkt = node.q.as_mut().expect("leaf").pop_front().expect("head");
                node.bytes -= head_len;
                self.rr = (li + 1) % n_leaves;
                return Some(pkt);
            }
        }
        None
    }
}

impl QueueDiscipline for HierCbq {
    fn enqueue(&mut self, pkt: Pkt, _now: Nanos) -> EnqueueOutcome {
        let li = (self.class_of)(&pkt).min(self.leaves.len() - 1);
        let leaf = self.leaves[li];
        let node = &mut self.nodes[leaf];
        let sz = pkt.wire_len();
        if node.bytes + sz > node.cfg.cap_bytes {
            return EnqueueOutcome::Dropped(pkt, DropCause::QueueOverflow);
        }
        node.bytes += sz;
        node.q.as_mut().expect("leaf").push_back(pkt);
        EnqueueOutcome::Queued
    }

    fn dequeue(&mut self, now: Nanos) -> Option<Pkt> {
        // In-profile leaves first, then borrowers (gated by bounded
        // ancestors only).
        self.try_pass(now, false).or_else(|| self.try_pass(now, true))
    }

    fn len_packets(&self) -> usize {
        self.leaves.iter().map(|&i| self.nodes[i].q.as_ref().map_or(0, VecDeque::len)).sum()
    }

    fn len_bytes(&self) -> usize {
        self.leaves.iter().map(|&i| self.nodes[i].bytes).sum()
    }

    fn next_ready(&self, now: Nanos) -> Option<Nanos> {
        let mut earliest: Option<Nanos> = None;
        for &leaf in &self.leaves {
            let Some(head) = self.nodes[leaf].q.as_ref().and_then(|q| q.front()) else {
                continue;
            };
            let need = head.wire_len();
            // Wait until the slowest bounded gate on the path can cover the
            // head (conservative: rate-based estimate from zero tokens).
            let mut wait = 1u64; // borrowers with no bounded gate: ~now
            let mut node = leaf;
            loop {
                let n = &self.nodes[node];
                if n.cfg.bounded {
                    let w = (need as u128 * 8 * SEC as u128 / n.cfg.rate_bps as u128) as Nanos;
                    wait = wait.max(w);
                }
                match n.cfg.parent {
                    Some(p) => node = p,
                    None => break,
                }
            }
            let t = now + wait;
            earliest = Some(earliest.map_or(t, |e: Nanos| e.min(t)));
        }
        earliest
    }

    fn purge(&mut self) -> Vec<Pkt> {
        let mut out = Vec::new();
        for &leaf in &self.leaves {
            let node = &mut self.nodes[leaf];
            if let Some(q) = node.q.as_mut() {
                out.extend(q.drain(..));
            }
            node.bytes = 0;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_net::addr::ip;
    use netsim_net::Dscp;
    use netsim_net::Packet;

    fn pkt(class: u64, payload: usize) -> Pkt {
        let mut p = Packet::udp(ip("1.1.1.1"), ip("2.2.2.2"), 1, 2, Dscp::BE, payload);
        p.meta.flow = class;
        p.into()
    }

    fn by_flow() -> ClassOf {
        Box::new(|p: &Packet| p.meta.flow as usize)
    }

    /// Root(10M, bounded) ── orgA(6M, bounded) ── {voiceA(2M), dataA(4M)}
    ///                    └─ orgB(4M, bounded) ── {dataB(4M)}
    fn two_orgs() -> HierCbq {
        let m = 1_000_000u64;
        HierCbq::new(
            vec![
                CbqNodeConfig { parent: None, rate_bps: 10 * m, bounded: true, cap_bytes: 0 },
                CbqNodeConfig { parent: Some(0), rate_bps: 6 * m, bounded: true, cap_bytes: 0 },
                CbqNodeConfig { parent: Some(0), rate_bps: 4 * m, bounded: true, cap_bytes: 0 },
                CbqNodeConfig {
                    parent: Some(1),
                    rate_bps: 2 * m,
                    bounded: false,
                    cap_bytes: 1 << 22,
                },
                CbqNodeConfig {
                    parent: Some(1),
                    rate_bps: 4 * m,
                    bounded: false,
                    cap_bytes: 1 << 22,
                },
                CbqNodeConfig {
                    parent: Some(2),
                    rate_bps: 4 * m,
                    bounded: false,
                    cap_bytes: 1 << 22,
                },
            ],
            by_flow(),
        )
    }

    /// Drains with the link-retry loop for `dur` ns; returns bytes per leaf.
    fn drain(q: &mut HierCbq, dur: Nanos) -> Vec<u64> {
        let mut out = vec![0u64; 3];
        let mut now = 0u64;
        while now < dur {
            match q.dequeue(now) {
                Some(p) => out[p.meta.flow as usize] += p.wire_len() as u64,
                None => match q.next_ready(now) {
                    Some(t) if t > now => now = t.min(dur),
                    _ => break,
                },
            }
        }
        out
    }

    #[test]
    fn org_shares_hold_when_all_backlogged() {
        let mut q = two_orgs();
        for _ in 0..6000 {
            q.enqueue(pkt(0, 972), 0); // voiceA
            q.enqueue(pkt(1, 972), 0); // dataA
            q.enqueue(pkt(2, 972), 0); // dataB
        }
        let bytes = drain(&mut q, SEC);
        let org_a = bytes[0] + bytes[1];
        let org_b = bytes[2];
        // OrgA ≈ 6 Mb/s = 750 kB, orgB ≈ 4 Mb/s = 500 kB (±burst slack).
        assert!((650_000..=900_000).contains(&org_a), "orgA {org_a}");
        assert!((420_000..=620_000).contains(&org_b), "orgB {org_b}");
        // Within orgA, data gets about twice voice's share.
        let ratio = bytes[1] as f64 / bytes[0] as f64;
        assert!((1.4..=2.8).contains(&ratio), "intra-org ratio {ratio}");
    }

    /// When dataA goes idle, voiceA borrows the whole org allowance — but
    /// never exceeds the bounded org cap.
    #[test]
    fn child_borrows_within_its_organization() {
        let mut q = two_orgs();
        for _ in 0..6000 {
            q.enqueue(pkt(0, 972), 0); // voiceA only (rate 2M, org 6M)
            q.enqueue(pkt(2, 972), 0); // dataB keeps orgB busy
        }
        let bytes = drain(&mut q, SEC);
        // voiceA borrowed up to orgA's 6 Mb/s ≈ 750 kB.
        assert!(bytes[0] > 600_000, "voiceA should borrow org idle: {}", bytes[0]);
        assert!(bytes[0] < 950_000, "but never past the bounded org cap: {}", bytes[0]);
        assert_eq!(bytes[1], 0);
    }

    /// A bounded organization cannot borrow from the other organization,
    /// even when the link is otherwise idle.
    #[test]
    fn bounded_org_cannot_poach_idle_link() {
        let mut q = two_orgs();
        for _ in 0..6000 {
            q.enqueue(pkt(2, 972), 0); // only orgB has traffic
        }
        let bytes = drain(&mut q, SEC);
        // OrgB stays at its 4 Mb/s cap ≈ 500 kB despite 10 Mb/s idle link.
        assert!((400_000..=650_000).contains(&bytes[2]), "orgB {}", bytes[2]);
    }

    #[test]
    fn conservation_and_buffer_caps() {
        let mut q = HierCbq::new(
            vec![
                CbqNodeConfig { parent: None, rate_bps: 1_000_000, bounded: true, cap_bytes: 0 },
                CbqNodeConfig {
                    parent: Some(0),
                    rate_bps: 1_000_000,
                    bounded: false,
                    cap_bytes: 2000,
                },
            ],
            Box::new(|_| 0),
        );
        let (mut queued, mut overflowed) = (0, 0);
        for _ in 0..10 {
            match q.enqueue(pkt(0, 972), 0) {
                EnqueueOutcome::Queued => queued += 1,
                EnqueueOutcome::Dropped(_, DropCause::QueueOverflow) => overflowed += 1,
                EnqueueOutcome::Dropped(_, cause) => panic!("unexpected cause {cause}"),
            }
        }
        assert_eq!(queued, 2, "1000 B wire each against a 2000 B leaf cap");
        assert_eq!(overflowed, 8);
        let mut got = 0;
        let mut now = 0;
        while !q.is_empty() {
            match q.dequeue(now) {
                Some(_) => got += 1,
                None => now = q.next_ready(now).expect("backlogged"),
            }
        }
        assert_eq!(got, queued);
    }

    #[test]
    #[should_panic(expected = "parent 2 must be declared before child")]
    fn rejects_forward_parent_reference() {
        HierCbq::new(
            vec![
                CbqNodeConfig { parent: None, rate_bps: 1, bounded: false, cap_bytes: 0 },
                CbqNodeConfig { parent: Some(2), rate_bps: 1, bounded: false, cap_bytes: 1 },
            ],
            Box::new(|_| 0),
        );
    }

    /// A forest of root leaves `(rate_bps, bounded)`: flat CBQ.
    fn flat(classes: &[(u64, bool)], cap_bytes: usize) -> HierCbq {
        let cfgs = classes
            .iter()
            .map(|&(rate_bps, bounded)| CbqNodeConfig {
                parent: None,
                rate_bps,
                bounded,
                cap_bytes,
            })
            .collect();
        HierCbq::new(cfgs, by_flow())
    }

    #[test]
    fn cbq_bounded_class_is_rate_capped() {
        // Class 0: bounded 1 Mb/s; class 1: unbounded.
        let mut s = flat(&[(1_000_000, true), (1_000_000, false)], 1 << 22);
        for _ in 0..2000 {
            s.enqueue(pkt(0, 972), 0); // 1000 B wire
            s.enqueue(pkt(1, 972), 0);
        }
        // Simulate 1 second of dequeues at effectively unlimited link rate.
        let mut bytes = [0u64; 2];
        for t in 0..100_000u64 {
            if let Some(p) = s.dequeue(t * 10_000) {
                bytes[p.meta.flow as usize] += p.wire_len() as u64;
            }
        }
        // Bounded class ≈ 1 Mb/s ≈ 125 kB (+burst); unbounded takes the rest.
        assert!(bytes[0] < 300_000, "bounded sent {}", bytes[0]);
        assert!(bytes[1] > 1_000_000, "unbounded sent {}", bytes[1]);
    }

    #[test]
    fn cbq_next_ready_signals_retry_for_bounded_backlog() {
        let mut s = flat(&[(8_000, true)], 1 << 20);
        for _ in 0..10 {
            s.enqueue(pkt(0, 1472), 0); // 1500 B wire
        }
        // Exhaust the initial burst.
        while s.dequeue(0).is_some() {}
        assert!(!s.is_empty());
        let t = s.next_ready(0).expect("backlogged");
        assert!(t > 0, "bounded class must ask for a later retry");
        // At 8 kb/s a 1500 B packet needs 1.5 seconds of tokens.
        assert!(s.dequeue(3 * SEC).is_some());
    }

    #[test]
    fn cbq_in_profile_round_robin_is_fair() {
        let mut s = flat(&[(100_000_000, false), (100_000_000, false)], 1 << 22);
        for _ in 0..100 {
            s.enqueue(pkt(0, 100), 0);
            s.enqueue(pkt(1, 100), 0);
        }
        let mut counts = [0; 2];
        for _ in 0..100 {
            counts[s.dequeue(0).unwrap().meta.flow as usize] += 1;
        }
        assert_eq!(counts[0], 50);
        assert_eq!(counts[1], 50);
    }
}
