//! Longest-prefix-match forwarding table.
//!
//! A binary trie over address bits, with all nodes stored in one `Vec` and
//! children addressed by dense `u32` indices — a lookup is a pure integer
//! walk with no pointer chasing through separate allocations and no per-call
//! allocation. This is the structure whose per-packet cost experiment **F4**
//! compares against the MPLS label swap (paper §3: "the less time devices
//! spend inspecting traffic, the more time they have to forward it").
//!
//! Routers look routes up through [`LpmTrie::lookup_cached`], which skips
//! the walk for destinations seen since the table last changed. F4 times
//! [`LpmTrie::lookup`], the uncached walk, on purpose: the experiment prices
//! IP inspection itself, not a cache that a label swap does not need.

use crate::addr::{Ip, Prefix};

const NONE: u32 = u32::MAX;

/// Ways of an [`LpmCache`].
const WAYS: usize = 16;

#[derive(Clone, Debug)]
struct Node<V> {
    child: [u32; 2],
    value: Option<V>,
}

impl<V> Node<V> {
    fn empty() -> Self {
        Node { child: [NONE, NONE], value: None }
    }
}

/// One remembered lookup: a destination and the trie node it resolved to
/// (`NONE` for a miss), stamped with the trie's version plus one, so the
/// all-zero way of a new cache matches no trie. Aligned to its size, so a
/// lookup reads one cache line wherever its owner puts the cache.
#[derive(Clone, Copy, Debug, Default)]
#[repr(align(16))]
struct Way {
    dst: Ip,
    node: u32,
    stamp: u64,
}

/// Route cache for [`LpmTrie::lookup_cached`]: 16 direct-mapped ways, one
/// per destination hash. A way counts only while its stamp matches the
/// trie's mutation version. `Default` starts empty; owners need no setup.
#[derive(Clone, Copy, Debug, Default)]
pub struct LpmCache {
    ways: [Way; WAYS],
    /// Trie walks taken on misses.
    #[cfg(test)]
    walks: u64,
}

impl LpmCache {
    /// The way `dst` maps to: the top four bits of a multiplicative hash,
    /// so destinations that differ only in low bits spread out.
    #[inline]
    fn way_of(dst: Ip) -> usize {
        (dst.0.wrapping_mul(0x9E37_79B9) >> 28) as usize
    }
}

/// A longest-prefix-match table mapping [`Prefix`]es to values of type `V`.
#[derive(Clone, Debug)]
pub struct LpmTrie<V> {
    nodes: Vec<Node<V>>,
    len: usize,
    /// Bumped on every mutation; lets [`LpmCache`] ways self-invalidate.
    version: u64,
}

impl<V> Default for LpmTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> LpmTrie<V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        LpmTrie { nodes: vec![Node::empty()], len: 0, version: 0 }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no prefixes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `value` under `prefix`, returning the previous value if the
    /// prefix was already present.
    pub fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        self.version += 1;
        let mut node = 0usize;
        for i in 0..prefix.len() {
            let bit = prefix.addr().bit(i) as usize;
            let next = self.nodes[node].child[bit];
            node = if next == NONE {
                let idx = self.nodes.len() as u32;
                self.nodes.push(Node::empty());
                self.nodes[node].child[bit] = idx;
                idx as usize
            } else {
                next as usize
            };
        }
        let old = self.nodes[node].value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Longest-prefix-match lookup: the value of the most specific prefix
    /// containing `ip`, if any.
    #[inline]
    pub fn lookup(&self, ip: Ip) -> Option<&V> {
        let mut best: Option<&V> = self.nodes[0].value.as_ref();
        let mut node = 0usize;
        for i in 0..32 {
            let bit = ip.bit(i) as usize;
            let next = self.nodes[node].child[bit];
            if next == NONE {
                break;
            }
            node = next as usize;
            if let Some(v) = self.nodes[node].value.as_ref() {
                best = Some(v);
            }
        }
        best
    }

    /// [`LpmTrie::lookup`] memoized through a caller-owned [`LpmCache`].
    ///
    /// Routers keep one cache per table next to it. Flows interleave, so
    /// each destination keeps its own way and a hit is one indexed load.
    /// A way is stamped with the trie's mutation version, so route changes
    /// (insert/remove) transparently force a re-walk — no
    /// explicit invalidation hook to forget.
    #[inline]
    pub fn lookup_cached<'a>(&'a self, ip: Ip, cache: &mut LpmCache) -> Option<&'a V> {
        let (way, stamp) = (LpmCache::way_of(ip), self.version + 1);
        let hit = cache.ways[way];
        if hit.stamp == stamp && hit.dst == ip {
            return self.nodes.get(hit.node as usize)?.value.as_ref();
        }
        // Miss (or stale): walk the trie, remembering the deepest node
        // carrying a value so the next packet to `ip` skips the walk.
        let mut best: u32 = if self.nodes[0].value.is_some() { 0 } else { NONE };
        let mut node = 0usize;
        for i in 0..32 {
            let bit = ip.bit(i) as usize;
            let next = self.nodes[node].child[bit];
            if next == NONE {
                break;
            }
            node = next as usize;
            if self.nodes[node].value.is_some() {
                best = node as u32;
            }
        }
        cache.ways[way] = Way { dst: ip, node: best, stamp };
        #[cfg(test)]
        {
            cache.walks += 1;
        }
        self.nodes.get(best as usize)?.value.as_ref()
    }

    /// Exact-match lookup of a stored prefix.
    pub fn get(&self, prefix: Prefix) -> Option<&V> {
        let node = self.find_node(prefix)?;
        self.nodes[node].value.as_ref()
    }

    /// Removes `prefix`, returning its value if present. Interior trie nodes
    /// are not reclaimed (tables in the emulator only shrink when routes are
    /// withdrawn, and reuse the slots on re-insert).
    /// Only an actual removal invalidates the route caches.
    pub fn remove(&mut self, prefix: Prefix) -> Option<V> {
        let node = self.find_node(prefix)?;
        let old = self.nodes[node].value.take();
        if old.is_some() {
            self.len -= 1;
            self.version += 1;
        }
        old
    }

    fn find_node(&self, prefix: Prefix) -> Option<usize> {
        let mut node = 0usize;
        for i in 0..prefix.len() {
            let bit = prefix.addr().bit(i) as usize;
            let next = self.nodes[node].child[bit];
            if next == NONE {
                return None;
            }
            node = next as usize;
        }
        Some(node)
    }

    /// Iterates over all `(prefix, value)` pairs in depth-first order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &V)> + '_ {
        let mut stack: Vec<(u32, u32, u8)> = vec![(0, 0, 0)]; // (node, bits, depth)
        std::iter::from_fn(move || {
            while let Some((node, bits, depth)) = stack.pop() {
                let n = &self.nodes[node as usize];
                // Push children (right first so left pops first).
                for bit in [1u32, 0u32] {
                    let c = n.child[bit as usize];
                    if c != NONE {
                        let nbits = bits | (bit << (31 - depth));
                        stack.push((c, nbits, depth + 1));
                    }
                }
                if let Some(v) = n.value.as_ref() {
                    return Some((Prefix::new(Ip(bits), depth), v));
                }
            }
            None
        })
    }
}

impl<V> FromIterator<(Prefix, V)> for LpmTrie<V> {
    fn from_iter<T: IntoIterator<Item = (Prefix, V)>>(iter: T) -> Self {
        let mut t = LpmTrie::new();
        for (p, v) in iter {
            t.insert(p, v);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{ip, pfx};
    use proptest::prelude::*;

    #[test]
    fn longest_match_wins() {
        let mut t = LpmTrie::new();
        t.insert(pfx("10.0.0.0/8"), 8);
        t.insert(pfx("10.1.0.0/16"), 16);
        t.insert(pfx("10.1.2.0/24"), 24);
        assert_eq!(t.lookup(ip("10.1.2.3")), Some(&24));
        assert_eq!(t.lookup(ip("10.1.9.3")), Some(&16));
        assert_eq!(t.lookup(ip("10.9.9.9")), Some(&8));
        assert_eq!(t.lookup(ip("11.0.0.1")), None);
    }

    #[test]
    fn default_route() {
        let mut t = LpmTrie::new();
        t.insert(Prefix::DEFAULT, 0);
        assert_eq!(t.lookup(ip("203.0.113.9")), Some(&0));
        t.insert(pfx("203.0.113.0/24"), 24);
        assert_eq!(t.lookup(ip("203.0.113.9")), Some(&24));
        assert_eq!(t.lookup(ip("8.8.8.8")), Some(&0));
    }

    #[test]
    fn insert_replaces_and_reports_old() {
        let mut t = LpmTrie::new();
        assert_eq!(t.insert(pfx("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(pfx("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_then_lookup_falls_back() {
        let mut t = LpmTrie::new();
        t.insert(pfx("10.0.0.0/8"), 8);
        t.insert(pfx("10.1.0.0/16"), 16);
        assert_eq!(t.remove(pfx("10.1.0.0/16")), Some(16));
        assert_eq!(t.lookup(ip("10.1.2.3")), Some(&8));
        assert_eq!(t.remove(pfx("10.1.0.0/16")), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn host_routes() {
        let mut t = LpmTrie::new();
        t.insert(Prefix::host(ip("1.2.3.4")), "a");
        assert_eq!(t.lookup(ip("1.2.3.4")), Some(&"a"));
        assert_eq!(t.lookup(ip("1.2.3.5")), None);
    }

    #[test]
    fn iter_yields_all_prefixes() {
        let mut t = LpmTrie::new();
        let prefixes = ["10.0.0.0/8", "10.1.0.0/16", "192.168.0.0/16", "0.0.0.0/0"];
        for (i, p) in prefixes.iter().enumerate() {
            t.insert(p.parse().unwrap(), i);
        }
        let mut got: Vec<Prefix> = t.iter().map(|(p, _)| p).collect();
        got.sort();
        let mut want: Vec<Prefix> = prefixes.iter().map(|p| p.parse().unwrap()).collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn get_exact_does_not_do_lpm() {
        let mut t = LpmTrie::new();
        t.insert(pfx("10.0.0.0/8"), 8);
        assert_eq!(t.get(pfx("10.0.0.0/8")), Some(&8));
        assert_eq!(t.get(pfx("10.1.0.0/16")), None);
    }

    #[test]
    fn cached_lookup_matches_plain_lookup() {
        let mut t = LpmTrie::new();
        t.insert(pfx("10.0.0.0/8"), "core");
        t.insert(pfx("10.1.0.0/16"), "site");
        let mut cache = LpmCache::default();
        for ip in ["10.1.2.3", "10.9.9.9", "172.16.0.1", "10.1.2.3"] {
            let ip: Ip = ip.parse().unwrap();
            assert_eq!(t.lookup_cached(ip, &mut cache), t.lookup(ip), "{ip:?}");
            // Immediate repeat exercises the hit path.
            assert_eq!(t.lookup_cached(ip, &mut cache), t.lookup(ip), "{ip:?} (hit)");
        }
    }

    #[test]
    fn cache_invalidated_by_mutation() {
        let mut t = LpmTrie::new();
        t.insert(pfx("10.0.0.0/8"), 1);
        let dst: Ip = "10.1.2.3".parse().unwrap();
        let mut cache = LpmCache::default();
        assert_eq!(t.lookup_cached(dst, &mut cache), Some(&1));
        // A more specific route must take over despite the warm cache.
        t.insert(pfx("10.1.0.0/16"), 2);
        assert_eq!(t.lookup_cached(dst, &mut cache), Some(&2));
        // Withdrawal must fall back to the covering prefix.
        t.remove(pfx("10.1.0.0/16"));
        assert_eq!(t.lookup_cached(dst, &mut cache), Some(&1));
        // And a cached miss must be revalidated too.
        let other: Ip = "192.168.0.1".parse().unwrap();
        assert_eq!(t.lookup_cached(other, &mut cache), None);
        t.insert(pfx("0.0.0.0/0"), 9);
        assert_eq!(t.lookup_cached(other, &mut cache), Some(&9));
    }

    /// One step of the route-cache reference test: a mutation or a lookup
    /// of a pool destination. `(kind, pool index, prefix length, value)`.
    fn arb_op() -> impl Strategy<Value = (u8, usize, u8, u32)> {
        (0u8..6, 0usize..48, 0u8..=32, any::<u32>())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The cache never changes an answer. Prefixes of every length,
        /// `/0` and `/32` included, are cut from a pool of more than 16
        /// destinations, half of them inside 10/8, so ways collide and
        /// mutations leave stale stamps behind.
        #[test]
        fn cached_lookup_matches_walk_under_mutation(
            pool in proptest::collection::vec(any::<u32>(), 17..48),
            ops in proptest::collection::vec(arb_op(), 1..400),
        ) {
            let pool: Vec<Ip> = pool
                .iter()
                .map(|&x| Ip(if x & 1 == 0 { 0x0A00_0000 | (x >> 8) } else { x }))
                .collect();
            let mut t = LpmTrie::new();
            let mut cache = LpmCache::default();
            for (kind, i, len, value) in ops {
                let dst = pool[i % pool.len()];
                let prefix = Prefix::new(dst, len);
                match kind {
                    0 => {
                        t.insert(prefix, value);
                    }
                    1 => {
                        t.remove(prefix);
                    }
                    // Overwrite a present entry only.
                    2 if t.get(prefix).is_some() => {
                        t.insert(prefix, value);
                    }
                    _ => {}
                }
                prop_assert_eq!(t.lookup_cached(dst, &mut cache), t.lookup(dst));
            }
            for &dst in &pool {
                prop_assert_eq!(t.lookup_cached(dst, &mut cache), t.lookup(dst));
            }
        }
    }

    /// One destination per way, the first 10/8 address that hashes there.
    fn one_destination_per_way() -> Vec<Ip> {
        let mut dsts = [None; WAYS];
        for x in 0x0A00_0000u32.. {
            let way = &mut dsts[LpmCache::way_of(Ip(x))];
            way.get_or_insert(Ip(x));
            if dsts.iter().all(Option::is_some) {
                break;
            }
        }
        dsts.iter().flatten().copied().collect()
    }

    #[test]
    fn destinations_in_distinct_ways_walk_once_each() {
        let mut t = LpmTrie::new();
        t.insert(pfx("10.0.0.0/8"), 8);
        t.insert(pfx("10.1.0.0/16"), 16);
        let dsts = one_destination_per_way();
        let mut cache = LpmCache::default();
        for _ in 0..4 {
            for &dst in &dsts {
                assert_eq!(t.lookup_cached(dst, &mut cache), t.lookup(dst));
            }
        }
        assert_eq!(cache.walks, WAYS as u64);
        // A mutation stales every way: each destination walks once more.
        t.insert(pfx("10.2.0.0/16"), 16);
        for &dst in dsts.iter().chain(&dsts) {
            assert_eq!(t.lookup_cached(dst, &mut cache), t.lookup(dst));
        }
        assert_eq!(cache.walks, 2 * WAYS as u64);
    }

    #[test]
    fn noop_remove_keeps_cached_ways_valid() {
        let mut t = LpmTrie::new();
        t.insert(pfx("10.0.0.0/8"), 8);
        t.insert(pfx("10.1.0.0/16"), 16);
        let dsts = one_destination_per_way();
        let mut cache = LpmCache::default();
        let sweep = |t: &LpmTrie<i32>, cache: &mut LpmCache| {
            for &dst in &dsts {
                assert_eq!(t.lookup_cached(dst, cache), t.lookup(dst));
            }
        };
        sweep(&t, &mut cache);
        assert_eq!(cache.walks, WAYS as u64);
        // Neither a prefix with no trie node nor an interior node without
        // a value removes anything, so every way stays valid.
        assert_eq!(t.remove(pfx("192.168.0.0/16")), None);
        assert_eq!(t.remove(pfx("10.0.0.0/12")), None);
        sweep(&t, &mut cache);
        assert_eq!(cache.walks, WAYS as u64);
        // A real removal stales every way once; removing it again does not.
        assert_eq!(t.remove(pfx("10.1.0.0/16")), Some(16));
        sweep(&t, &mut cache);
        assert_eq!(t.remove(pfx("10.1.0.0/16")), None);
        sweep(&t, &mut cache);
        assert_eq!(cache.walks, 2 * WAYS as u64);
    }
}
