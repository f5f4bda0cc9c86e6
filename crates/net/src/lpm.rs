//! Longest-prefix-match forwarding table.
//!
//! A binary trie over address bits, with all nodes stored in one `Vec` and
//! children addressed by dense `u32` indices — a lookup is a pure integer
//! walk with no pointer chasing through separate allocations and no per-call
//! allocation. This is the structure whose per-packet cost experiment **F4**
//! compares against the MPLS label swap (paper §3: "the less time devices
//! spend inspecting traffic, the more time they have to forward it").

use crate::addr::{Ip, Prefix};

const NONE: u32 = u32::MAX;

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

/// One-entry memo for [`LpmTrie::lookup_cached`]: the destination of the
/// last lookup and the trie node it resolved to, stamped with the trie's
/// mutation version. `Default` starts empty; owners need no setup.
#[derive(Clone, Copy, Debug, Default)]
pub struct LpmCache {
    /// `(destination, matched node index)`; `u32::MAX` encodes a miss.
    entry: Option<(Ip, u32)>,
    /// Trie version the entry was taken at.
    version: u64,
}

/// A longest-prefix-match table mapping [`Prefix`]es to values of type `V`.
#[derive(Clone, Debug)]
pub struct LpmTrie<V> {
    nodes: Vec<Node<V>>,
    len: usize,
    /// Bumped on every mutation; lets [`LpmCache`] entries self-invalidate.
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
    /// Routers keep one cache per table next to it; steady flows hit the
    /// same destination repeatedly, turning the bit-by-bit trie walk into a
    /// single indexed load. The cache is stamped with the trie's mutation
    /// version, so route changes (insert/remove/`get_mut`) transparently
    /// force a re-walk — no explicit invalidation hook to forget.
    #[inline]
    pub fn lookup_cached<'a>(&'a self, ip: Ip, cache: &mut LpmCache) -> Option<&'a V> {
        if cache.version == self.version {
            if let Some((hit_ip, node)) = cache.entry {
                if hit_ip == ip {
                    if node == NONE {
                        return None;
                    }
                    return self.nodes[node as usize].value.as_ref();
                }
            }
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
        cache.version = self.version;
        cache.entry = Some((ip, best));
        if best == NONE {
            None
        } else {
            self.nodes[best as usize].value.as_ref()
        }
    }

    /// Exact-match lookup of a stored prefix.
    pub fn get(&self, prefix: Prefix) -> Option<&V> {
        let node = self.find_node(prefix)?;
        self.nodes[node].value.as_ref()
    }

    /// Mutable exact-match lookup.
    pub fn get_mut(&mut self, prefix: Prefix) -> Option<&mut V> {
        let node = self.find_node(prefix)?;
        self.version += 1;
        self.nodes[node].value.as_mut()
    }

    /// Removes `prefix`, returning its value if present. Interior trie nodes
    /// are not reclaimed (tables in the emulator only shrink when routes are
    /// withdrawn, and reuse the slots on re-insert).
    pub fn remove(&mut self, prefix: Prefix) -> Option<V> {
        self.version += 1;
        let node = self.find_node(prefix)?;
        let old = self.nodes[node].value.take();
        if old.is_some() {
            self.len -= 1;
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
}
