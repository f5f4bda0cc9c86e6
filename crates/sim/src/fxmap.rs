//! A minimal Fowler/Fx-style integer hasher for hot-path maps.
//!
//! `std`'s default SipHash is DoS-resistant but costs ~1–2 ns per lookup,
//! which is measurable when a map sits on the per-packet forwarding path
//! (sink flow stats, PE label tables). Simulation keys are small trusted
//! integers, so a multiply-and-rotate hash is safe and several times
//! faster.
//!
//! The scheme is the classic FxHash fold used by rustc: for each 64-bit
//! word of input, `state = (state.rotate_left(5) ^ word) * K` with `K` an
//! odd constant derived from the golden ratio.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed with [`FxHasher`]; drop-in for `std::collections::HashMap`.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-and-rotate hasher for small trusted keys (see module docs).
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.fold(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.fold(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(1 << 40, "big");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.get(&(1 << 40)), Some(&"big"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn distinct_keys_distinct_hashes() {
        use std::hash::Hash;
        let h = |k: u64| {
            let mut hasher = FxHasher::default();
            k.hash(&mut hasher);
            hasher.finish()
        };
        // Sequential small integers (the common key shape here) must spread.
        let hashes: std::collections::HashSet<u64> = (0u64..1000).map(h).collect();
        assert_eq!(hashes.len(), 1000);
    }

    #[test]
    fn byte_slices_hash_consistently() {
        let mut a = FxHasher::default();
        a.write(b"hello world, 13");
        let mut b = FxHasher::default();
        b.write(b"hello world, 13");
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(b"hello world, 14");
        assert_ne!(a.finish(), c.finish());
    }
}
