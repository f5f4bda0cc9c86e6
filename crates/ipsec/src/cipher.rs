//! A toy 64-bit-block Feistel cipher with CBC mode.
//!
//! Shape-compatible stand-in for DES/3DES (64-bit blocks, 16 rounds, CBC
//! with explicit IV) so that ESP padding, IV handling, and per-byte costs
//! behave like the real thing. **Not secure**; see the crate-level
//! disclaimer.

/// A 16-round Feistel cipher over 64-bit blocks.
#[derive(Clone, Debug)]
pub struct FeistelCipher {
    round_keys: [u32; 16],
}

/// Cipher block size in bytes.
pub const BLOCK: usize = 8;

fn round_fn(half: u32, key: u32) -> u32 {
    // A small ARX mix: add, rotate, xor. Enough diffusion to make
    // ciphertext look uniform to the classifier experiments.
    let x = half.wrapping_add(key);
    let x = x.rotate_left(5) ^ x.rotate_right(11) ^ key;
    x.wrapping_mul(0x9E37_79B9).rotate_left(7)
}

impl FeistelCipher {
    /// Derives round keys from a 64-bit key via an xorshift-style schedule.
    pub fn new(key: u64) -> Self {
        let mut s = key | 1;
        let mut round_keys = [0u32; 16];
        for rk in &mut round_keys {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *rk = (s >> 16) as u32;
        }
        FeistelCipher { round_keys }
    }

    /// Encrypts one 64-bit block.
    pub fn encrypt_block(&self, block: u64) -> u64 {
        let (mut l, mut r) = ((block >> 32) as u32, block as u32);
        for &k in &self.round_keys {
            let (nl, nr) = (r, l ^ round_fn(r, k));
            l = nl;
            r = nr;
        }
        // Final swap, as in DES.
        (u64::from(r) << 32) | u64::from(l)
    }

    /// Decrypts one 64-bit block.
    fn decrypt_block(&self, block: u64) -> u64 {
        let (mut r, mut l) = ((block >> 32) as u32, block as u32);
        for &k in self.round_keys.iter().rev() {
            let (nr, nl) = (l, r ^ round_fn(l, k));
            r = nr;
            l = nl;
        }
        (u64::from(l) << 32) | u64::from(r)
    }

    /// CBC-encrypts `data` in place. `data.len()` must be a multiple of
    /// [`BLOCK`]; the caller pads first (ESP does).
    ///
    /// # Panics
    /// Panics on unpadded input.
    pub fn cbc_encrypt(&self, iv: u64, data: &mut [u8]) {
        assert!(data.len().is_multiple_of(BLOCK), "CBC input must be block-aligned");
        let mut prev = iv;
        for chunk in data.chunks_exact_mut(BLOCK) {
            let p = u64::from_be_bytes(chunk.try_into().expect("exact chunk"));
            let c = self.encrypt_block(p ^ prev);
            chunk.copy_from_slice(&c.to_be_bytes());
            prev = c;
        }
    }

    /// CBC-decrypts `data` in place.
    ///
    /// # Panics
    /// Panics on unpadded input.
    pub fn cbc_decrypt(&self, iv: u64, data: &mut [u8]) {
        assert!(data.len().is_multiple_of(BLOCK), "CBC input must be block-aligned");
        let mut prev = iv;
        for chunk in data.chunks_exact_mut(BLOCK) {
            let c = u64::from_be_bytes(chunk.try_into().expect("exact chunk"));
            let p = self.decrypt_block(c) ^ prev;
            chunk.copy_from_slice(&p.to_be_bytes());
            prev = c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_roundtrip() {
        let c = FeistelCipher::new(0xDEAD_BEEF_CAFE_F00D);
        for p in [0u64, 1, u64::MAX, 0x0123_4567_89AB_CDEF] {
            assert_eq!(c.decrypt_block(c.encrypt_block(p)), p);
        }
    }

    #[test]
    fn different_keys_differ() {
        let a = FeistelCipher::new(1);
        let b = FeistelCipher::new(2);
        assert_ne!(a.encrypt_block(42), b.encrypt_block(42));
    }

    #[test]
    fn encryption_is_not_identity_and_diffuses() {
        let c = FeistelCipher::new(7);
        let e0 = c.encrypt_block(0);
        let e1 = c.encrypt_block(1);
        assert_ne!(e0, 0);
        // One flipped plaintext bit should flip many ciphertext bits.
        assert!((e0 ^ e1).count_ones() > 10, "poor diffusion: {:064b}", e0 ^ e1);
    }

    #[test]
    fn cbc_roundtrip_and_chaining() {
        let c = FeistelCipher::new(99);
        let mut data = (0u8..64).collect::<Vec<_>>();
        let orig = data.clone();
        c.cbc_encrypt(0x1111, &mut data);
        assert_ne!(data, orig);
        // Identical plaintext blocks must encrypt differently under CBC.
        let mut rep = vec![0xAB; 32];
        c.cbc_encrypt(0x2222, &mut rep);
        assert_ne!(rep[0..8], rep[8..16]);
        c.cbc_decrypt(0x1111, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn cbc_wrong_iv_garbles_first_block_only() {
        let c = FeistelCipher::new(5);
        let mut data = vec![7u8; 24];
        c.cbc_encrypt(123, &mut data);
        c.cbc_decrypt(124, &mut data);
        assert_ne!(&data[..8], &[7u8; 8][..]);
        assert_eq!(&data[8..], &[7u8; 16][..]);
    }

    #[test]
    #[should_panic(expected = "block-aligned")]
    fn cbc_rejects_unaligned() {
        FeistelCipher::new(1).cbc_encrypt(0, &mut [0u8; 7]);
    }
}
