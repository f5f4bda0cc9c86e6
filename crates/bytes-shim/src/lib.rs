//! Vendored, dependency-free subset of the `bytes` crate: just [`Bytes`],
//! an immutable, cheaply cloneable byte buffer. Only the API surface this
//! workspace actually uses is provided, so the workspace builds with no
//! network access to a registry.

#![warn(missing_docs)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Size of the static all-zero buffer behind [`Bytes::zeroed`].
const ZERO_CHUNK: usize = 1 << 16;

/// The static zero buffer: every `Bytes::zeroed` view up to [`ZERO_CHUNK`]
/// bytes points into it, with no allocation and no reference count.
static ZEROS: [u8; ZERO_CHUNK] = [0; ZERO_CHUNK];

/// An immutable byte buffer. Cloning is O(1). A `Bytes` is a view
/// (`offset`, `len`) into a reference-counted backing allocation, or, for
/// zero-filled payloads, into one static zero buffer, which views share
/// without touching a reference count.
#[derive(Clone)]
pub struct Bytes {
    /// The backing allocation; `None` for a view of [`ZEROS`].
    data: Option<Arc<[u8]>>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::zeroed(0)
    }

    /// Wraps a static byte slice (copied; the real crate borrows, but the
    /// observable behaviour is identical for readers).
    #[must_use]
    pub fn from_static(data: &'static [u8]) -> Self {
        Self::copy_from_slice(data)
    }

    /// Copies a slice into a new buffer.
    #[must_use]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        let len = data.len();
        Self { data: Some(Arc::from(data)), off: 0, len }
    }

    /// `len` zero bytes. Free of allocation and reference counting for
    /// lengths up to 64 KiB: the view points at a static zero buffer, so
    /// building and dropping a synthetic-payload packet on the simulator
    /// hot path does no atomic read-modify-write.
    #[must_use]
    pub fn zeroed(len: usize) -> Self {
        if len <= ZERO_CHUNK {
            Self { data: None, off: 0, len }
        } else {
            Self::from(vec![0u8; len])
        }
    }

    /// Number of bytes in the buffer.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer holds no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        let data = self.data.as_deref().unwrap_or(&ZEROS);
        &data[self.off..self.off + self.len]
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Self { data: Some(Arc::from(v)), off: 0, len }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl From<&str> for Bytes {
    fn from(v: &str) -> Self {
        Self::copy_from_slice(v.as_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        iter.into_iter().collect::<Vec<u8>>().into()
    }
}

// Comparisons and hashing go through the visible slice, never the backing
// storage, so views with different offsets but equal contents are equal
// (and `Hash` stays consistent with `Borrow<[u8]>`).
impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        *self.as_slice() == other[..]
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_and_compares() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b, Bytes::copy_from_slice(&[1, 2, 3]));
        assert_eq!(b.clone(), b);
        assert!(Bytes::new().is_empty());
        assert_eq!(format!("{:?}", Bytes::from_static(b"a\n")), "b\"a\\n\"");
    }

    #[test]
    fn zeroed_shares_storage_and_compares_by_content() {
        let a = Bytes::zeroed(100);
        let b = Bytes::zeroed(100);
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|&x| x == 0));
        assert_eq!(a, b);
        assert_eq!(a, Bytes::from(vec![0u8; 100]));
        // Both views point at the static zero buffer: no backing
        // allocation, so no reference count to touch.
        assert!(a.data.is_none() && b.data.is_none());
        assert!(Bytes::zeroed(ZERO_CHUNK).data.is_none());
        assert!(std::ptr::eq(a.as_ptr(), ZEROS.as_ptr()));
        // Beyond the chunk size a dedicated allocation is made.
        let big = Bytes::zeroed(ZERO_CHUNK + 1);
        assert_eq!(big.len(), ZERO_CHUNK + 1);
        assert!(big.iter().all(|&x| x == 0));
    }

    #[test]
    fn hash_matches_borrowed_slice() {
        use std::collections::HashMap;
        let mut m: HashMap<Bytes, u32> = HashMap::new();
        m.insert(Bytes::from(vec![0u8; 4]), 7);
        // Lookup through Borrow<[u8]> must find a zeroed-view key equal.
        assert_eq!(m.get(&[0u8, 0, 0, 0][..]), Some(&7));
        assert_eq!(m.get(Bytes::zeroed(4).as_ref()), Some(&7));
    }
}
