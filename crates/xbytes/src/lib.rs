//! Minimal, std-only stand-in for the `bytes` crate.
//!
//! ITDOS passes message payloads around the simulator by value, often fanning
//! one payload out to every replica in a domain. [`Bytes`] makes that cheap:
//! it is an immutable, reference-counted byte buffer whose `clone` is an
//! `Arc` bump, not a copy, and one made from a `Vec` keeps that vector's
//! buffer. Frames are built in a [`wire::Writer`] and handed over whole.
//!
//! The [`wire`] module is ITDOS's own: the compact wire format beneath
//! GIOP. It lives in this leaf crate so that every crate owning a wire type
//! can implement [`wire::Wire`] for it.
//!
//! Only the slice of the upstream `bytes` API that this workspace uses is
//! implemented (construction, cheap clone, `Deref` to `[u8]`, `slice`);
//! anything reachable through `&[u8]` comes for free via `Deref`.
//!
//! ```
//! use xbytes::Bytes;
//!
//! let payload = Bytes::from(vec![1, 2, 3, 4]);
//! let fanout: Vec<Bytes> = (0..4).map(|_| payload.clone()).collect(); // no copies
//! assert_eq!(&payload[1..3], &[2, 3]);
//! assert_eq!(payload.slice(1..3), Bytes::from_static(&[2, 3]));
//! assert_eq!(fanout[3].len(), 4);
//! ```

pub mod wire;

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Backing storage: either a borrowed static slice (zero-copy literals) or a
/// shared heap buffer — the very `Vec` a [`Bytes`] was made from.
#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

/// A cheaply clonable, immutable slice of bytes.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    /// Window into the backing storage (supports zero-copy `slice`).
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub const fn new() -> Bytes {
        Bytes {
            repr: Repr::Static(&[]),
            start: 0,
            end: 0,
        }
    }

    /// Wraps a static slice without copying.
    pub const fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes {
            repr: Repr::Static(bytes),
            start: 0,
            end: bytes.len(),
        }
    }

    /// Copies `data` into a new shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-view without copying the underlying storage.
    ///
    /// # Panics
    /// Panics when the range falls outside `0..=len` (same as upstream).
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice out of bounds: {lo}..{hi} of {}",
            self.len()
        );
        Bytes {
            repr: self.repr.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Copies the view into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        let full: &[u8] = match &self.repr {
            Repr::Static(s) => s,
            Repr::Shared(a) => a,
        };
        &full[self.start..self.end]
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
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
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            repr: Repr::Shared(Arc::new(v)),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    fn from(s: &'static [u8; N]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Bytes {
        Bytes::from(b.into_vec())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
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
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            // ASCII-printable passthrough, hex escape otherwise (upstream style)
            match b {
                b'"' => write!(f, "\\\"")?,
                b'\\' => write!(f, "\\\\")?,
                0x20..=0x7e => write!(f, "{}", b as char)?,
                _ => write!(f, "\\x{b:02x}")?,
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_storage() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        let (pa, pb) = (a.as_slice().as_ptr(), b.as_slice().as_ptr());
        assert_eq!(pa, pb, "clone must not copy");
        assert_eq!(a, b);
    }

    #[test]
    fn slice_is_zero_copy_and_bounded() {
        let a = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let s = a.slice(2..5);
        assert_eq!(s, [2, 3, 4]);
        assert_eq!(s.slice(1..).to_vec(), vec![3, 4]);
        assert_eq!(a.slice(..), a);
        assert_eq!(s.as_slice().as_ptr(), unsafe {
            a.as_slice().as_ptr().add(2)
        });
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slice_past_end_panics() {
        Bytes::from(vec![1, 2]).slice(0..3);
    }

    #[test]
    fn from_vec_keeps_the_vectors_buffer() {
        let v = vec![5u8, 6, 7, 8];
        let data = v.as_ptr();
        let a = Bytes::from(v);
        assert_eq!(a.as_slice().as_ptr(), data, "the Vec's own buffer");
        assert_eq!(a.clone().as_slice().as_ptr(), data, "clone shares it");
        assert_eq!(a.slice(1..).as_slice().as_ptr(), data.wrapping_add(1));
        assert_eq!(a, [5, 6, 7, 8]);
    }

    #[test]
    fn static_bytes_are_zero_copy() {
        const GREETING: &[u8] = b"hello";
        let b = Bytes::from_static(GREETING);
        assert_eq!(b.as_slice().as_ptr(), GREETING.as_ptr());
        assert_eq!(b, *GREETING);
    }

    #[test]
    fn deref_gives_slice_api() {
        let b = Bytes::from(vec![9, 8, 7]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.iter().copied().max(), Some(9));
        assert_eq!(&b[..2], &[9, 8]);
    }

    #[test]
    fn equality_and_ordering_cross_types() {
        let b = Bytes::from(vec![1, 2]);
        assert_eq!(b, vec![1, 2]);
        assert_eq!(b, [1, 2]);
        assert_eq!(b, [1u8, 2][..]);
        assert!(Bytes::copy_from_slice(&[1]) < Bytes::copy_from_slice(&[2]));
    }

    #[test]
    fn debug_escapes_nonprintable() {
        let b = Bytes::from(vec![b'a', 0x00, b'"']);
        assert_eq!(format!("{b:?}"), "b\"a\\x00\\\"\"");
    }
}
