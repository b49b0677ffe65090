//! Minimal, std-only stand-in for the `bytes` crate.
//!
//! ITDOS passes message payloads around the simulator by value, often fanning
//! one payload out to every replica in a domain. [`Bytes`] makes that cheap:
//! it is an immutable, reference-counted byte buffer whose `clone` is an
//! `Arc` bump, not a copy. [`BytesMut`] is the growable builder that
//! [freezes](BytesMut::freeze) into a [`Bytes`].
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
/// shared heap allocation.
#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<[u8]>),
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
            repr: Repr::Shared(Arc::from(v)),
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

/// A growable byte buffer that freezes into an immutable [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> BytesMut {
        BytesMut { buf: Vec::new() }
    }

    /// Creates an empty buffer with at least `cap` bytes of capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.buf.extend_from_slice(extend);
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a slice (alias matching the upstream `BufMut` name).
    pub fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Clears the buffer, keeping capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Converts into an immutable [`Bytes`] (no copy).
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(buf: Vec<u8>) -> BytesMut {
        BytesMut { buf }
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Bytes {
        b.freeze()
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.buf.extend(iter);
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Bytes::copy_from_slice(&self.buf).fmt(f)
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
    fn bytes_mut_builds_and_freezes() {
        let mut m = BytesMut::with_capacity(8);
        m.put_u8(1);
        m.put_slice(&[2, 3]);
        m.extend_from_slice(&[4]);
        assert_eq!(m.len(), 4);
        let frozen = m.freeze();
        assert_eq!(frozen, [1, 2, 3, 4]);
    }

    #[test]
    fn equality_and_ordering_cross_types() {
        let b = Bytes::from(vec![1, 2]);
        assert_eq!(b, vec![1, 2]);
        assert_eq!(b, [1, 2]);
        assert_eq!(b, *&[1u8, 2][..]);
        assert!(Bytes::from(vec![1]) < Bytes::from(vec![2]));
    }

    #[test]
    fn debug_escapes_nonprintable() {
        let b = Bytes::from(vec![b'a', 0x00, b'"']);
        assert_eq!(format!("{b:?}"), "b\"a\\x00\\\"\"");
    }
}
