//! Minimal, std-only stand-in for the `bytes` crate.
//!
//! ITDOS passes message payloads around the simulator by value, often fanning
//! one payload out to every replica in a domain. [`Bytes`] makes that cheap:
//! it is an immutable, reference-counted byte buffer whose `clone` is an
//! `Arc` bump, not a copy. Its storage is one allocation, an `Arc<[u8]>`
//! holding the counts and the bytes together. Frames are written straight
//! into that storage by a [`wire::Writer`] and handed over whole; a `Bytes`
//! made from a `Vec` or a slice copies it once into a fresh one.
//!
//! The [`wire`] module is ITDOS's own: the compact wire format beneath
//! GIOP. It lives in this leaf crate so that every crate owning a wire type
//! can implement [`wire::Wire`] for it.
//!
//! Only the slice of the upstream `bytes` API that this workspace uses is
//! implemented (construction, cheap clone, `Deref` to `[u8]`, and a checked
//! zero-copy [`Bytes::get`] in place of upstream's panicking `slice`);
//! anything reachable through `&[u8]` comes for free via `Deref`.
//!
//! ```
//! use xbytes::Bytes;
//!
//! let payload = Bytes::from(vec![1, 2, 3, 4]);
//! let fanout: Vec<Bytes> = (0..4).map(|_| payload.clone()).collect(); // no copies
//! assert_eq!(&payload[1..3], &[2, 3]);
//! assert_eq!(payload.get(1..3), Some(Bytes::from_static(&[2, 3])));
//! assert_eq!(payload.get(3..9), None);
//! assert_eq!(fanout[3].len(), 4);
//! ```

// L3 panic-freedom: a window is checked, never indexed
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod wire;

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Backing storage: either a borrowed static slice (zero-copy literals) or a
/// shared heap buffer, one allocation for the counts and the bytes.
#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<[u8]>),
}

/// A cheaply clonable, immutable slice of bytes.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    /// Window into the backing storage (supports zero-copy [`Bytes::get`]);
    /// `start <= end <= ` the storage's length.
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

    /// The first `len` bytes of `storage` (all of it when shorter), shared
    /// without a copy.
    fn window(storage: Arc<[u8]>, len: usize) -> Bytes {
        Bytes {
            end: len.min(storage.len()),
            repr: Repr::Shared(storage),
            start: 0,
        }
    }

    /// Copies `data` into a new shared buffer: one allocation.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::window(Arc::from(data), data.len())
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-view sharing the storage, or `None` when the range
    /// falls outside `0..=len` or runs backwards.
    pub fn get(&self, range: impl RangeBounds<usize>) -> Option<Bytes> {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.checked_add(1)?,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n.checked_add(1)?,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        (lo <= hi && hi <= self.len()).then(|| Bytes {
            repr: self.repr.clone(),
            start: self.start + lo,
            end: self.start + hi,
        })
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
        // the window lies inside its storage by construction
        full.get(self.start..self.end).unwrap_or_default()
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

/// Copies the vector into one shared allocation (and frees its buffer).
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::copy_from_slice(&v)
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
        Bytes::copy_from_slice(&b)
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        let storage: Arc<[u8]> = iter.into_iter().collect();
        let len = storage.len();
        Bytes::window(storage, len)
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
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        /// This thread's allocations (tests run on threads of their own).
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    /// The system allocator, counting each thread's allocations.
    struct Counting;

    // SAFETY: every method forwards its arguments unchanged to `System`;
    // the counter touches no allocator state.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            // SAFETY: the caller's `layout` obligations pass through.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` with `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: Counting = Counting;

    fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = ALLOCS.with(Cell::get);
        let value = f();
        (value, ALLOCS.with(Cell::get) - before)
    }

    #[test]
    fn a_presized_writers_bytes_are_one_shared_allocation() {
        let (frame, n) = allocations(|| {
            let mut w = wire::Writer::with_capacity(16);
            w.u8(1).u32(2).bytes(b"abc");
            w.finish()
        });
        assert_eq!(n, 1, "the writer's storage is the frame's");
        assert_eq!(frame, [1, 2, 0, 0, 0, 3, 0, 0, 0, b'a', b'b', b'c']);
        let data = frame.as_slice().as_ptr();
        let ((copy, tail), n) = allocations(|| (frame.clone(), frame.get(9..)));
        assert_eq!(n, 0, "clone and get share the storage");
        assert_eq!(copy.as_slice().as_ptr(), data);
        assert_eq!(tail.unwrap().as_slice().as_ptr(), data.wrapping_add(9));
        let (_, n) = allocations(|| Bytes::copy_from_slice(b"abc"));
        assert_eq!(n, 1, "a copy is one allocation too");
    }

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
        let s = a.get(2..5).unwrap();
        assert_eq!(s, [2, 3, 4]);
        assert_eq!(s.get(1..).unwrap().to_vec(), vec![3, 4]);
        assert_eq!(a.get(..), Some(a.clone()));
        assert_eq!(a.get(2..=4), Some(s.clone()));
        assert_eq!(s.as_slice().as_ptr(), unsafe {
            a.as_slice().as_ptr().add(2)
        });
    }

    #[test]
    fn get_out_of_range_is_none() {
        let a = Bytes::from(vec![1, 2]);
        assert_eq!(a.get(0..3), None, "past the end");
        assert_eq!(a.get(3..), None, "starts past the end");
        assert_eq!(a.get(..=2), None, "inclusive end past the end");
        assert_eq!(a.get(..=usize::MAX), None, "inclusive end wraps");
        assert_eq!(a.get((Bound::Excluded(usize::MAX), Bound::Unbounded)), None);
        let (hi, lo) = (2, 1);
        assert_eq!(a.get(hi..lo), None, "runs backwards");
        assert_eq!(a.get(2..), Some(Bytes::new()), "the empty tail");
        let s = a.get(1..).unwrap();
        assert_eq!(s.get(0..2), None, "bounded by the window, not the storage");
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
