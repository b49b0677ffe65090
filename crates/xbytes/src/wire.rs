//! The compact wire format beneath GIOP, and the one place it is spelled.
//!
//! Protocol messages are *not* GIOP: they are the transport beneath it, so
//! they use a fixed little-endian framing independent of platform profiles
//! (exactly as the Castro–Liskov library's wire format was independent of
//! the application's marshalling).
//!
//! A type crosses the fabric by implementing [`Wire`]. The primitives are
//! implemented here once; every struct and enum is *declared* once, with
//! [`wire_struct!`](crate::wire_struct) or [`wire_enum!`](crate::wire_enum),
//! and both directions are generated from that one field list — a field
//! cannot be written without being read, read in another order, or left
//! out. Truncation, a trailing byte, an unknown tag and an over-bound count
//! are each rejected in exactly one place below.

// L5 hostile arithmetic: a decoded length never wraps, truncates or
// indexes out of bounds
#![cfg_attr(
    not(test),
    deny(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        clippy::indexing_slicing
    )
)]

use crate::Bytes;

/// Writer for the compact format.
#[derive(Debug, Default)]
pub struct Writer {
    buffer: Vec<u8>,
    /// `Some(n)` on a writer that only counts ([`Wire::wire_len`]).
    counted: Option<usize>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Creates an empty writer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Writer {
        Writer {
            buffer: Vec::with_capacity(capacity),
            counted: None,
        }
    }

    fn sizing() -> Writer {
        Writer {
            buffer: Vec::new(),
            counted: Some(0),
        }
    }

    fn len(&self) -> usize {
        self.counted.unwrap_or(self.buffer.len())
    }

    /// Appends a tag/length-free u8.
    pub fn u8(&mut self, v: u8) -> &mut Writer {
        self.raw(&[v])
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) -> &mut Writer {
        self.raw(&v.to_le_bytes())
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) -> &mut Writer {
        self.raw(&v.to_le_bytes())
    }

    /// Appends a byte length or an element count as a u32 prefix.
    pub fn count(&mut self, n: usize) -> &mut Writer {
        self.raw(&prefix(n))
    }

    /// Appends raw bytes with a u32 length prefix.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Writer {
        self.count(v.len()).raw(v)
    }

    /// Appends fixed-size raw bytes without a length prefix.
    pub fn raw(&mut self, v: &[u8]) -> &mut Writer {
        match &mut self.counted {
            Some(n) => *n = n.saturating_add(v.len()),
            None => self.buffer.extend_from_slice(v),
        }
        self
    }

    /// Appends what `put` writes as length-prefixed bytes, patching the
    /// prefix afterwards; returns those bytes (none when only counting).
    pub fn framed(&mut self, put: impl FnOnce(&mut Writer)) -> &[u8] {
        let at = self.len();
        self.u32(0);
        let start = self.len();
        put(self);
        let len = prefix(self.len().saturating_sub(start));
        // a counting writer holds no bytes to patch
        if let Some(slot) = self.buffer.get_mut(at..start) {
            slot.copy_from_slice(&len);
        }
        self.buffer.get(start..).unwrap_or_default()
    }

    /// Finishes, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buffer
    }
}

/// The u32 prefix of a byte length or an element count.
fn prefix(n: usize) -> [u8; 4] {
    // encoder input is locally built and bounded far below u32::MAX; were it
    // not, a saturated prefix claims more bytes than follow and is refused
    u32::try_from(n).unwrap_or(u32::MAX).to_le_bytes()
}

/// Decode failure: input truncated or length field hostile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireError;

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed wire message")
    }
}

impl std::error::Error for WireError {}

/// Reader over the compact format.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    /// The received buffer `bytes` views, when reading one.
    shared: Option<&'a Bytes>,
    position: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader; decoding starts at [`Wire::decode`] or
    /// [`decode_seq`], which end every read in [`Reader::expect_end`].
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader {
            bytes,
            shared: None,
            position: 0,
        }
    }

    fn shared(bytes: &'a Bytes) -> Reader<'a> {
        Reader {
            bytes,
            shared: Some(bytes),
            position: 0,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        // checked: `position + n` must not wrap when `n` is hostile
        let end = self.position.checked_add(n).ok_or(WireError)?;
        let s = self.bytes.get(self.position..end).ok_or(WireError)?;
        self.position = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.take(N)?.try_into().map_err(|_| WireError)
    }

    /// Reads a u8.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        self.array().map(u8::from_le_bytes)
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an element count, refusing one above `max` before anything
    /// is allocated for it.
    pub fn count(&mut self, max: u32) -> Result<usize, WireError> {
        let n = self.u32()?;
        if n > max {
            return Err(WireError);
        }
        Ok(n as usize)
    }

    /// Reads length-prefixed bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads length-prefixed bytes: a slice of the buffer under
    /// [`Wire::decode_shared`], else a copy.
    fn shared_bytes(&mut self) -> Result<Bytes, WireError> {
        let len = self.u32()? as usize;
        let start = self.position;
        let slice = self.take(len)?;
        Ok(match self.shared {
            Some(buffer) => buffer.slice(start..self.position),
            None => Bytes::copy_from_slice(slice),
        })
    }

    /// Reads exactly `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.position)
    }

    /// Fails unless the reader is exhausted.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError)
        }
    }
}

/// Runs `put` on a writer sized for `len` bytes and returns what it wrote.
fn written(len: usize, put: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::with_capacity(len);
    put(&mut w);
    w.finish()
}

/// Runs `take` over all of `r`: a value followed by anything is refused.
fn whole<T>(
    mut r: Reader<'_>,
    take: impl FnOnce(&mut Reader<'_>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let value = take(&mut r)?;
    r.expect_end()?;
    Ok(value)
}

/// A value with one compact-wire layout, written by [`put`](Wire::put) and
/// read back by [`take`](Wire::take).
pub trait Wire: Sized {
    /// Appends this value.
    fn put(&self, w: &mut Writer);

    /// Reads one value from the front of `r`.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation, an unknown tag or an over-bound count —
    /// all reachable by a Byzantine peer.
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// The encoded length, counted without writing anything.
    fn wire_len(&self) -> usize {
        let mut w = Writer::sizing();
        self.put(&mut w);
        w.len()
    }

    /// Encodes this value alone into a buffer allocated at its size.
    fn encode(&self) -> Vec<u8> {
        written(self.wire_len(), |w| self.put(w))
    }

    /// Decodes a buffer holding exactly one value.
    ///
    /// # Errors
    ///
    /// As [`take`](Wire::take), and on any trailing byte.
    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        whole(Reader::new(bytes), Self::take)
    }

    /// [`decode`](Wire::decode), but `Bytes` fields are slices of the
    /// received buffer, not copies.
    ///
    /// # Errors
    ///
    /// As [`decode`](Wire::decode).
    fn decode_shared(bytes: &Bytes) -> Result<Self, WireError> {
        whole(Reader::shared(bytes), Self::take)
    }
}

/// Little-endian integers, through the reader/writer method of the same name.
macro_rules! wire_int {
    ($($int:ident),+) => {$(
        impl Wire for $int {
            fn put(&self, w: &mut Writer) {
                w.$int(*self);
            }

            fn take(r: &mut Reader<'_>) -> Result<$int, WireError> {
                r.$int()
            }
        }
    )+};
}
wire_int!(u8, u32, u64);

/// Fixed-size raw bytes, no length prefix.
impl<const N: usize> Wire for [u8; N] {
    fn put(&self, w: &mut Writer) {
        w.raw(self);
    }

    fn take(r: &mut Reader<'_>) -> Result<[u8; N], WireError> {
        r.array()
    }
}

/// Length-prefixed bytes. The claimed length is checked against the bytes
/// present before the copy is allocated.
impl Wire for Vec<u8> {
    fn put(&self, w: &mut Writer) {
        w.bytes(self);
    }

    fn take(r: &mut Reader<'_>) -> Result<Vec<u8>, WireError> {
        Ok(r.bytes()?.to_vec())
    }
}

/// Length-prefixed bytes, laid out as `Vec<u8>`; under
/// [`decode_shared`](Wire::decode_shared), a slice of the received buffer.
impl Wire for Bytes {
    fn put(&self, w: &mut Writer) {
        w.bytes(self);
    }

    fn take(r: &mut Reader<'_>) -> Result<Bytes, WireError> {
        r.shared_bytes()
    }
}

/// A 0/1 presence tag, then the value.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Writer) {
        match self {
            None => {
                w.u8(0);
            }
            Some(value) => {
                w.u8(1);
                value.put(w);
            }
        }
    }

    fn take(r: &mut Reader<'_>) -> Result<Option<T>, WireError> {
        Ok(match r.u8()? {
            0 => None,
            1 => Some(T::take(r)?),
            _ => return Err(WireError),
        })
    }
}

/// Appends an element count, then each item (a `field <= MAX` declaration).
pub fn put_seq<'a, T: Wire + 'a>(w: &mut Writer, items: impl ExactSizeIterator<Item = &'a T>) {
    w.count(items.len());
    for item in items {
        item.put(w);
    }
}

/// Reads a count of at most `max`, then that many items. The count only
/// reserves room for 64: a hostile one costs its sender the bytes it claims.
///
/// # Errors
///
/// [`WireError`] on an over-bound count or a malformed item.
pub fn take_seq<T: Wire>(r: &mut Reader<'_>, max: u32) -> Result<Vec<T>, WireError> {
    let n = r.count(max)?;
    let mut items = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        items.push(T::take(r)?);
    }
    Ok(items)
}

/// Encodes a list that travels alone: a count, then each item.
pub fn encode_seq<T: Wire>(items: &[T]) -> Vec<u8> {
    let mut sizing = Writer::sizing();
    put_seq(&mut sizing, items.iter());
    written(sizing.len(), |w| put_seq(w, items.iter()))
}

/// Decodes a buffer holding exactly one list of at most `max` items.
///
/// # Errors
///
/// As [`take_seq`], and on any trailing byte.
pub fn decode_seq<T: Wire>(bytes: &[u8], max: u32) -> Result<Vec<T>, WireError> {
    whole(Reader::new(bytes), |r| take_seq(r, max))
}

/// Appends a value as a length-delimited sub-message (a `field as framed`
/// declaration).
pub fn put_framed<T: Wire>(w: &mut Writer, value: &T) {
    w.framed(|w| value.put(w));
}

/// Reads a length-delimited sub-message; the value must fill it exactly.
///
/// # Errors
///
/// [`WireError`] when the frame is truncated or the value does not end
/// where the frame does.
pub fn take_framed<T: Wire>(r: &mut Reader<'_>) -> Result<T, WireError> {
    T::decode_shared(&r.shared_bytes()?)
}

/// Declares the wire layout of a struct: its fields, in wire order.
///
/// Both directions come from the one list, so the order cannot differ
/// between them, and the list must name every field. A plain field travels
/// through its own [`Wire`] impl; `field <= MAX` is a `Vec` sent as a count
/// of at most `MAX` and then its items; `field as framed` is sent as a
/// length-delimited sub-message. Tuple structs list a name per position.
///
/// ```
/// use xbytes::wire::Wire;
/// use xbytes::wire_struct;
///
/// #[derive(Debug, PartialEq)]
/// struct Ack {
///     element: u32,
///     up_to: u64,
///     skipped: Vec<u64>,
/// }
/// wire_struct!(Ack { element, up_to, skipped <= 16 });
///
/// let ack = Ack { element: 7, up_to: 42, skipped: vec![40] };
/// assert_eq!(Ack::decode(&ack.encode()), Ok(ack));
/// ```
///
/// A declaration that leaves a field out does not build:
///
/// ```compile_fail
/// use xbytes::wire_struct;
///
/// struct Ack {
///     element: u32,
///     up_to: u64,
/// }
/// wire_struct!(Ack { element }); // `up_to` would be neither written nor read
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($f:ident $(<= $max:tt)? $(as $mode:ident)?),* $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, w: &mut $crate::wire::Writer) {
                let $ty { $($f),* } = self;
                $($crate::__wire_put!(w, $f $(, max $max)? $(, $mode)?);)*
            }

            fn take(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok($ty { $($f: $crate::__wire_take!(r $(, max $max)? $(, $mode)?)),* })
            }
        }
    };
    ($ty:ident ( $($f:ident $(<= $max:tt)? $(as $mode:ident)?),* $(,)? )) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, w: &mut $crate::wire::Writer) {
                let $ty($($f),*) = self;
                $($crate::__wire_put!(w, $f $(, max $max)? $(, $mode)?);)*
            }

            fn take(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok($ty($($crate::__wire_take!(r $(, max $max)? $(, $mode)?)),*))
            }
        }
    };
}

/// Declares the wire layout of an enum: a `u8` tag per variant, then the
/// variant's fields as in [`wire_struct!`](crate::wire_struct).
///
/// A variant left out does not build (the generated `match` is not
/// exhaustive), a tag used twice does not build, and any tag outside the
/// list is refused on decode.
///
/// ```
/// use xbytes::wire::{Wire, WireError};
/// use xbytes::wire_enum;
///
/// #[derive(Debug, PartialEq)]
/// enum Op {
///     Deliver(Vec<u8>),
///     Ack { element: u32, up_to: u64 },
///     Flush,
/// }
/// wire_enum!(Op {
///     0 => Deliver(payload),
///     1 => Ack { element, up_to },
///     2 => Flush,
/// });
///
/// assert_eq!(Op::Deliver(vec![9]).encode(), [0, 1, 0, 0, 0, 9]);
/// assert_eq!(Op::decode(&[2]), Ok(Op::Flush));
/// assert_eq!(Op::decode(&[3]), Err(WireError));
/// ```
///
/// ```compile_fail
/// use xbytes::wire_enum;
///
/// enum Op {
///     Flush,
///     Close,
/// }
/// wire_enum!(Op { 2 => Flush, 2 => Close }); // one tag, two variants
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident { $(
        $tag:tt => $variant:ident
        $(( $($t:ident $(<= $tmax:tt)? $(as $tmode:ident)?),* ))?
        $({ $($f:ident $(<= $fmax:tt)? $(as $fmode:ident)?),* })?
    ),* $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, w: &mut $crate::wire::Writer) {
                match self {
                    $($ty::$variant $(($($t),*))? $({ $($f),* })? => {
                        w.u8($tag);
                        $($($crate::__wire_put!(w, $t $(, max $tmax)? $(, $tmode)?);)*)?
                        $($($crate::__wire_put!(w, $f $(, max $fmax)? $(, $fmode)?);)*)?
                    })*
                }
            }

            #[deny(unreachable_patterns)]
            fn take(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok(match r.u8()? {
                    $($tag => $ty::$variant
                        $(($($crate::__wire_take!(r $(, max $tmax)? $(, $tmode)?)),*))?
                        $({ $($f: $crate::__wire_take!(r $(, max $fmax)? $(, $fmode)?)),* })?,)*
                    _ => return Err($crate::wire::WireError),
                })
            }
        }
    };
}

/// Gives whole-buffer frames inherent `encode`/`decode` (the [`Wire`] ones),
/// so callers need not import the trait.
#[macro_export]
macro_rules! wire_frame {
    ($($ty:ident),+ $(,)?) => {$(
        impl $ty {
            /// Encodes to the compact wire format.
            pub fn encode(&self) -> Vec<u8> {
                $crate::wire::Wire::encode(self)
            }

            /// Decodes a buffer holding exactly one value.
            ///
            /// # Errors
            ///
            /// [`WireError`]($crate::wire::WireError) on truncation, trailing
            /// bytes, unknown tags or hostile counts — all reachable by a
            /// Byzantine peer.
            pub fn decode(bytes: &[u8]) -> Result<$ty, $crate::wire::WireError> {
                $crate::wire::Wire::decode(bytes)
            }
        }
    )+};
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_put {
    ($w:ident, $v:expr) => {
        $crate::wire::Wire::put($v, $w)
    };
    ($w:ident, $v:expr, max $max:tt) => {
        $crate::wire::put_seq($w, $v.iter())
    };
    ($w:ident, $v:expr, framed) => {
        $crate::wire::put_framed($w, $v)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_take {
    ($r:ident) => {
        $crate::wire::Wire::take($r)?
    };
    ($r:ident, max $max:tt) => {
        $crate::wire::take_seq($r, $max)?
    };
    ($r:ident, framed) => {
        $crate::wire::take_framed($r)?
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_field_kinds() {
        let mut w = Writer::new();
        w.u8(7)
            .u32(0xDEAD)
            .u64(u64::MAX)
            .bytes(b"hello")
            .raw(&[1, 2]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.raw(2).unwrap(), &[1, 2]);
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn truncation_detected() {
        let mut w = Writer::new();
        w.u64(1);
        let buf = w.finish();
        let mut r = Reader::new(&buf[..7]);
        assert_eq!(r.u64(), Err(WireError));
    }

    #[test]
    fn hostile_length_field_detected() {
        // claims 1000 bytes, has 2
        let mut w = Writer::new();
        w.u32(1000).raw(&[1, 2]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes(), Err(WireError));
    }

    #[test]
    fn expect_end_catches_trailing_garbage() {
        let mut w = Writer::new();
        w.u8(1).u8(2);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        r.u8().unwrap();
        assert_eq!(r.expect_end(), Err(WireError));
    }
}
