//! CDR (Common Data Representation) marshalling.
//!
//! Faithful to the GIOP 1.x CDR rules that matter for heterogeneity:
//! primitives are aligned to their natural size *relative to the start of
//! the encapsulation*, strings carry a length (including NUL) and a NUL
//! terminator, sequences carry a `u32` count, and **the byte order is the
//! sender's native order** — the receiver byte-swaps. Two correct replicas
//! on different platforms therefore produce different bytes for the same
//! value, which is exactly why the paper votes on unmarshalled data
//! (§3.6).

// L5 hostile arithmetic: a decoded length never wraps or truncates (the
// crate's one other module, `platform`, reads no bytes)
#![cfg_attr(
    not(test),
    deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation)
)]

use crate::types::{Seq, TypeDesc, Value};

/// Byte order of an encapsulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endianness {
    /// Most significant byte first.
    Big,
    /// Least significant byte first (flag bit set in GIOP).
    Little,
}

impl Endianness {
    /// The GIOP flags bit for this byte order.
    pub(crate) fn flag_bit(self) -> u8 {
        match self {
            Endianness::Big => 0,
            Endianness::Little => 1,
        }
    }

    /// Parses the GIOP flags bit.
    pub(crate) fn from_flag_bit(bit: u8) -> Endianness {
        if bit & 1 == 1 {
            Endianness::Little
        } else {
            Endianness::Big
        }
    }
}

/// Marshalling/unmarshalling failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdrError {
    /// Input ended before the value was complete.
    Truncated {
        /// Bytes needed at the failure point.
        needed: usize,
        /// Bytes remaining.
        remaining: usize,
    },
    /// A string was not valid UTF-8 or not NUL-terminated.
    BadString,
    /// A boolean octet was neither 0 nor 1.
    BadBoolean(u8),
    /// An enum discriminant exceeded the variant count.
    BadEnum {
        /// The discriminant read.
        discriminant: u32,
        /// Number of declared variants.
        variants: usize,
    },
    /// A sequence length exceeded the sanity limit.
    OversizedSequence(u32),
    /// A value did not conform to the type description during encoding.
    TypeMismatch {
        /// Kind of the value supplied.
        value_kind: &'static str,
        /// Description of the expected type.
        expected: String,
    },
}

impl std::fmt::Display for CdrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CdrError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated input: needed {needed} bytes, {remaining} remain"
                )
            }
            CdrError::BadString => write!(f, "malformed CDR string"),
            CdrError::BadBoolean(b) => write!(f, "invalid boolean octet {b:#04x}"),
            CdrError::BadEnum {
                discriminant,
                variants,
            } => write!(
                f,
                "enum discriminant {discriminant} out of range ({variants} variants)"
            ),
            CdrError::OversizedSequence(n) => write!(f, "sequence length {n} exceeds limit"),
            CdrError::TypeMismatch {
                value_kind,
                expected,
            } => write!(
                f,
                "value of kind {value_kind} does not match type {expected}"
            ),
        }
    }
}

impl std::error::Error for CdrError {}

/// Upper bound on sequence lengths, protecting unmarshalling from hostile
/// length fields (a Byzantine replica controls its message bytes).
pub const MAX_SEQUENCE_LEN: u32 = 1 << 24;

/// A CDR encoder producing one encapsulation.
///
/// # Examples
///
/// ```
/// use itdos_giop::cdr::{Decoder, Encoder, Endianness};
/// use itdos_giop::types::{TypeDesc, Value};
///
/// let mut enc = Encoder::new(Endianness::Little);
/// enc.encode(&Value::Long(-7), &TypeDesc::Long)?;
/// let bytes = enc.into_bytes();
///
/// let mut dec = Decoder::new(&bytes, Endianness::Little);
/// assert_eq!(dec.decode(&TypeDesc::Long)?, Value::Long(-7));
/// # Ok::<(), itdos_giop::cdr::CdrError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Encoder {
    buffer: Vec<u8>,
    endianness: Endianness,
}

impl Encoder {
    /// Creates an encoder with the given byte order.
    pub fn new(endianness: Endianness) -> Encoder {
        Encoder {
            buffer: Vec::new(),
            endianness,
        }
    }

    /// The byte order in use.
    pub fn endianness(&self) -> Endianness {
        self.endianness
    }

    /// Finishes encoding and returns the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buffer
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// True when nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    fn align(&mut self, n: usize) {
        while !self.buffer.len().is_multiple_of(n) {
            self.buffer.push(0);
        }
    }

    fn put(&mut self, bytes: &[u8]) {
        self.buffer.extend_from_slice(bytes);
    }

    fn put_u16(&mut self, v: u16) {
        self.align(2);
        match self.endianness {
            Endianness::Big => self.put(&v.to_be_bytes()),
            Endianness::Little => self.put(&v.to_le_bytes()),
        }
    }

    fn put_u32(&mut self, v: u32) {
        self.align(4);
        match self.endianness {
            Endianness::Big => self.put(&v.to_be_bytes()),
            Endianness::Little => self.put(&v.to_le_bytes()),
        }
    }

    fn put_u64(&mut self, v: u64) {
        self.align(8);
        match self.endianness {
            Endianness::Big => self.put(&v.to_be_bytes()),
            Endianness::Little => self.put(&v.to_le_bytes()),
        }
    }

    /// Encodes a raw string (length incl. NUL, bytes, NUL).
    pub(crate) fn put_string(&mut self, s: &str) {
        // as `put_octets`: a length that does not fit reads as one every
        // decoder refuses
        let len = u32::try_from(s.len()).ok().and_then(|n| n.checked_add(1));
        self.put_u32(len.unwrap_or(u32::MAX));
        self.put(s.as_bytes());
        self.buffer.push(0);
    }

    /// Encodes a raw `sequence<octet>` (count, then the bytes). Octets
    /// have no alignment and no byte order, so this is what the item walk
    /// over `Value::Octet`s would write.
    pub(crate) fn put_octets(&mut self, octets: &[u8]) {
        // no silent truncation: a count that does not fit reads as one
        // every decoder refuses (it is past `MAX_SEQUENCE_LEN`)
        self.put_u32(u32::try_from(octets.len()).unwrap_or(u32::MAX));
        self.put(octets);
    }

    /// Encodes `value` according to `desc`.
    ///
    /// # Errors
    ///
    /// [`CdrError::TypeMismatch`] if the value does not conform.
    pub fn encode(&mut self, value: &Value, desc: &TypeDesc) -> Result<(), CdrError> {
        let mismatch = || CdrError::TypeMismatch {
            value_kind: value.kind(),
            expected: format!("{desc:?}"),
        };
        match (value, desc) {
            (Value::Void, TypeDesc::Void) => {}
            (Value::Octet(v), TypeDesc::Octet) => self.buffer.push(*v),
            (Value::Boolean(v), TypeDesc::Boolean) => self.buffer.push(u8::from(*v)),
            (Value::Short(v), TypeDesc::Short) => self.put_u16(*v as u16),
            (Value::UShort(v), TypeDesc::UShort) => self.put_u16(*v),
            (Value::Long(v), TypeDesc::Long) => self.put_u32(*v as u32),
            (Value::ULong(v), TypeDesc::ULong) => self.put_u32(*v),
            (Value::LongLong(v), TypeDesc::LongLong) => self.put_u64(*v as u64),
            (Value::ULongLong(v), TypeDesc::ULongLong) => self.put_u64(*v),
            (Value::Float(v), TypeDesc::Float) => self.put_u32(v.to_bits()),
            (Value::Double(v), TypeDesc::Double) => self.put_u64(v.to_bits()),
            (Value::String(v), TypeDesc::String) => self.put_string(v),
            (Value::Sequence(items), TypeDesc::Sequence(elem)) => match items.as_octets() {
                Some(octets) if **elem == TypeDesc::Octet => self.put_octets(octets),
                _ => {
                    self.put_u32(u32::try_from(items.len()).unwrap_or(u32::MAX));
                    for item in items {
                        self.encode(item, elem)?;
                    }
                }
            },
            (Value::Struct(values), TypeDesc::Struct { fields, .. }) => {
                if values.len() != fields.len() {
                    return Err(mismatch());
                }
                for (v, (_, t)) in values.iter().zip(fields) {
                    self.encode(v, t)?;
                }
            }
            (Value::Enum(d), TypeDesc::Enum { variants, .. }) => {
                if *d as usize >= variants.len() {
                    return Err(mismatch());
                }
                self.put_u32(*d);
            }
            _ => return Err(mismatch()),
        }
        Ok(())
    }
}

/// A CDR decoder over one encapsulation.
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    position: usize,
    endianness: Endianness,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder reading `bytes` in the given byte order.
    pub fn new(bytes: &'a [u8], endianness: Endianness) -> Decoder<'a> {
        Decoder {
            bytes,
            position: 0,
            endianness,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.position)
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.position
    }

    fn align(&mut self, n: usize) {
        // past the end, the next `take` reports the truncation
        self.position = self
            .position
            .checked_next_multiple_of(n)
            .unwrap_or(usize::MAX);
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CdrError> {
        // checked: `position + n` must not wrap when `n` is hostile
        let end = self.position.checked_add(n);
        let slice = end.and_then(|end| self.bytes.get(self.position..end));
        let (Some(end), Some(slice)) = (end, slice) else {
            return Err(CdrError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        };
        self.position = end;
        Ok(slice)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CdrError> {
        self.align(N);
        let raw = self.take(N)?;
        raw.try_into().map_err(|_| CdrError::Truncated {
            needed: N,
            remaining: raw.len(),
        })
    }

    pub(crate) fn take_bool(&mut self) -> Result<bool, CdrError> {
        match self.take_array()? {
            [0] => Ok(false),
            [1] => Ok(true),
            [b] => Err(CdrError::BadBoolean(b)),
        }
    }

    fn take_u16(&mut self) -> Result<u16, CdrError> {
        let b = self.take_array()?;
        Ok(match self.endianness {
            Endianness::Big => u16::from_be_bytes(b),
            Endianness::Little => u16::from_le_bytes(b),
        })
    }

    pub(crate) fn take_u32(&mut self) -> Result<u32, CdrError> {
        let b = self.take_array()?;
        Ok(match self.endianness {
            Endianness::Big => u32::from_be_bytes(b),
            Endianness::Little => u32::from_le_bytes(b),
        })
    }

    pub(crate) fn take_u64(&mut self) -> Result<u64, CdrError> {
        let b = self.take_array()?;
        Ok(match self.endianness {
            Endianness::Big => u64::from_be_bytes(b),
            Endianness::Little => u64::from_le_bytes(b),
        })
    }

    /// Decodes a raw string.
    ///
    /// # Errors
    ///
    /// [`CdrError::BadString`] on a missing NUL or invalid UTF-8;
    /// [`CdrError::Truncated`] on short input.
    pub fn take_string(&mut self) -> Result<String, CdrError> {
        let len = self.take_u32()? as usize;
        if len == 0 {
            return Err(CdrError::BadString);
        }
        let raw = self.take(len)?;
        let Some((&nul, body)) = raw.split_last() else {
            return Err(CdrError::BadString);
        };
        if nul != 0 {
            return Err(CdrError::BadString);
        }
        String::from_utf8(body.to_vec()).map_err(|_| CdrError::BadString)
    }

    fn take_sequence_len(&mut self) -> Result<u32, CdrError> {
        let len = self.take_u32()?;
        if len > MAX_SEQUENCE_LEN {
            return Err(CdrError::OversizedSequence(len));
        }
        Ok(len)
    }

    /// Decodes a raw `sequence<octet>`. The bounds check comes before the
    /// copy, so a hostile length fails without reserving any memory.
    ///
    /// # Errors
    ///
    /// [`CdrError::OversizedSequence`] past [`MAX_SEQUENCE_LEN`];
    /// [`CdrError::Truncated`] on short input.
    pub fn take_octets(&mut self) -> Result<Vec<u8>, CdrError> {
        let len = self.take_sequence_len()?;
        Ok(self.take(len as usize)?.to_vec())
    }

    /// Decodes one value according to `desc`.
    ///
    /// # Errors
    ///
    /// Any [`CdrError`] on malformed input.
    pub fn decode(&mut self, desc: &TypeDesc) -> Result<Value, CdrError> {
        Ok(match desc {
            TypeDesc::Void => Value::Void,
            TypeDesc::Octet => Value::Octet(u8::from_le_bytes(self.take_array()?)),
            TypeDesc::Boolean => Value::Boolean(self.take_bool()?),
            TypeDesc::Short => Value::Short(self.take_u16()? as i16),
            TypeDesc::UShort => Value::UShort(self.take_u16()?),
            TypeDesc::Long => Value::Long(self.take_u32()? as i32),
            TypeDesc::ULong => Value::ULong(self.take_u32()?),
            TypeDesc::LongLong => Value::LongLong(self.take_u64()? as i64),
            TypeDesc::ULongLong => Value::ULongLong(self.take_u64()?),
            TypeDesc::Float => Value::Float(f32::from_bits(self.take_u32()?)),
            TypeDesc::Double => Value::Double(f64::from_bits(self.take_u64()?)),
            TypeDesc::String => Value::String(self.take_string()?),
            TypeDesc::Sequence(elem) => {
                if **elem == TypeDesc::Octet {
                    Value::Sequence(Seq::from_octets(self.take_octets()?))
                } else {
                    let len = self.take_sequence_len()?;
                    let mut items = Vec::with_capacity(len.min(1024) as usize);
                    for _ in 0..len {
                        items.push(self.decode(elem)?);
                    }
                    Value::Sequence(items.into())
                }
            }
            TypeDesc::Struct { fields, .. } => {
                let mut values = Vec::with_capacity(fields.len());
                for (_, t) in fields {
                    values.push(self.decode(t)?);
                }
                Value::Struct(values)
            }
            TypeDesc::Enum { variants, .. } => {
                let d = self.take_u32()?;
                if d as usize >= variants.len() {
                    return Err(CdrError::BadEnum {
                        discriminant: d,
                        variants: variants.len(),
                    });
                }
                Value::Enum(d)
            }
        })
    }
}

/// Encodes a value list (e.g. operation arguments) in one encapsulation.
///
/// # Errors
///
/// Propagates [`CdrError::TypeMismatch`] from any element.
pub fn encode_values(
    values: &[Value],
    descs: &[TypeDesc],
    endianness: Endianness,
) -> Result<Vec<u8>, CdrError> {
    let mut enc = Encoder::new(endianness);
    for (v, d) in values.iter().zip(descs) {
        enc.encode(v, d)?;
    }
    Ok(enc.into_bytes())
}

/// Decodes a value list from one encapsulation.
///
/// # Errors
///
/// Any [`CdrError`] on malformed input.
pub fn decode_values(
    bytes: &[u8],
    descs: &[TypeDesc],
    endianness: Endianness,
) -> Result<Vec<Value>, CdrError> {
    let mut dec = Decoder::new(bytes, endianness);
    descs.iter().map(|d| dec.decode(d)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value, t: &TypeDesc, e: Endianness) -> Value {
        let mut enc = Encoder::new(e);
        enc.encode(v, t).expect("encode");
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes, e);
        let out = dec.decode(t).expect("decode");
        assert_eq!(dec.remaining(), 0, "all bytes consumed");
        out
    }

    #[test]
    fn primitives_round_trip_both_endiannesses() {
        let cases: Vec<(Value, TypeDesc)> = vec![
            (Value::Octet(0xAB), TypeDesc::Octet),
            (Value::Boolean(true), TypeDesc::Boolean),
            (Value::Short(-12345), TypeDesc::Short),
            (Value::UShort(54321), TypeDesc::UShort),
            (Value::Long(-7), TypeDesc::Long),
            (Value::ULong(0xDEADBEEF), TypeDesc::ULong),
            (Value::LongLong(i64::MIN), TypeDesc::LongLong),
            (Value::ULongLong(u64::MAX), TypeDesc::ULongLong),
            (Value::Float(3.25), TypeDesc::Float),
            (Value::Double(-1.5e300), TypeDesc::Double),
            (Value::String("héllo".into()), TypeDesc::String),
        ];
        for (v, t) in &cases {
            for e in [Endianness::Big, Endianness::Little] {
                assert_eq!(&round_trip(v, t, e), v, "{t:?} {e:?}");
            }
        }
    }

    #[test]
    fn endianness_changes_bytes_but_not_value() {
        let v = Value::Long(0x01020304);
        let mut be = Encoder::new(Endianness::Big);
        be.encode(&v, &TypeDesc::Long).unwrap();
        let mut le = Encoder::new(Endianness::Little);
        le.encode(&v, &TypeDesc::Long).unwrap();
        let be_bytes = be.into_bytes();
        let le_bytes = le.into_bytes();
        assert_ne!(be_bytes, le_bytes, "wire bytes differ across platforms");
        assert_eq!(be_bytes, vec![1, 2, 3, 4]);
        assert_eq!(le_bytes, vec![4, 3, 2, 1]);
        // but decoding each with its own order yields the same value
        assert_eq!(
            Decoder::new(&be_bytes, Endianness::Big)
                .decode(&TypeDesc::Long)
                .unwrap(),
            Decoder::new(&le_bytes, Endianness::Little)
                .decode(&TypeDesc::Long)
                .unwrap()
        );
    }

    #[test]
    fn alignment_is_relative_to_stream_start() {
        // octet then long: long must start at offset 4
        let mut enc = Encoder::new(Endianness::Big);
        enc.encode(&Value::Octet(0xFF), &TypeDesc::Octet).unwrap();
        enc.encode(&Value::Long(1), &TypeDesc::Long).unwrap();
        let bytes = enc.into_bytes();
        assert_eq!(bytes.len(), 8);
        assert_eq!(&bytes[..4], &[0xFF, 0, 0, 0]);
        // octet then longlong: longlong starts at offset 8
        let mut enc = Encoder::new(Endianness::Big);
        enc.encode(&Value::Octet(1), &TypeDesc::Octet).unwrap();
        enc.encode(&Value::LongLong(1), &TypeDesc::LongLong)
            .unwrap();
        assert_eq!(enc.into_bytes().len(), 16);
    }

    #[test]
    fn string_layout_matches_cdr() {
        let mut enc = Encoder::new(Endianness::Big);
        enc.encode(&Value::String("ab".into()), &TypeDesc::String)
            .unwrap();
        // length 3 (incl NUL), 'a', 'b', NUL
        assert_eq!(enc.into_bytes(), vec![0, 0, 0, 3, b'a', b'b', 0]);
    }

    #[test]
    fn nested_composites_round_trip() {
        let t = TypeDesc::Struct {
            name: "Reading".into(),
            fields: vec![
                ("id".into(), TypeDesc::Octet),
                ("samples".into(), TypeDesc::sequence_of(TypeDesc::Double)),
                ("label".into(), TypeDesc::String),
                (
                    "status".into(),
                    TypeDesc::Enum {
                        name: "St".into(),
                        variants: vec!["Ok".into(), "Degraded".into()],
                    },
                ),
            ],
        };
        let v = Value::Struct(vec![
            Value::Octet(9),
            Value::Sequence(vec![Value::Double(1.5), Value::Double(-0.25)].into()),
            Value::String("s1".into()),
            Value::Enum(1),
        ]);
        for e in [Endianness::Big, Endianness::Little] {
            assert_eq!(round_trip(&v, &t, e), v);
        }
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let mut enc = Encoder::new(Endianness::Big);
        enc.encode(&Value::Long(1), &TypeDesc::Long).unwrap();
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes[..3], Endianness::Big);
        assert!(matches!(
            dec.decode(&TypeDesc::Long),
            Err(CdrError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_boolean_rejected() {
        let mut dec = Decoder::new(&[7], Endianness::Big);
        assert_eq!(dec.decode(&TypeDesc::Boolean), Err(CdrError::BadBoolean(7)));
    }

    #[test]
    fn bad_enum_rejected() {
        let t = TypeDesc::Enum {
            name: "E".into(),
            variants: vec!["A".into()],
        };
        let mut dec = Decoder::new(&[0, 0, 0, 5], Endianness::Big);
        assert_eq!(
            dec.decode(&t),
            Err(CdrError::BadEnum {
                discriminant: 5,
                variants: 1
            })
        );
    }

    #[test]
    fn hostile_sequence_length_rejected() {
        // length u32::MAX would OOM a naive decoder
        let bytes = u32::MAX.to_be_bytes();
        let mut dec = Decoder::new(&bytes, Endianness::Big);
        assert_eq!(
            dec.decode(&TypeDesc::sequence_of(TypeDesc::Octet)),
            Err(CdrError::OversizedSequence(u32::MAX))
        );
    }

    #[test]
    fn unterminated_string_rejected() {
        // length 2, bytes 'a','b' (no NUL)
        let bytes = [0, 0, 0, 2, b'a', b'b'];
        let mut dec = Decoder::new(&bytes, Endianness::Big);
        assert_eq!(dec.decode(&TypeDesc::String), Err(CdrError::BadString));
    }

    #[test]
    fn invalid_utf8_string_rejected() {
        let bytes = [0, 0, 0, 2, 0xFF, 0];
        let mut dec = Decoder::new(&bytes, Endianness::Big);
        assert_eq!(dec.decode(&TypeDesc::String), Err(CdrError::BadString));
    }

    #[test]
    fn type_mismatch_on_encode() {
        let mut enc = Encoder::new(Endianness::Big);
        assert!(matches!(
            enc.encode(&Value::Long(1), &TypeDesc::Double),
            Err(CdrError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn struct_arity_mismatch_on_encode() {
        let t = TypeDesc::Struct {
            name: "P".into(),
            fields: vec![("a".into(), TypeDesc::Long)],
        };
        let mut enc = Encoder::new(Endianness::Big);
        assert!(enc
            .encode(&Value::Struct(vec![Value::Long(1), Value::Long(2)]), &t)
            .is_err());
    }

    #[test]
    fn value_lists_round_trip() {
        let descs = vec![TypeDesc::Long, TypeDesc::String, TypeDesc::Double];
        let values = vec![
            Value::Long(1),
            Value::String("x".into()),
            Value::Double(2.5),
        ];
        for e in [Endianness::Big, Endianness::Little] {
            let bytes = encode_values(&values, &descs, e).unwrap();
            assert_eq!(decode_values(&bytes, &descs, e).unwrap(), values);
        }
    }

    #[test]
    fn float_bit_patterns_preserved() {
        // NaN payloads and -0.0 must survive marshalling untouched
        let v = Value::Double(f64::from_bits(0x7FF8_0000_0000_0001));
        let mut enc = Encoder::new(Endianness::Little);
        enc.encode(&v, &TypeDesc::Double).unwrap();
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes, Endianness::Little);
        match dec.decode(&TypeDesc::Double).unwrap() {
            Value::Double(d) => assert_eq!(d.to_bits(), 0x7FF8_0000_0000_0001),
            other => panic!("expected double, got {other:?}"),
        }
    }
}
