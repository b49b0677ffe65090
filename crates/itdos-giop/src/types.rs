//! The CORBA value model: typed runtime values and type descriptions.
//!
//! CDR is not self-describing, so marshalling is always guided by a
//! [`TypeDesc`] from the interface repository. Voting (§3.6) operates on
//! [`Value`] trees — *after* unmarshalling — which is what makes
//! heterogeneous replicas comparable.

use std::fmt;

/// A runtime CORBA value.
///
/// # Examples
///
/// ```
/// use itdos_giop::types::{TypeDesc, Value};
///
/// let v = Value::Struct(vec![Value::Long(1), Value::Double(2.5)]);
/// let t = TypeDesc::Struct {
///     name: "Point".into(),
///     fields: vec![("x".into(), TypeDesc::Long), ("y".into(), TypeDesc::Double)],
/// };
/// assert!(v.conforms(&t));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absence of a value (operation returning `void`).
    Void,
    /// 8-bit uninterpreted byte.
    Octet(u8),
    /// Boolean.
    Boolean(bool),
    /// 16-bit signed integer.
    Short(i16),
    /// 16-bit unsigned integer.
    UShort(u16),
    /// 32-bit signed integer.
    Long(i32),
    /// 32-bit unsigned integer.
    ULong(u32),
    /// 64-bit signed integer.
    LongLong(i64),
    /// 64-bit unsigned integer.
    ULongLong(u64),
    /// IEEE-754 single-precision float.
    Float(f32),
    /// IEEE-754 double-precision float.
    Double(f64),
    /// A string (CORBA strings are not nested values).
    String(String),
    /// A homogeneous sequence.
    Sequence(Seq),
    /// A struct: field values in declaration order.
    Struct(Vec<Value>),
    /// An enum discriminant.
    Enum(u32),
}

impl Value {
    /// Checks structural conformance to a type description.
    pub fn conforms(&self, desc: &TypeDesc) -> bool {
        match (self, desc) {
            (Value::Void, TypeDesc::Void) => true,
            (Value::Octet(_), TypeDesc::Octet) => true,
            (Value::Boolean(_), TypeDesc::Boolean) => true,
            (Value::Short(_), TypeDesc::Short) => true,
            (Value::UShort(_), TypeDesc::UShort) => true,
            (Value::Long(_), TypeDesc::Long) => true,
            (Value::ULong(_), TypeDesc::ULong) => true,
            (Value::LongLong(_), TypeDesc::LongLong) => true,
            (Value::ULongLong(_), TypeDesc::ULongLong) => true,
            (Value::Float(_), TypeDesc::Float) => true,
            (Value::Double(_), TypeDesc::Double) => true,
            (Value::String(_), TypeDesc::String) => true,
            (Value::Sequence(items), TypeDesc::Sequence(elem)) => match items.as_octets() {
                Some(octets) => octets.is_empty() || **elem == TypeDesc::Octet,
                None => items.iter().all(|i| i.conforms(elem)),
            },
            (Value::Struct(values), TypeDesc::Struct { fields, .. }) => {
                values.len() == fields.len()
                    && values.iter().zip(fields).all(|(v, (_, t))| v.conforms(t))
            }
            (Value::Enum(d), TypeDesc::Enum { variants, .. }) => (*d as usize) < variants.len(),
            _ => false,
        }
    }

    /// Returns true if the value (recursively) contains floating-point data
    /// — candidates for *inexact* voting (§3.6).
    pub fn contains_float(&self) -> bool {
        match self {
            Value::Float(_) | Value::Double(_) => true,
            Value::Sequence(items) => {
                items.as_octets().is_none() && items.iter().any(Value::contains_float)
            }
            Value::Struct(items) => items.iter().any(Value::contains_float),
            _ => false,
        }
    }

    /// A short name for the value's kind (diagnostics).
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Void => "void",
            Value::Octet(_) => "octet",
            Value::Boolean(_) => "boolean",
            Value::Short(_) => "short",
            Value::UShort(_) => "ushort",
            Value::Long(_) => "long",
            Value::ULong(_) => "ulong",
            Value::LongLong(_) => "longlong",
            Value::ULongLong(_) => "ulonglong",
            Value::Float(_) => "float",
            Value::Double(_) => "double",
            Value::String(_) => "string",
            Value::Sequence(_) => "sequence",
            Value::Struct(_) => "struct",
            Value::Enum(_) => "enum",
        }
    }
}

/// Every octet as a `Value`, so a packed [`Seq`] can lend `&Value` items.
static OCTETS: [Value; 256] = octet_table();

const fn octet_table() -> [Value; 256] {
    let mut table = [const { Value::Octet(0) }; 256];
    let mut i = 0;
    while i < table.len() {
        // `forget` because a `Value` destructor cannot run in a const fn;
        // the replaced `Octet` owns nothing
        std::mem::forget(std::mem::replace(&mut table[i], Value::Octet(i as u8)));
        i += 1;
    }
    table
}

/// The items of a [`Value::Sequence`].
///
/// A sequence whose items are all [`Value::Octet`] — IDL's
/// `sequence<octet>`, the bulk payload type — is stored packed, one byte
/// per item; any other sequence is stored as its items. The packed form
/// is **canonical**: every constructor packs whenever it can and the
/// empty sequence is always packed, so a value has exactly one
/// representation and the derived `==` is value equality.
///
/// # Examples
///
/// ```
/// use itdos_giop::types::{Seq, Value};
///
/// let blob = Seq::from_octets(vec![1, 2, 3]);
/// let same: Seq = [1u8, 2, 3].into_iter().map(Value::Octet).collect();
/// assert_eq!(blob, same);
/// assert_eq!(blob.as_octets(), Some(&[1u8, 2, 3][..]));
/// assert_eq!(blob.iter().next(), Some(&Value::Octet(1)));
///
/// let longs = Seq::from(vec![Value::Long(1)]);
/// assert_eq!(longs.as_octets(), None);
/// assert_eq!(longs.len(), 1);
/// ```
#[derive(Clone, PartialEq)]
pub struct Seq(Repr);

#[derive(Clone, PartialEq)]
enum Repr {
    Octets(Vec<u8>),
    /// Never empty and never all-octet (the canonical-form invariant).
    Items(Vec<Value>),
}

impl Seq {
    /// An octet sequence from its bytes (no per-item work).
    pub fn from_octets(octets: Vec<u8>) -> Seq {
        Seq(Repr::Octets(octets))
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Octets(octets) => octets.len(),
            Repr::Items(items) => items.len(),
        }
    }

    /// True for the empty sequence.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes of an all-octet (or empty) sequence; `None` when some
    /// item is not an octet.
    pub fn as_octets(&self) -> Option<&[u8]> {
        match &self.0 {
            Repr::Octets(octets) => Some(octets),
            Repr::Items(_) => None,
        }
    }

    /// Owned form of [`Seq::as_octets`].
    pub fn into_octets(self) -> Option<Vec<u8>> {
        match self.0 {
            Repr::Octets(octets) => Some(octets),
            Repr::Items(_) => None,
        }
    }

    /// The items in order, whatever the storage.
    pub fn iter(&self) -> Iter<'_> {
        Iter(match &self.0 {
            Repr::Octets(octets) => IterRepr::Octets(octets.iter()),
            Repr::Items(items) => IterRepr::Items(items.iter()),
        })
    }
}

impl fmt::Debug for Seq {
    /// Prints the items as a list, the same for either storage.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl From<Vec<Value>> for Seq {
    fn from(items: Vec<Value>) -> Seq {
        if items.iter().all(|v| matches!(v, Value::Octet(_))) {
            items.into_iter().collect()
        } else {
            Seq(Repr::Items(items))
        }
    }
}

impl FromIterator<Value> for Seq {
    /// Packs for as long as the items are octets, so an all-octet source
    /// never materialises a `Value` per byte.
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Seq {
        let mut iter = iter.into_iter();
        let mut octets = Vec::new();
        while let Some(value) = iter.next() {
            match value {
                Value::Octet(b) => {
                    if octets.is_empty() {
                        octets.reserve(iter.size_hint().0.saturating_add(1));
                    }
                    octets.push(b);
                }
                other => {
                    let rest = iter.size_hint().0.saturating_add(1);
                    let mut items = Vec::with_capacity(octets.len().saturating_add(rest));
                    items.extend(octets.into_iter().map(Value::Octet));
                    items.push(other);
                    items.extend(iter);
                    return Seq(Repr::Items(items));
                }
            }
        }
        Seq(Repr::Octets(octets))
    }
}

impl<'a> IntoIterator for &'a Seq {
    type Item = &'a Value;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Borrowing iterator over a [`Seq`]'s items.
#[derive(Debug, Clone)]
pub struct Iter<'a>(IterRepr<'a>);

#[derive(Debug, Clone)]
enum IterRepr<'a> {
    Octets(std::slice::Iter<'a, u8>),
    Items(std::slice::Iter<'a, Value>),
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Value;

    fn next(&mut self) -> Option<&'a Value> {
        match &mut self.0 {
            IterRepr::Octets(octets) => octets.next().map(|b| &OCTETS[usize::from(*b)]),
            IterRepr::Items(items) => items.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            IterRepr::Octets(octets) => octets.size_hint(),
            IterRepr::Items(items) => items.size_hint(),
        }
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Void => write!(f, "void"),
            Value::Octet(v) => write!(f, "{v}o"),
            Value::Boolean(v) => write!(f, "{v}"),
            Value::Short(v) => write!(f, "{v}"),
            Value::UShort(v) => write!(f, "{v}"),
            Value::Long(v) => write!(f, "{v}"),
            Value::ULong(v) => write!(f, "{v}"),
            Value::LongLong(v) => write!(f, "{v}"),
            Value::ULongLong(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}f"),
            Value::Double(v) => write!(f, "{v}"),
            Value::String(v) => write!(f, "{v:?}"),
            Value::Sequence(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Struct(items) => {
                write!(f, "{{")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "}}")
            }
            Value::Enum(d) => write!(f, "enum#{d}"),
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::Long(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::LongLong(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Double(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Boolean(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

/// A type description (the marshalling schema for one value).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeDesc {
    /// No value.
    Void,
    /// 8-bit byte.
    Octet,
    /// Boolean.
    Boolean,
    /// 16-bit signed.
    Short,
    /// 16-bit unsigned.
    UShort,
    /// 32-bit signed.
    Long,
    /// 32-bit unsigned.
    ULong,
    /// 64-bit signed.
    LongLong,
    /// 64-bit unsigned.
    ULongLong,
    /// 32-bit float.
    Float,
    /// 64-bit float.
    Double,
    /// String.
    String,
    /// Homogeneous sequence of an element type.
    Sequence(Box<TypeDesc>),
    /// Named struct with named, typed fields.
    Struct {
        /// The struct's IDL name.
        name: String,
        /// Field names and types, in declaration order.
        fields: Vec<(String, TypeDesc)>,
    },
    /// Named enum with named variants.
    Enum {
        /// The enum's IDL name.
        name: String,
        /// Variant names in declaration order.
        variants: Vec<String>,
    },
}

impl TypeDesc {
    /// Convenience constructor for a sequence type.
    pub fn sequence_of(elem: TypeDesc) -> TypeDesc {
        TypeDesc::Sequence(Box::new(elem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point_type() -> TypeDesc {
        TypeDesc::Struct {
            name: "Point".into(),
            fields: vec![
                ("x".into(), TypeDesc::Double),
                ("y".into(), TypeDesc::Double),
            ],
        }
    }

    #[test]
    fn primitives_conform() {
        assert!(Value::Long(5).conforms(&TypeDesc::Long));
        assert!(!Value::Long(5).conforms(&TypeDesc::Short));
        assert!(Value::Void.conforms(&TypeDesc::Void));
        assert!(Value::String("a".into()).conforms(&TypeDesc::String));
    }

    #[test]
    fn sequences_check_elements() {
        let t = TypeDesc::sequence_of(TypeDesc::Long);
        assert!(Value::Sequence(vec![Value::Long(1), Value::Long(2)].into()).conforms(&t));
        assert!(Value::Sequence(vec![].into()).conforms(&t));
        assert!(!Value::Sequence(vec![Value::Long(1), Value::Double(2.0)].into()).conforms(&t));
    }

    #[test]
    fn structs_check_arity_and_types() {
        let t = point_type();
        assert!(Value::Struct(vec![Value::Double(1.0), Value::Double(2.0)]).conforms(&t));
        assert!(!Value::Struct(vec![Value::Double(1.0)]).conforms(&t));
        assert!(!Value::Struct(vec![Value::Long(1), Value::Double(2.0)]).conforms(&t));
    }

    #[test]
    fn enums_check_range() {
        let t = TypeDesc::Enum {
            name: "Color".into(),
            variants: vec!["Red".into(), "Green".into()],
        };
        assert!(Value::Enum(1).conforms(&t));
        assert!(!Value::Enum(2).conforms(&t));
    }

    #[test]
    fn contains_float_recurses() {
        assert!(Value::Double(1.0).contains_float());
        assert!(Value::Struct(vec![Value::Long(1), Value::Float(0.5)]).contains_float());
        assert!(!Value::Sequence(vec![Value::Long(1)].into()).contains_float());
        assert!(
            Value::Sequence(vec![Value::Struct(vec![Value::Double(0.0)])].into()).contains_float()
        );
    }

    #[test]
    fn display_is_readable() {
        let v = Value::Struct(vec![Value::Long(1), Value::String("a".into())]);
        assert_eq!(v.to_string(), "{1, \"a\"}");
        assert_eq!(
            Value::Sequence(vec![Value::Octet(7)].into()).to_string(),
            "[7o]"
        );
    }

    fn octet_items(bytes: &[u8]) -> Vec<Value> {
        bytes.iter().copied().map(Value::Octet).collect()
    }

    fn cdr_decoded(seq: &Seq, elem: TypeDesc) -> Seq {
        use crate::cdr::{Decoder, Encoder, Endianness};
        let desc = TypeDesc::sequence_of(elem);
        let mut enc = Encoder::new(Endianness::Big);
        enc.encode(&Value::Sequence(seq.clone()), &desc).unwrap();
        let bytes = enc.into_bytes();
        match Decoder::new(&bytes, Endianness::Big).decode(&desc).unwrap() {
            Value::Sequence(seq) => seq,
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn octets_pack_through_every_constructor() {
        let bytes = [0u8, 1, 127, 128, 255];
        let packed = Seq::from_octets(bytes.to_vec());
        let collected: Seq = octet_items(&bytes).into_iter().collect();
        let converted = Seq::from(octet_items(&bytes));
        let decoded = cdr_decoded(&packed, TypeDesc::Octet);
        for seq in [&packed, &collected, &converted, &decoded] {
            assert_eq!(seq.as_octets(), Some(&bytes[..]));
            assert_eq!(seq, &packed);
            assert_eq!(seq.len(), 5);
        }
        assert_eq!(converted.into_octets(), Some(bytes.to_vec()));
        // one spelling, so the derived `==` on the enclosing value holds too
        assert_eq!(
            Value::Sequence(packed),
            Value::Sequence(octet_items(&bytes).into())
        );
    }

    #[test]
    fn one_non_octet_item_keeps_the_items() {
        for at in 0..3 {
            let mut items = octet_items(&[7, 8, 9]);
            items[at] = Value::Long(-1);
            let converted = Seq::from(items.clone());
            let collected: Seq = items.iter().cloned().collect();
            assert_eq!(converted, collected);
            assert_eq!(converted.as_octets(), None);
            assert_eq!(converted.clone().into_octets(), None);
            assert_eq!(converted.len(), 3);
            assert!(converted.iter().eq(items.iter()));
            assert_ne!(converted, Seq::from_octets(vec![7, 8, 9]));
        }
        // a typed non-octet sequence round-trips through CDR unpacked
        let longs = Seq::from(vec![Value::Long(1), Value::Long(2)]);
        let back = cdr_decoded(&longs, TypeDesc::Long);
        assert_eq!(back, longs);
        assert_eq!(back.as_octets(), None);
    }

    #[test]
    fn empty_sequence_has_one_form() {
        let empty = Seq::from_octets(Vec::new());
        let forms = [
            empty.clone(),
            Seq::from(Vec::new()),
            std::iter::empty::<Value>().collect(),
            cdr_decoded(&empty, TypeDesc::Octet),
            cdr_decoded(&empty, TypeDesc::Double),
        ];
        for seq in &forms {
            assert_eq!(seq, &forms[0]);
            assert!(seq.is_empty());
            assert_eq!(seq.as_octets(), Some(&[][..]));
            assert_eq!(seq.iter().next(), None);
        }
        // and it conforms to any element type, as an empty `Vec` did
        assert!(Value::Sequence(empty).conforms(&TypeDesc::sequence_of(TypeDesc::String)));
    }

    #[test]
    fn iter_yields_the_items_a_vec_would() {
        let all: Vec<u8> = (0..=255).collect();
        let items = octet_items(&all);
        let packed = Seq::from_octets(all);
        assert_eq!(packed.iter().len(), 256);
        assert!(packed.iter().eq(items.iter()));
        assert!((&packed).into_iter().eq(items.iter()));
        assert_eq!(format!("{packed:?}"), format!("{items:?}"));
        let mixed = vec![Value::Octet(1), Value::String("x".into())];
        let seq = Seq::from(mixed.clone());
        assert!(seq.iter().eq(mixed.iter()));
        assert_eq!(format!("{seq:?}"), format!("{mixed:?}"));
    }

    #[test]
    fn packed_octets_conform_only_to_octet_sequences() {
        let blob = Value::Sequence(Seq::from_octets(vec![1, 2]));
        assert!(blob.conforms(&TypeDesc::sequence_of(TypeDesc::Octet)));
        assert!(!blob.conforms(&TypeDesc::sequence_of(TypeDesc::Long)));
        assert!(!blob.contains_float());
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i32), Value::Long(3));
        assert_eq!(Value::from(3i64), Value::LongLong(3));
        assert_eq!(Value::from(1.5f64), Value::Double(1.5));
        assert_eq!(Value::from(true), Value::Boolean(true));
        assert_eq!(Value::from("hi"), Value::String("hi".into()));
    }

    #[test]
    fn kind_names() {
        assert_eq!(Value::Octet(0).kind(), "octet");
        assert_eq!(Value::Struct(vec![]).kind(), "struct");
    }
}
