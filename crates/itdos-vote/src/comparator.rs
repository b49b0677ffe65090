//! Equivalence comparators — the instruction set of the Voting Virtual
//! Machine.
//!
//! ITDOS "bases its voting mechanism on the Voting Virtual Machine \[3\]"
//! (§3.6): instead of comparing raw bytes, a per-connection *program*
//! describes how to compare unmarshalled values, field by field. The
//! program mirrors the value's type structure and selects exact or inexact
//! comparison per component.
//!
//! Inexact comparison is deliberately **non-transitive** (§3.6: "if a = b
//! and b = c, this does not imply that a = c"), which is why voting uses
//! pivot-based clustering rather than equivalence classes.

use itdos_giop::types::{Seq, Value};

/// A comparator program node.
///
/// # Examples
///
/// ```
/// use itdos_giop::types::Value;
/// use itdos_vote::comparator::Comparator;
///
/// // A struct whose first field must match exactly and whose second is a
/// // measured float compared within 1e-6 relative error.
/// let cmp = Comparator::Struct(vec![
///     Comparator::Exact,
///     Comparator::InexactRel(1e-6),
/// ]);
/// let a = Value::Struct(vec![Value::Long(1), Value::Double(100.0)]);
/// let b = Value::Struct(vec![Value::Long(1), Value::Double(100.00001)]);
/// assert!(cmp.equivalent(&a, &b));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Comparator {
    /// Values must be structurally identical (exact voting).
    Exact,
    /// Numeric values may differ by at most `epsilon` absolutely; applies
    /// recursively to every numeric leaf under this node.
    InexactAbs(f64),
    /// Numeric values may differ by at most `epsilon · max(|a|, |b|)`;
    /// applies recursively to every numeric leaf under this node.
    InexactRel(f64),
    /// This component carries no voted semantics (e.g. a timestamp) and is
    /// ignored.
    Ignore,
    /// Compare struct fields with per-field sub-programs.
    Struct(Vec<Comparator>),
    /// Compare sequences element-wise with one element program (lengths
    /// must match).
    Sequence(Box<Comparator>),
}

impl Comparator {
    /// Tests whether `a` and `b` are equivalent under this program.
    ///
    /// Mismatched kinds or arities are never equivalent (a Byzantine
    /// replica may send an arbitrary value, so this must be total).
    pub fn equivalent(&self, a: &Value, b: &Value) -> bool {
        match self {
            Comparator::Exact => exact_eq(a, b),
            Comparator::InexactAbs(eps) => inexact_eq(a, b, &Tolerance::Abs(*eps)),
            Comparator::InexactRel(eps) => inexact_eq(a, b, &Tolerance::Rel(*eps)),
            Comparator::Ignore => true,
            Comparator::Struct(fields) => match (a, b) {
                (Value::Struct(xs), Value::Struct(ys)) => {
                    xs.len() == ys.len()
                        && xs.len() == fields.len()
                        && fields
                            .iter()
                            .zip(xs.iter().zip(ys))
                            .all(|(c, (x, y))| c.equivalent(x, y))
                }
                _ => false,
            },
            Comparator::Sequence(elem) => match (a, b) {
                (Value::Sequence(xs), Value::Sequence(ys)) => {
                    let by_value = matches!(
                        **elem,
                        Comparator::Exact | Comparator::InexactAbs(_) | Comparator::InexactRel(_)
                    );
                    seq_eq(xs, ys, by_value, |x, y| elem.equivalent(x, y))
                }
                _ => false,
            },
        }
    }
}

enum Tolerance {
    Abs(f64),
    Rel(f64),
}

impl Tolerance {
    fn floats_eq(&self, x: f64, y: f64) -> bool {
        if x == y {
            return true; // covers infinities of equal sign
        }
        if x.is_nan() && y.is_nan() {
            return true; // both replicas failed the same way
        }
        if !x.is_finite() || !y.is_finite() {
            return false; // distinct infinities/NaN-vs-number never match
        }
        match self {
            Tolerance::Abs(eps) => (x - y).abs() <= *eps,
            Tolerance::Rel(eps) => (x - y).abs() <= *eps * x.abs().max(y.abs()),
        }
    }
}

/// Element-wise sequence comparison under `item_eq`. `octets_by_value`
/// states that `item_eq` on two octets is `==` (true of exact and inexact
/// comparison, where an octet is a non-float leaf), which lets two packed
/// octet sequences compare as byte slices instead of item by item.
fn seq_eq(
    xs: &Seq,
    ys: &Seq,
    octets_by_value: bool,
    item_eq: impl Fn(&Value, &Value) -> bool,
) -> bool {
    if let (true, Some(x), Some(y)) = (octets_by_value, xs.as_octets(), ys.as_octets()) {
        return x == y;
    }
    xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| item_eq(x, y))
}

fn exact_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        // bitwise float equality for exact voting (NaN == NaN bitwise-wise
        // is what byte voting would see; mirror it)
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
        (Value::Sequence(xs), Value::Sequence(ys)) => seq_eq(xs, ys, true, exact_eq),
        (Value::Struct(xs), Value::Struct(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| exact_eq(x, y))
        }
        _ => a == b,
    }
}

fn inexact_eq(a: &Value, b: &Value, tol: &Tolerance) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => tol.floats_eq(*x as f64, *y as f64),
        (Value::Double(x), Value::Double(y)) => tol.floats_eq(*x, *y),
        (Value::Sequence(xs), Value::Sequence(ys)) => {
            seq_eq(xs, ys, true, |x, y| inexact_eq(x, y, tol))
        }
        (Value::Struct(xs), Value::Struct(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| inexact_eq(x, y, tol))
        }
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_matches_identical_values() {
        let v = Value::Struct(vec![Value::Long(1), Value::String("x".into())]);
        assert!(Comparator::Exact.equivalent(&v, &v.clone()));
        let w = Value::Struct(vec![Value::Long(2), Value::String("x".into())]);
        assert!(!Comparator::Exact.equivalent(&v, &w));
    }

    #[test]
    fn exact_floats_are_bitwise() {
        let a = Value::Double(1.0);
        let b = Value::Double(1.0 + 1e-15);
        assert!(!Comparator::Exact.equivalent(&a, &b));
        let nan1 = Value::Double(f64::NAN);
        let nan2 = Value::Double(f64::NAN);
        assert!(Comparator::Exact.equivalent(&nan1, &nan2));
    }

    #[test]
    fn inexact_abs_tolerates_small_differences() {
        let c = Comparator::InexactAbs(0.01);
        assert!(c.equivalent(&Value::Double(1.0), &Value::Double(1.005)));
        assert!(!c.equivalent(&Value::Double(1.0), &Value::Double(1.02)));
    }

    #[test]
    fn inexact_rel_scales_with_magnitude() {
        let c = Comparator::InexactRel(1e-6);
        assert!(c.equivalent(&Value::Double(1e9), &Value::Double(1e9 + 100.0)));
        assert!(!c.equivalent(&Value::Double(1.0), &Value::Double(1.001)));
    }

    #[test]
    fn inexact_equivalence_is_not_transitive() {
        // the paper's explicit point: a = b, b = c, but a != c
        let c = Comparator::InexactAbs(1.0);
        let a = Value::Double(0.0);
        let b = Value::Double(0.9);
        let d = Value::Double(1.8);
        assert!(c.equivalent(&a, &b));
        assert!(c.equivalent(&b, &d));
        assert!(!c.equivalent(&a, &d));
    }

    #[test]
    fn inexact_recurses_into_composites() {
        let c = Comparator::InexactRel(1e-6);
        let a = Value::Sequence(vec![Value::Double(1.0), Value::Double(2.0)].into());
        let b = Value::Sequence(vec![Value::Double(1.0 + 1e-8), Value::Double(2.0 - 1e-8)].into());
        assert!(c.equivalent(&a, &b));
    }

    #[test]
    fn inexact_still_exact_on_non_floats() {
        let c = Comparator::InexactAbs(10.0);
        assert!(!c.equivalent(&Value::Long(1), &Value::Long(2)));
        assert!(c.equivalent(&Value::Long(1), &Value::Long(1)));
        assert!(!c.equivalent(&Value::String("a".into()), &Value::String("b".into())));
    }

    #[test]
    fn struct_program_applies_per_field() {
        let c = Comparator::Struct(vec![Comparator::Exact, Comparator::InexactAbs(0.1)]);
        let a = Value::Struct(vec![Value::Long(1), Value::Double(5.0)]);
        let b = Value::Struct(vec![Value::Long(1), Value::Double(5.05)]);
        let w = Value::Struct(vec![Value::Long(2), Value::Double(5.0)]);
        assert!(c.equivalent(&a, &b));
        assert!(!c.equivalent(&a, &w));
    }

    #[test]
    fn arity_mismatch_never_equivalent() {
        let c = Comparator::Struct(vec![Comparator::Exact]);
        let a = Value::Struct(vec![Value::Long(1)]);
        let b = Value::Struct(vec![Value::Long(1), Value::Long(2)]);
        assert!(!c.equivalent(&a, &b));
    }

    #[test]
    fn kind_mismatch_never_equivalent() {
        let c = Comparator::InexactAbs(1e9); // huge tolerance can't cross kinds
        assert!(!c.equivalent(&Value::Double(1.0), &Value::Long(1)));
        assert!(!c.equivalent(&Value::Struct(vec![]), &Value::Sequence(vec![].into())));
    }

    #[test]
    fn ignore_accepts_anything() {
        let c = Comparator::Struct(vec![Comparator::Exact, Comparator::Ignore]);
        let a = Value::Struct(vec![Value::Long(1), Value::ULongLong(111)]);
        let b = Value::Struct(vec![Value::Long(1), Value::ULongLong(999)]);
        assert!(c.equivalent(&a, &b));
    }

    #[test]
    fn sequence_program_checks_lengths() {
        let c = Comparator::Sequence(Box::new(Comparator::Exact));
        let a = Value::Sequence(vec![Value::Long(1)].into());
        let b = Value::Sequence(vec![Value::Long(1), Value::Long(2)].into());
        assert!(!c.equivalent(&a, &b));
    }

    #[test]
    fn infinities_compare_equal_to_themselves() {
        let c = Comparator::InexactRel(1e-9);
        assert!(c.equivalent(&Value::Double(f64::INFINITY), &Value::Double(f64::INFINITY)));
        assert!(!c.equivalent(
            &Value::Double(f64::INFINITY),
            &Value::Double(f64::NEG_INFINITY)
        ));
    }
}
