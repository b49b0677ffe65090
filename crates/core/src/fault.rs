//! Byzantine fault injection for replication domain elements.
//!
//! These behaviours model the §2.1 threat: "any threats that would cause
//! an observable deviation in expected server behavior". They are applied
//! at the reply-emission point of a server element, leaving the BFT layer
//! honest — a compromised *application* above a correct transport, the
//! hardest case for the voter (transport-level misbehaviour is already
//! masked by PBFT itself).

use itdos_giop::types::{Seq, Value};
use simnet::SimDuration;

/// A server element's (mis)behaviour.
#[derive(Debug, Clone, PartialEq)]
pub enum Behavior {
    /// Correct operation.
    Honest,
    /// Replies carry corrupted result values (detected by value voting).
    CorruptValue,
    /// The element never replies (masked by the 2f+1 rule; eventually a
    /// laggard under queue GC).
    Silent,
    /// Replies are delayed by the given span (the "deliberately slow"
    /// process of §3.6 — must not stall the voter).
    Slow(SimDuration),
    /// The element replies correctly to even request ids and corruptly to
    /// odd ones (intermittent faults are the hardest to pin).
    Intermittent,
}

impl Behavior {
    /// Short static name, used as the fault kind in the simulator's
    /// ground-truth [`simnet::ledger::FaultLedger`].
    pub fn kind(&self) -> &'static str {
        match self {
            Behavior::Honest => "honest",
            Behavior::CorruptValue => "corrupt-value",
            Behavior::Silent => "silent",
            Behavior::Slow(_) => "slow",
            Behavior::Intermittent => "intermittent",
        }
    }

    /// True when replies should be suppressed entirely.
    pub fn is_silent(&self) -> bool {
        matches!(self, Behavior::Silent)
    }

    /// The reply delay, when behaving slow.
    pub fn delay(&self) -> Option<SimDuration> {
        match self {
            Behavior::Slow(d) => Some(*d),
            _ => None,
        }
    }

    /// Applies value corruption for the given request id, if this
    /// behaviour corrupts.
    pub fn corrupt(&self, request_id: u64, value: &Value) -> Option<Value> {
        let active = match self {
            Behavior::CorruptValue => true,
            Behavior::Intermittent => request_id % 2 == 1,
            _ => false,
        };
        if !active {
            return None;
        }
        Some(corrupt_value(value))
    }
}

/// Deterministically corrupts a value (so a *group* of colluding faulty
/// replicas produces matching wrong answers — the strongest attack, since
/// up to f matching bad values can try to out-vote the truth).
pub fn corrupt_value(value: &Value) -> Value {
    match value {
        Value::Void => Value::Void,
        Value::Octet(v) => Value::Octet(v.wrapping_add(1)),
        Value::Boolean(v) => Value::Boolean(!v),
        Value::Short(v) => Value::Short(v.wrapping_add(1)),
        Value::UShort(v) => Value::UShort(v.wrapping_add(1)),
        Value::Long(v) => Value::Long(v.wrapping_add(1_000_000)),
        Value::ULong(v) => Value::ULong(v.wrapping_add(1_000_000)),
        Value::LongLong(v) => Value::LongLong(v.wrapping_add(1_000_000_000)),
        Value::ULongLong(v) => Value::ULongLong(v.wrapping_add(1_000_000_000)),
        Value::Float(v) => Value::Float(v * 2.0 + 1.0),
        Value::Double(v) => Value::Double(v * 2.0 + 1.0),
        Value::String(v) => Value::String(format!("{v}-corrupted")),
        Value::Sequence(items) => Value::Sequence(match items.as_octets() {
            Some(octets) => Seq::from_octets(octets.iter().map(|b| b.wrapping_add(1)).collect()),
            None => items.iter().map(corrupt_value).collect(),
        }),
        Value::Struct(items) => Value::Struct(items.iter().map(corrupt_value).collect()),
        Value::Enum(d) => Value::Enum(d.wrapping_add(1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_never_corrupts() {
        assert_eq!(Behavior::Honest.corrupt(1, &Value::Long(5)), None);
        assert!(!Behavior::Honest.is_silent());
        assert_eq!(Behavior::Honest.delay(), None);
    }

    #[test]
    fn corrupt_value_changes_every_kind() {
        let cases = [
            Value::Octet(1),
            Value::Boolean(true),
            Value::Long(0),
            Value::Double(1.0),
            Value::String("x".into()),
            Value::Sequence(vec![Value::Long(1)].into()),
            Value::Struct(vec![Value::Short(2)]),
            Value::Enum(0),
        ];
        for v in cases {
            assert_ne!(corrupt_value(&v), v, "{v:?}");
        }
    }

    #[test]
    fn corruption_is_deterministic() {
        let v = Value::Struct(vec![Value::Long(7), Value::Double(2.0)]);
        assert_eq!(corrupt_value(&v), corrupt_value(&v));
    }

    #[test]
    fn intermittent_corrupts_odd_requests_only() {
        let b = Behavior::Intermittent;
        assert_eq!(b.corrupt(2, &Value::Long(5)), None);
        assert!(b.corrupt(3, &Value::Long(5)).is_some());
    }

    #[test]
    fn slow_exposes_delay() {
        let b = Behavior::Slow(SimDuration::from_millis(5));
        assert_eq!(b.delay(), Some(SimDuration::from_millis(5)));
        assert!(!b.is_silent());
    }

    #[test]
    fn silent_is_silent() {
        assert!(Behavior::Silent.is_silent());
        assert_eq!(Behavior::Silent.corrupt(1, &Value::Long(1)), None);
    }
}
