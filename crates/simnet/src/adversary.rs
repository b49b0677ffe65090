//! Network-level adversary model.
//!
//! ITDOS assumes a Byzantine adversary that fully controls up to `f`
//! processes and can observe, delay, duplicate, reorder, or corrupt traffic
//! on the network (§2.1–2.2). Process-level Byzantine behaviour (wrong
//! results, protocol deviation) is implemented by faulty [`crate::Process`]
//! implementations; this module models the *network* half: an interceptor
//! consulted for every message copy before it is scheduled for delivery.

use xbytes::Bytes;
use xrand::rngs::SmallRng;

use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};

/// What the adversary decides to do with one message copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver unchanged.
    Pass,
    /// Silently drop this copy.
    Drop,
    /// Deliver after an extra delay.
    Delay(SimDuration),
    /// Replace the payload (models in-flight tampering; authenticated
    /// protocols must detect this).
    Tamper(Bytes),
    /// Deliver the original and also schedule duplicate copies after the
    /// given extra delays (models replay/duplication).
    Duplicate(Vec<SimDuration>),
}

/// A network interceptor consulted for every message copy.
///
/// Implementations must be deterministic given the supplied RNG, which is
/// seeded from the simulation master seed.
pub trait Adversary {
    /// Decides the fate of one message copy from `from` to `to` at `now`.
    fn intercept(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        payload: &Bytes,
        rng: &mut SmallRng,
    ) -> Verdict;
}

/// The honest network: passes everything through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassThrough;

impl Adversary for PassThrough {
    fn intercept(
        &mut self,
        _now: SimTime,
        _from: NodeId,
        _to: NodeId,
        _payload: &Bytes,
        _rng: &mut SmallRng,
    ) -> Verdict {
        Verdict::Pass
    }
}

/// A scripted adversary: applies a fixed rule per (from, to) pair.
///
/// Useful in tests that need one precisely targeted attack, e.g. "delay all
/// replies from replica 2 by 50ms" (E5) or "flip a byte in every message
/// from the client" (authentication tests).
#[derive(Default)]
pub struct Scripted {
    rules: Vec<Rule>,
}

/// What a rule does to a message it matches.
type Action = Box<dyn FnMut(&Bytes, &mut SmallRng) -> Verdict>;

struct Rule {
    from: Option<NodeId>,
    to: Option<NodeId>,
    action: Action,
}

impl Scripted {
    /// Creates an adversary with no rules (equivalent to [`PassThrough`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule matching messages from `from` (or any sender if `None`)
    /// to `to` (or any receiver if `None`). The first matching rule wins.
    pub fn rule<F>(&mut self, from: Option<NodeId>, to: Option<NodeId>, action: F) -> &mut Self
    where
        F: FnMut(&Bytes, &mut SmallRng) -> Verdict + 'static,
    {
        self.rules.push(Rule {
            from,
            to,
            action: Box::new(action),
        });
        self
    }

    /// Convenience: delay everything sent by `from` by `delay`.
    pub fn delay_from(&mut self, from: NodeId, delay: SimDuration) -> &mut Self {
        self.rule(Some(from), None, move |_, _| Verdict::Delay(delay))
    }

    /// Convenience: corrupt one payload byte of everything sent by `from`.
    pub fn tamper_from(&mut self, from: NodeId) -> &mut Self {
        self.rule(Some(from), None, |payload, _| {
            let mut v = payload.to_vec();
            if let Some(b) = v.first_mut() {
                *b ^= 0xFF;
            }
            Verdict::Tamper(Bytes::from(v))
        })
    }
}

impl std::fmt::Debug for Scripted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scripted")
            .field("rules", &self.rules.len())
            .finish()
    }
}

impl Adversary for Scripted {
    fn intercept(
        &mut self,
        _now: SimTime,
        from: NodeId,
        to: NodeId,
        payload: &Bytes,
        rng: &mut SmallRng,
    ) -> Verdict {
        for rule in &mut self.rules {
            let from_ok = rule.from.is_none_or(|f| f == from);
            let to_ok = rule.to.is_none_or(|t| t == to);
            if from_ok && to_ok {
                return (rule.action)(payload, rng);
            }
        }
        Verdict::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrand::SeedableRng;

    fn n(i: u32) -> NodeId {
        NodeId::from_raw(i)
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0)
    }

    #[test]
    fn passthrough_passes() {
        let mut a = PassThrough;
        let v = a.intercept(
            SimTime::ZERO,
            n(0),
            n(1),
            &Bytes::from_static(b"x"),
            &mut rng(),
        );
        assert_eq!(v, Verdict::Pass);
    }

    #[test]
    fn scripted_first_match_wins() {
        let mut a = Scripted::new();
        a.rule(Some(n(0)), None, |_, _| Verdict::Drop);
        a.rule(None, None, |_, _| {
            Verdict::Delay(SimDuration::from_micros(1))
        });
        let v = a.intercept(SimTime::ZERO, n(0), n(1), &Bytes::new(), &mut rng());
        assert_eq!(v, Verdict::Drop);
        let v = a.intercept(SimTime::ZERO, n(2), n(1), &Bytes::new(), &mut rng());
        assert_eq!(v, Verdict::Delay(SimDuration::from_micros(1)));
    }

    #[test]
    fn tamper_flips_first_byte() {
        let mut a = Scripted::new();
        a.tamper_from(n(3));
        let v = a.intercept(
            SimTime::ZERO,
            n(3),
            n(1),
            &Bytes::from_static(&[0x01, 0x02]),
            &mut rng(),
        );
        match v {
            Verdict::Tamper(b) => assert_eq!(&b[..], &[0xFE, 0x02]),
            other => panic!("expected tamper, got {other:?}"),
        }
    }

    #[test]
    fn unmatched_rules_pass() {
        let mut a = Scripted::new();
        a.rule(Some(n(9)), Some(n(8)), |_, _| Verdict::Drop);
        let v = a.intercept(SimTime::ZERO, n(9), n(7), &Bytes::new(), &mut rng());
        assert_eq!(v, Verdict::Pass);
    }
}
