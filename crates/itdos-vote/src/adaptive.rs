//! Adaptive voting (the paper's §4 future-work item, implemented as an
//! extension).
//!
//! "We are considering the possibility of adaptive voting such as outlined
//! in \[32\]" — Parameswaran, Blough & Bakken's precision-vs-fault-tolerance
//! trade-off: a *tighter* epsilon yields a more precise agreed value but
//! tolerates less platform divergence (correct replicas fall outside the
//! cluster); a *looser* epsilon masks more divergence but lets a Byzantine
//! value hide inside the tolerance band.
//!
//! The adaptive voter walks an epsilon ladder: it starts at the most
//! precise step and widens only until a decision is reached, then reports
//! the precision actually achieved — benchmark E12 sweeps this trade-off.

use crate::comparator::Comparator;
use crate::vote::{vote, Candidate, Decision, VoteOutcome};

/// Outcome of an adaptive vote.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveDecision {
    /// The decision reached.
    pub decision: Decision,
    /// The epsilon at which consensus was achieved (smaller = more
    /// precise).
    pub epsilon: f64,
    /// How many ladder steps were widened before deciding (0 = decided at
    /// the most precise step).
    pub widenings: usize,
}

/// An adaptive voter with a fixed epsilon ladder.
///
/// # Examples
///
/// ```
/// use itdos_giop::types::Value;
/// use itdos_vote::adaptive::AdaptiveVoter;
/// use itdos_vote::vote::{Candidate, SenderId};
///
/// let voter = AdaptiveVoter::new(vec![1e-12, 1e-9, 1e-6]);
/// let candidates: Vec<Candidate> = [100.0, 100.0000001, 100.0000002]
///     .iter()
///     .enumerate()
///     .map(|(i, v)| Candidate { sender: SenderId(i as u32), value: Value::Double(*v) })
///     .collect();
/// let d = voter.vote(&candidates, 3).expect("consensus");
/// assert!(d.epsilon <= 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveVoter {
    ladder: Vec<f64>,
}

impl AdaptiveVoter {
    /// Creates a voter from an epsilon ladder, sorted ascending (most
    /// precise first).
    ///
    /// # Panics
    ///
    /// Panics on an empty ladder or non-positive epsilon.
    pub fn new(mut ladder: Vec<f64>) -> AdaptiveVoter {
        assert!(!ladder.is_empty(), "epsilon ladder must not be empty");
        assert!(ladder.iter().all(|e| *e > 0.0), "epsilons must be positive");
        ladder.sort_by(f64::total_cmp);
        AdaptiveVoter { ladder }
    }

    /// A default ladder spanning float noise (1e-12) to measurement-grade
    /// tolerance (1e-3).
    pub fn default_ladder() -> AdaptiveVoter {
        AdaptiveVoter::new(vec![1e-12, 1e-9, 1e-6, 1e-3])
    }

    /// The ladder in use.
    pub fn ladder(&self) -> &[f64] {
        &self.ladder
    }

    /// Votes, widening epsilon until `threshold` support is found.
    ///
    /// Returns `None` if even the loosest epsilon cannot decide.
    pub fn vote(&self, candidates: &[Candidate], threshold: usize) -> Option<AdaptiveDecision> {
        for (widenings, &epsilon) in self.ladder.iter().enumerate() {
            let comparator = Comparator::InexactRel(epsilon);
            if let VoteOutcome::Decided(decision) = vote(candidates, &comparator, threshold) {
                return Some(AdaptiveDecision {
                    decision,
                    epsilon,
                    widenings,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vote::SenderId;
    use itdos_giop::types::Value;

    fn candidates(values: &[f64]) -> Vec<Candidate> {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| Candidate {
                sender: SenderId(i as u32),
                value: Value::Double(*v),
            })
            .collect()
    }

    #[test]
    fn tight_agreement_decides_at_most_precise_step() {
        let voter = AdaptiveVoter::default_ladder();
        let cs = candidates(&[5.0, 5.0, 5.0]);
        let d = voter.vote(&cs, 3).unwrap();
        assert_eq!(d.widenings, 0);
        assert_eq!(d.epsilon, 1e-12);
    }

    #[test]
    fn platform_divergence_forces_widening() {
        let voter = AdaptiveVoter::default_ladder();
        // values diverge by ~1e-7 relative: 1e-12 and 1e-9 fail, 1e-6 works
        let cs = candidates(&[1.0, 1.0 + 1e-7, 1.0 - 1e-7]);
        let d = voter.vote(&cs, 3).unwrap();
        assert_eq!(d.epsilon, 1e-6);
        assert!(d.widenings >= 1);
    }

    #[test]
    fn hopeless_disagreement_returns_none() {
        let voter = AdaptiveVoter::default_ladder();
        let cs = candidates(&[1.0, 2.0, 3.0]);
        assert!(voter.vote(&cs, 2).is_none());
    }

    #[test]
    fn byzantine_outlier_excluded_at_tight_epsilon() {
        let voter = AdaptiveVoter::default_ladder();
        let cs = candidates(&[10.0, 10.0, 10.5]);
        let d = voter.vote(&cs, 2).unwrap();
        assert_eq!(d.widenings, 0, "two exact copies decide immediately");
        assert_eq!(d.decision.dissenters, vec![SenderId(2)]);
    }

    #[test]
    fn looser_epsilon_hides_byzantine_value_tradeoff() {
        // the dark side of widening: at 1e-3 a subtly wrong value becomes a
        // supporter — precision lost, fault masked
        let voter = AdaptiveVoter::new(vec![1e-3]);
        let cs = candidates(&[10.0, 10.0, 10.005]);
        let d = voter.vote(&cs, 3).unwrap();
        assert!(
            d.decision.dissenters.is_empty(),
            "outlier admitted at loose eps"
        );
    }

    #[test]
    fn ladder_is_sorted_on_construction() {
        let voter = AdaptiveVoter::new(vec![1e-3, 1e-9, 1e-6]);
        assert_eq!(voter.ladder(), &[1e-9, 1e-6, 1e-3]);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_ladder_panics() {
        AdaptiveVoter::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn non_positive_epsilon_panics() {
        AdaptiveVoter::new(vec![0.0]);
    }
}
