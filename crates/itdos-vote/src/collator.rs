//! Per-connection vote collation.
//!
//! "In the ITDOS protocol stack, each connection has a voter object that
//! collates messages on a connection basis" (§3.6). The collator enforces
//! the paper's rules:
//!
//! * a single outstanding request per connection (single-threaded client);
//! * a just-received message whose request identifier does not match the
//!   outstanding request is **discarded** — "the receiver neither uses the
//!   message's value nor penalizes the sender", because a late reply is
//!   indistinguishable from a Byzantine one;
//! * the vote fires once **2f+1** messages have arrived and some **f+1**
//!   of them are equivalent; the voter does not wait for all 3f+1;
//! * messages arriving after the decision are still checked so that slow
//!   faulty values can be flagged — while a sender the round has not
//!   heard from may still send one; once every sender that may vote has
//!   been heard, the decided value is handed over and not kept;
//! * state is garbage-collected when the next request begins.

use std::collections::BTreeSet;

use itdos_giop::types::Value;
use itdos_obs::{LabelValue, Obs};

use crate::comparator::Comparator;
use crate::vote::{tally, Candidate, Decision, SenderId, Thresholds};

/// Static label distinguishing exact from inexact voting in metrics.
fn comparator_kind(comparator: &Comparator) -> &'static str {
    match comparator {
        Comparator::Exact => "exact",
        _ => "inexact",
    }
}

/// Why a message was discarded without prejudice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscardReason {
    /// No request is outstanding on this connection.
    NoOutstandingRequest,
    /// The request id did not match the outstanding request.
    WrongRequestId {
        /// Id carried by the message.
        got: u64,
        /// Id of the outstanding request.
        expected: u64,
    },
    /// This sender already contributed a candidate for this request.
    DuplicateSender,
    /// The round decided after hearing every sender that may vote in it,
    /// so this further sender is none of them.
    RoundFull,
}

/// Result of offering one message to the collator.
#[derive(Debug, Clone, PartialEq)]
pub enum Accept {
    /// Stored; not enough messages to decide yet.
    Collected,
    /// This message completed the vote.
    Decided(Decision),
    /// Arrived after the decision; `suspect` is set if its value dissents.
    Late {
        /// Sender flagged as suspect by this late message, if any.
        suspect: Option<SenderId>,
    },
    /// Discarded per §3.6 rules (no penalty to the sender).
    Discarded(DiscardReason),
}

/// Statistics for one collation round (feeds the voter's garbage
/// collection and the experiment harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollationStats {
    /// Messages accepted as candidates.
    pub accepted: u64,
    /// Messages discarded (wrong id, duplicates, no outstanding request).
    pub discarded: u64,
    /// Whether the round reached a decision.
    pub decided: bool,
}

/// The per-connection voter.
///
/// # Examples
///
/// ```
/// use itdos_giop::types::Value;
/// use itdos_vote::collator::{Accept, Collator};
/// use itdos_vote::comparator::Comparator;
/// use itdos_vote::vote::{SenderId, Thresholds};
///
/// // f = 1 over a domain of 4: decide on 2 equivalent of at least 3 received.
/// let mut voter = Collator::new(Thresholds::new(1), 4, Comparator::Exact);
/// voter.begin(1);
/// assert_eq!(voter.offer(1, SenderId(0), Value::Long(10)), Accept::Collected);
/// assert_eq!(voter.offer(1, SenderId(1), Value::Long(99)), Accept::Collected);
/// match voter.offer(1, SenderId(2), Value::Long(10)) {
///     Accept::Decided(d) => assert_eq!(d.value, Value::Long(10)),
///     other => panic!("expected decision, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Collator {
    thresholds: Thresholds,
    /// How many distinct senders may vote in a round.
    senders: usize,
    comparator: Comparator,
    outstanding: Option<u64>,
    /// Candidates awaiting a decision; emptied when the round decides
    /// (late arrivals are checked against `decided` alone).
    candidates: Vec<Candidate>,
    seen: BTreeSet<SenderId>,
    decided: Option<Decided>,
    /// Dissenters at decision time, then late dissenting arrivals.
    suspects: Vec<SenderId>,
    stats: CollationStats,
    obs: Obs,
}

/// What a decided round keeps.
#[derive(Debug, Clone)]
struct Decided {
    /// Candidates the vote counted.
    voted: usize,
    /// The winning value, for checking late arrivals; `None` when every
    /// sender had been heard by the decision, so none can arrive late.
    value: Option<Value>,
}

impl Collator {
    /// Creates a voter masking `thresholds.f` faults among at most
    /// `senders` distinct senders per round (1 for a singleton client, the
    /// element count for a domain), comparing with `comparator`.
    pub fn new(thresholds: Thresholds, senders: usize, comparator: Comparator) -> Collator {
        Collator {
            thresholds,
            senders,
            comparator,
            outstanding: None,
            candidates: Vec::new(),
            seen: BTreeSet::new(),
            decided: None,
            suspects: Vec::new(),
            stats: CollationStats::default(),
            obs: Obs::disabled(),
        }
    }

    /// Installs an observability sink recording votes held, exact-vs-
    /// inexact outcomes, and divergent-replica detections. The default
    /// disabled handle makes every hook a no-op.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Begins collation for a new outstanding request, garbage-collecting
    /// any previous round's state ("the voter must perform garbage
    /// collection to continue making progress and limit the resources it
    /// uses", §3.6). Returns the previous round's statistics.
    pub fn begin(&mut self, request_id: u64) -> CollationStats {
        let prev = self.stats;
        self.outstanding = Some(request_id);
        self.candidates.clear();
        self.seen.clear();
        self.decided = None;
        self.suspects.clear();
        self.stats = CollationStats::default();
        // round marker: request ids restart per connection, so an offline
        // auditor needs this to avoid pairing a new round's ballots with a
        // stale same-id decision
        self.obs
            .event("vote.begin", &[("request", LabelValue::U64(request_id))]);
        prev
    }

    /// The outstanding request id, if any.
    pub fn outstanding(&self) -> Option<u64> {
        self.outstanding
    }

    /// The decided value, while the round keeps it for late arrivals.
    pub fn decided_value(&self) -> Option<&Value> {
        self.decided.as_ref()?.value.as_ref()
    }

    /// All fault suspects so far: dissenters at decision time plus late
    /// dissenting arrivals.
    pub fn suspects(&self) -> &[SenderId] {
        &self.suspects
    }

    /// Statistics for the current round.
    pub fn stats(&self) -> CollationStats {
        self.stats
    }

    /// Number of candidates collected this round.
    pub fn collected(&self) -> usize {
        match &self.decided {
            Some(decided) => decided.voted,
            None => self.candidates.len(),
        }
    }

    /// Offers one unmarshalled reply/request value for collation.
    pub fn offer(&mut self, request_id: u64, sender: SenderId, value: Value) -> Accept {
        let Some(expected) = self.outstanding else {
            self.stats.discarded += 1;
            return Accept::Discarded(DiscardReason::NoOutstandingRequest);
        };
        if request_id != expected {
            self.stats.discarded += 1;
            return Accept::Discarded(DiscardReason::WrongRequestId {
                got: request_id,
                expected,
            });
        }
        if self.seen.contains(&sender) {
            self.stats.discarded += 1;
            return Accept::Discarded(DiscardReason::DuplicateSender);
        }
        if self.decided.as_ref().is_some_and(|d| d.value.is_none()) {
            // the caller said no further sender may vote, and the decided
            // value went to it whole: discarded without penalty, as a
            // sender outside the round (the SMIOP side rule refuses such
            // frames before they reach a voter)
            self.stats.discarded += 1;
            return Accept::Discarded(DiscardReason::RoundFull);
        }
        self.seen.insert(sender);
        self.stats.accepted += 1;
        // every accepted ballot goes on the flight record: the per-sender
        // arrival timestamps are what lets an offline auditor measure how
        // far behind the decision a straggling replica's replies land
        self.obs.event(
            "vote.reply",
            &[
                ("request", LabelValue::U64(request_id)),
                ("sender", LabelValue::U64(u64::from(sender.0))),
            ],
        );
        if let Some(decided) = self.decided_value() {
            // post-decision arrival: check against the decided value
            let suspect = if self.comparator.equivalent(decided, &value) {
                None
            } else {
                self.suspects.push(sender);
                self.obs.incr("vote.divergent", &[]);
                self.obs.event(
                    "vote.late_dissent",
                    &[
                        ("request", LabelValue::U64(request_id)),
                        ("sender", LabelValue::U64(u64::from(sender.0))),
                    ],
                );
                Some(sender)
            };
            self.obs.incr("vote.late", &[]);
            return Accept::Late { suspect };
        }
        self.candidates.push(Candidate { sender, value });
        let held = self.candidates.len();
        // §3.6: attempt only once the 2f+1 quorum has arrived
        if held < self.thresholds.quorum() {
            return Accept::Collected;
        }
        // each fold pass over the candidate set is real voter work the
        // profiler attributes to the vote.fold subsystem
        self.obs.incr("vote.folds", &[]);
        self.obs.observe("vote.fold_candidates", &[], held as u64);
        let Some(tally) = tally(&self.candidates, &self.comparator, self.thresholds.decide())
        else {
            return Accept::Collected;
        };
        // the winner's value moves into the decision; nothing reads the
        // other candidates' values again, so they are freed here rather
        // than when the round is garbage-collected
        let decision = Decision {
            value: self.candidates.swap_remove(tally.pivot).value,
            supporters: tally.supporters,
            dissenters: tally.dissenters,
        };
        self.candidates = Vec::new();
        self.stats.decided = true;
        if self.obs.is_enabled() {
            let kind = comparator_kind(&self.comparator);
            let labels = [("comparator", LabelValue::Str(kind))];
            self.obs.incr("vote.decided", &labels);
            self.obs
                .event("vote.decided", &[("request", LabelValue::U64(request_id))]);
            self.obs.observe("vote.votes_held", &labels, held as u64);
            self.obs
                .add("vote.divergent", &[], decision.dissenters.len() as u64);
            for dissenter in &decision.dissenters {
                self.obs.event(
                    "vote.dissent",
                    &[
                        ("request", LabelValue::U64(request_id)),
                        ("sender", LabelValue::U64(u64::from(dissenter.0))),
                    ],
                );
            }
        }
        // a copy of the value stays only while a sender the round has not
        // heard from may still arrive late; the decision goes to the caller
        self.decided = Some(Decided {
            voted: held,
            value: (self.seen.len() < self.senders).then(|| decision.value.clone()),
        });
        self.suspects.clone_from(&decision.dissenters);
        Accept::Decided(decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collator(f: usize) -> Collator {
        let mut c = Collator::new(Thresholds::new(f), 3 * f + 1, Comparator::Exact);
        c.begin(1);
        c
    }

    fn long(v: i32) -> Value {
        Value::Long(v)
    }

    #[test]
    fn decides_at_quorum_with_majority() {
        let mut c = collator(1);
        assert_eq!(c.offer(1, SenderId(0), long(5)), Accept::Collected);
        assert_eq!(c.offer(1, SenderId(1), long(5)), Accept::Collected);
        // third message reaches 2f+1 = 3 quorum
        match c.offer(1, SenderId(2), long(7)) {
            Accept::Decided(d) => {
                assert_eq!(d.value, long(5));
                assert_eq!(d.dissenters, vec![SenderId(2)]);
            }
            other => panic!("expected decision, got {other:?}"),
        }
    }

    #[test]
    fn does_not_vote_before_quorum_even_with_enough_identicals() {
        // f=1: two identical messages = decide threshold, but quorum is 3
        let mut c = collator(1);
        assert_eq!(c.offer(1, SenderId(0), long(5)), Accept::Collected);
        assert_eq!(
            c.offer(1, SenderId(1), long(5)),
            Accept::Collected,
            "must wait for 2f+1 arrivals"
        );
    }

    #[test]
    fn wrong_request_id_discarded_without_penalty() {
        let mut c = collator(1);
        assert_eq!(
            c.offer(99, SenderId(0), long(5)),
            Accept::Discarded(DiscardReason::WrongRequestId {
                got: 99,
                expected: 1
            })
        );
        assert!(c.suspects().is_empty(), "no penalty for late/wrong id");
        assert_eq!(c.stats().discarded, 1);
    }

    #[test]
    fn duplicate_sender_discarded() {
        let mut c = collator(1);
        c.offer(1, SenderId(0), long(5));
        assert_eq!(
            c.offer(1, SenderId(0), long(5)),
            Accept::Discarded(DiscardReason::DuplicateSender)
        );
    }

    #[test]
    fn no_outstanding_request_discards() {
        let mut c = Collator::new(Thresholds::new(1), 4, Comparator::Exact);
        assert_eq!(
            c.offer(1, SenderId(0), long(5)),
            Accept::Discarded(DiscardReason::NoOutstandingRequest)
        );
    }

    #[test]
    fn late_equivalent_message_is_benign() {
        let mut c = collator(1);
        c.offer(1, SenderId(0), long(5));
        c.offer(1, SenderId(1), long(5));
        c.offer(1, SenderId(2), long(5));
        assert_eq!(
            c.offer(1, SenderId(3), long(5)),
            Accept::Late { suspect: None }
        );
        assert!(c.suspects().is_empty());
    }

    #[test]
    fn late_dissenting_message_flags_suspect() {
        let mut c = collator(1);
        c.offer(1, SenderId(0), long(5));
        c.offer(1, SenderId(1), long(5));
        c.offer(1, SenderId(2), long(5));
        assert_eq!(
            c.offer(1, SenderId(3), long(666)),
            Accept::Late {
                suspect: Some(SenderId(3))
            }
        );
        assert_eq!(c.suspects(), vec![SenderId(3)]);
        // the voted-on candidates were freed at the decision; their count
        // (not the late arrival's) is what the round still reports
        assert_eq!(c.collected(), 3);
        assert_eq!(c.decided_value(), Some(&long(5)));
    }

    #[test]
    fn a_round_that_heard_every_sender_keeps_no_copy() {
        // a singleton client's request: one sender, f = 0
        let mut c = Collator::new(Thresholds::new(0), 1, Comparator::Exact);
        c.begin(1);
        assert!(matches!(
            c.offer(1, SenderId(9), long(5)),
            Accept::Decided(_)
        ));
        assert_eq!(c.decided_value(), None);
        assert_eq!(c.collected(), 1);
        assert_eq!(
            c.offer(1, SenderId(9), long(5)),
            Accept::Discarded(DiscardReason::DuplicateSender)
        );
        assert_eq!(
            c.offer(1, SenderId(3), long(6)),
            Accept::Discarded(DiscardReason::RoundFull)
        );
        assert!(c.suspects().is_empty());
        assert_eq!(c.stats().discarded, 2);
    }

    /// Handing the decided value over changes no verdict. Over seeded
    /// arrival orders — every sender of a domain of 3f+1 or 3f+2 once, in
    /// a random order, some twice, some with a wrong value, now and then
    /// under a wrong request id — a collator told the domain's size
    /// returns the same `Accept` sequence, suspects and count as one told
    /// nothing, which keeps the copy for every round.
    #[test]
    fn handing_the_decision_over_changes_no_verdict() {
        use xrand::rngs::SmallRng;
        use xrand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xc011_a70e);
        for case in 0..3_000 {
            let f = case % 3;
            let senders = 3 * f + 1 + rng.gen_range(0..=1usize);
            let mut arrivals: Vec<u32> = (0..senders as u32).collect();
            arrivals.sort_by_cached_key(|_| rng.gen::<u64>());
            for _ in 0..rng.gen_range(0..=3usize) {
                let repeat = arrivals[rng.gen_range(0..arrivals.len())];
                let at = rng.gen_range(0..=arrivals.len());
                arrivals.insert(at, repeat);
            }
            let mut told = Collator::new(Thresholds::new(f), senders, Comparator::Exact);
            let mut reference = Collator::new(Thresholds::new(f), usize::MAX, Comparator::Exact);
            told.begin(1);
            reference.begin(1);
            for sender in arrivals {
                let request = if rng.gen_bool(0.05) { 2 } else { 1 };
                let value = long(if rng.gen_bool(0.3) {
                    8 + i32::from(rng.gen::<bool>())
                } else {
                    7
                });
                let got = told.offer(request, SenderId(sender), value.clone());
                let want = reference.offer(request, SenderId(sender), value);
                assert_eq!(got, want, "case {case}: sender {sender}");
                assert_eq!(told.suspects(), reference.suspects(), "case {case}");
                assert_eq!(told.collected(), reference.collected(), "case {case}");
                assert_eq!(told.stats(), reference.stats(), "case {case}");
            }
        }
    }

    #[test]
    fn split_quorum_waits_for_more_messages() {
        // f=1, values 1,2,3 at quorum: no f+1 cluster -> pending; a 4th
        // message matching one of them decides
        let mut c = collator(1);
        c.offer(1, SenderId(0), long(1));
        c.offer(1, SenderId(1), long(2));
        assert_eq!(c.offer(1, SenderId(2), long(3)), Accept::Collected);
        match c.offer(1, SenderId(3), long(2)) {
            Accept::Decided(d) => assert_eq!(d.value, long(2)),
            other => panic!("expected decision, got {other:?}"),
        }
    }

    #[test]
    fn begin_garbage_collects_and_reports_stats() {
        let mut c = collator(1);
        c.offer(1, SenderId(0), long(5));
        c.offer(99, SenderId(1), long(5));
        let stats = c.begin(2);
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.discarded, 1);
        assert!(!stats.decided);
        assert_eq!(c.collected(), 0, "state cleared");
        assert_eq!(c.outstanding(), Some(2));
        // old senders may contribute again for the new request
        assert_eq!(c.offer(2, SenderId(0), long(1)), Accept::Collected);
    }

    #[test]
    fn f2_needs_three_identical_of_five() {
        let mut c = Collator::new(Thresholds::new(2), 7, Comparator::Exact);
        c.begin(1);
        c.offer(1, SenderId(0), long(8));
        c.offer(1, SenderId(1), long(9));
        c.offer(1, SenderId(2), long(8));
        assert_eq!(c.offer(1, SenderId(3), long(9)), Accept::Collected);
        match c.offer(1, SenderId(4), long(8)) {
            Accept::Decided(d) => {
                assert_eq!(d.value, long(8));
                assert_eq!(d.supporters.len(), 3);
            }
            other => panic!("expected decision, got {other:?}"),
        }
    }

    #[test]
    fn inexact_collation_decides_across_heterogeneous_values() {
        let mut c = Collator::new(Thresholds::new(1), 4, Comparator::InexactRel(1e-6));
        c.begin(1);
        c.offer(1, SenderId(0), Value::Double(100.0));
        c.offer(1, SenderId(1), Value::Double(100.000001));
        match c.offer(1, SenderId(2), Value::Double(250.0)) {
            Accept::Decided(d) => {
                assert_eq!(d.dissenters, vec![SenderId(2)]);
            }
            other => panic!("expected decision, got {other:?}"),
        }
    }
}
