//! The flight-event catalogue: one table of every event kind the product
//! records. Each row names a [`Fact`] variant, its dumped `kind` and its
//! label keys in the order they are written; the kind, the label writer
//! and the reader ([`Fact::read`]) are all generated from it, so a writer
//! and the audit reading it back cannot disagree on a kind or a key. The
//! stored event stays `(kind, labels)`, so dumps are the rows written out.

use crate::flight::{Labels, INLINE_LABELS};
use crate::metrics::LabelValue;

// The metric series the audit reads, named once for writers and readers.
/// `element.replies{element}`: replies an element's ORB sent.
pub const ELEMENT_REPLIES: &str = "element.replies";
/// `obs.tap_dropped`: events a bounded subscription tap discarded.
pub const TAP_DROPPED: &str = "obs.tap_dropped";
/// `bft.prepare_us{replica}`: pre-prepare to prepared, per sequence number.
pub const PREPARE_US: &str = "bft.prepare_us";
/// `bft.commit_us{replica}`: prepared to committed, per sequence number.
pub const COMMIT_US: &str = "bft.commit_us";
/// `bft.order_us{replica}`: pre-prepare to committed, per sequence number.
pub const ORDER_US: &str = "bft.order_us";
/// The label naming the element on [`ELEMENT_REPLIES`].
pub const ELEMENT: &str = "element";
/// The label naming the replica on the ordering-phase histograms.
pub const REPLICA: &str = "replica";

macro_rules! facts {
    // A field is `u64`, `opt` (an `Option<u64>` whose label is left out
    // when `None`) or `str`: its type, its label as written (`None`: left
    // out) and as read back (`None`: the label cannot be this field).
    (@type u64) => (u64);
    (@type opt) => (Option<u64>);
    (@type str) => (&'a str);
    (@write u64 $v:ident) => (Some(LabelValue::U64($v)));
    (@write opt $v:ident) => ($v.map(LabelValue::U64));
    (@write str $v:ident) => (Some(LabelValue::Str($v)));
    (@read u64 $label:expr) => (match $label? { LabelValue::U64(n) => Some(n), _ => None });
    (@read str $label:expr) => (match $label? { LabelValue::Str(s) => Some(s), _ => None });
    (@read opt $label:expr) => (match $label {
        None => Some(None),
        label => facts!(@read u64 label).map(Some),
    });
    ($($variant:ident = $kind:literal { $($field:ident: $ty:tt),+ $(,)? })+) => {
        /// One flight event the product records, typed: the variant is
        /// the event's kind and each field one of its labels, named as
        /// the label is. Written with [`crate::Obs::fact`] and read back
        /// from a live [`crate::Event`] or a parsed dump record with
        /// `fact()`.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Fact<'a> {
            $(
                #[doc = concat!("`", $kind, "`")]
                $variant {
                    $(#[doc = concat!("`", stringify!($field), "`")] $field: facts!(@type $ty),)+
                },
            )+
        }

        impl<'a> Fact<'a> {
            /// The event kind this fact is recorded and dumped under.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Fact::$variant { .. } => $kind,)+
                }
            }

            /// The fact an event of `kind` whose labels `lookup` finds
            /// records. Total on hostile input: an unknown kind, or a
            /// label missing or of the wrong type, reads as `None`.
            /// Labels the kind does not declare are ignored.
            pub fn read(
                kind: &str,
                lookup: impl Fn(&str) -> Option<LabelValue<&'a str>>,
            ) -> Option<Fact<'a>> {
                match kind {
                    $($kind => Some(Fact::$variant {
                        $($field: facts!(@read $ty lookup(stringify!($field)))?,)+
                    }),)+
                    _ => None,
                }
            }
        }

        impl Fact<'static> {
            /// The labels this fact is recorded with, in table order.
            pub fn labels(&self) -> Labels {
                let mut labels = Labels::EMPTY;
                match *self {
                    $(Fact::$variant { $($field),+ } => {
                        $(if let Some(value) = facts!(@write $ty $field) {
                            labels.push((stringify!($field), value));
                        })+
                    })+
                }
                labels
            }
        }

        // every fact's labels live inline in its flight event
        $(const _: () = assert!([$(stringify!($field)),+].len() <= INLINE_LABELS);)+

        /// Every kind the table declares, in table order.
        #[cfg(test)]
        const KINDS: &[&str] = &[$($kind),+];
    };
}

facts! {
    // what a replica saw, recorded by its host (`fabric::DomainRoute`)
    BftAdmit = "bft.admit" { replica: u64, client: u64, trace: u64 }
    BftBatch = "bft.batch" { replica: u64, seq: u64, trace: u64 }
    BftBadBatchDigest = "bft.bad_batch_digest" { replica: u64, seq: u64, view: u64 }
    BftEquivocation = "bft.equivocation" { replica: u64, seq: u64, view: u64 }
    BftPrepared = "bft.prepared" { replica: u64, seq: u64, view: u64 }
    BftCommitted = "bft.committed" { replica: u64, seq: u64 }
    BftCheckpoint = "bft.checkpoint" { replica: u64, seq: u64 }
    BftCheckpointStable = "bft.checkpoint_stable" { replica: u64, seq: u64 }
    BftStateFetch = "bft.state_fetch" { replica: u64, seq: u64 }
    BftOnboarded = "bft.onboarded" { replica: u64, seq: u64, view: u64 }
    BftStateTransferred = "bft.state_transferred" { replica: u64, seq: u64 }
    BftViewChange = "bft.view_change" { replica: u64, target_view: u64, attempt: u64 }
    BftViewEntered = "bft.view_entered" { replica: u64, view: u64 }
    // the singleton client
    ClientSend = "client.send" { client: u64, request: u64, trace: u64, target: u64 }
    ClientDecided = "client.decided" { client: u64, request: u64, trace: u64, suspects: u64 }
    ClientProof = "client.proof" { client: u64, request: u64, accused: u64 }
    ClientAccused = "client.accused" { client: u64, request: u64, accused: u64 }
    ClientAdmissionApplied = "client.admission_applied" {
        client: u64, admitted: u64, replaced: u64, epoch: u64
    }
    ConnOpenRequest = "conn.open_request" { client: u64, target: u64 }
    ConnOpenRefused = "conn.open_refused" { client: u64, target: u64 }
    ConnKeyed = "conn.keyed" { client: u64, target: u64, epoch: u64 }
    // server elements
    ElementOnboarded = "element.onboarded" { element: u64, seq: u64 }
    ElementAccuse = "element.accuse" { accuser: u64, accused: u64 }
    ElementExecute = "element.execute" { element: u64, request: u64, trace: u64 }
    ElementExpelApplied = "element.expel_applied" { element: u64, expelled: u64 }
    ElementAdmissionApplied = "element.admission_applied" {
        element: u64, admitted: u64, replaced: u64, epoch: u64
    }
    // Group Manager elements
    GmKeydist = "gm.keydist" { connection: u64, epoch: u64, recipients: u64 }
    GmExpelled = "gm.expelled" { domain: u64, element: u64 }
    GmRetired = "gm.retired" { domain: u64, element: u64 }
    GmAdmitted = "gm.admitted" { domain: u64, element: u64, replaced: u64, epoch: u64 }
    // key assembly at every endpoint
    KeyShareRejected = "key.share_rejected" { gm_code: u64, connection: u64 }
    KeyCombined = "key.combined" { connection: u64, epoch: u64 }
    // the voter
    VoteBegin = "vote.begin" { request: u64 }
    VoteReply = "vote.reply" { request: u64, sender: u64 }
    VoteLateDissent = "vote.late_dissent" { request: u64, sender: u64 }
    VoteDecided = "vote.decided" { request: u64 }
    VoteDissent = "vote.dissent" { request: u64, sender: u64 }
    // the healing controller; `health` only on an expulsion
    HealReplace = "heal.replace" { element: u64, domain: u64, cause: str, health: opt }
    HealExpel = "heal.expel" { element: u64, domain: u64, cause: str, health: opt }
    HealRejuvenate = "heal.rejuvenate" { element: u64, domain: u64, cause: str, health: opt }
    // the streaming audit publishing a finding (severity: Info 0, Warn 1, Blame 2)
    AuditFinding = "audit.finding" {
        analyzer: str, kind: str, severity: u64, count: u64, element: opt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::parse_dump;
    use crate::{Label, LabelValue, Obs};

    /// Every variant twice, each field a distinct value: first with its
    /// optional labels present, then without. The string fields are the
    /// ones named here; a new one would leave its kind unreadable.
    fn facts() -> Vec<Fact<'static>> {
        let next = std::cell::Cell::new(0u64);
        let mut facts = Vec::new();
        for optional in [true, false] {
            for kind in KINDS {
                let fact = Fact::read(kind, |key| {
                    next.set(next.get() + 1);
                    match key {
                        "cause" => Some(LabelValue::Str("health-threshold")),
                        "analyzer" | "kind" => Some(LabelValue::Str("a \"quoted\" \\ value")),
                        // the optional labels, left out of the second half
                        "health" if !optional => None,
                        "element" if !optional && *kind == "audit.finding" => None,
                        _ => Some(LabelValue::U64(next.get())),
                    }
                });
                facts.push(fact.unwrap_or_else(|| panic!("{kind} reads as no fact")));
            }
        }
        facts
    }

    #[test]
    fn every_fact_round_trips_through_the_tap_and_the_dump() {
        let (obs, clock) = Obs::manual();
        let tap = obs.subscribe(0).expect("enabled");
        let facts = facts();
        assert_eq!(facts.len(), 2 * 41, "one row per recorded kind");
        for (at, &fact) in (0u64..).zip(&facts) {
            clock.set(at);
            obs.scoped(at).fact(fact);
        }
        let tapped = obs.drain_subscription(tap);
        let dump = parse_dump(&obs.dump_jsonl()).expect("dump parses");
        assert_eq!(tapped.len(), facts.len());
        assert_eq!(dump.events.len(), facts.len());
        for ((fact, event), record) in facts.iter().zip(&tapped).zip(&dump.events) {
            assert_eq!(event.kind, fact.kind());
            assert_eq!(event.fact().as_ref(), Some(fact), "off the tap");
            assert_eq!(record.fact().as_ref(), Some(fact), "out of the dump");
        }
        // the optional labels of the second half were left out, not
        // written as zero
        let (some, none) = facts.split_at(facts.len() / 2);
        let kinds_with_gaps: Vec<&str> = some
            .iter()
            .zip(none)
            .filter(|(a, b)| a.labels().len() != b.labels().len())
            .map(|(a, _)| a.kind())
            .collect();
        assert_eq!(
            kinds_with_gaps,
            [
                "heal.replace",
                "heal.expel",
                "heal.rejuvenate",
                "audit.finding"
            ]
        );
    }

    fn lookup(labels: &[Label]) -> impl Fn(&str) -> Option<LabelValue> + '_ {
        |key| {
            let (_, value) = labels.iter().find(|(k, _)| *k == key)?;
            Some(*value)
        }
    }

    #[test]
    fn hostile_events_read_as_no_fact() {
        let reply = [
            ("request", LabelValue::U64(1)),
            ("sender", LabelValue::U64(4)),
        ];
        assert_eq!(
            Fact::read("vote.reply", lookup(&reply)),
            Some(Fact::VoteReply {
                request: 1,
                sender: 4
            })
        );
        // an unknown kind, a missing label, a label of the wrong type
        assert_eq!(Fact::read("vote.replies", lookup(&reply)), None);
        assert_eq!(
            Fact::read("vote.reply", lookup(&[("sender", LabelValue::U64(4))])),
            None
        );
        let typo = [
            ("request", LabelValue::Str("1")),
            ("sender", LabelValue::U64(4)),
        ];
        assert_eq!(Fact::read("vote.reply", lookup(&typo)), None);
        let health = [
            ("element", LabelValue::U64(4)),
            ("domain", LabelValue::U64(1)),
            ("cause", LabelValue::Str("health-threshold")),
            ("health", LabelValue::Str("low")),
        ];
        assert_eq!(Fact::read("heal.expel", lookup(&health)), None);
        // labels the row does not declare are ignored
        let extra = [
            ("request", LabelValue::U64(1)),
            ("note", LabelValue::Str("x")),
        ];
        assert_eq!(
            Fact::read("vote.begin", lookup(&extra)),
            Some(Fact::VoteBegin { request: 1 })
        );
    }
}
