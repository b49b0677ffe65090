//! # itdos-vote — voting on unmarshalled CORBA values
//!
//! The key to heterogeneous intrusion tolerance (§3.6 of the paper):
//! because marshalled GIOP differs across platforms, ITDOS votes in
//! middleware *after* unmarshalling, using a Voting Virtual Machine whose
//! programs ([`comparator::Comparator`]) select exact or inexact
//! comparison per component.
//!
//! * [`comparator`] — the VVM instruction set: exact, inexact
//!   (absolute/relative epsilon, deliberately non-transitive), ignore,
//!   struct/sequence sub-programs;
//! * [`vote`] — pivot-based threshold voting: decide on `f+1` equivalent
//!   of at least `2f+1` received, never waiting for all `3f+1`;
//! * [`collator`] — the per-connection voter object: request-id matching,
//!   discard-without-penalty, late-arrival fault flagging, and garbage
//!   collection;
//! * [`detector`] — signed-message fault proofs and Group-Manager-side
//!   proof validation (signatures, replay watermarks, unmarshal, re-vote);
//! * [`byte`] — the byte-by-byte baseline (Immune-style) that fails under
//!   heterogeneity, kept for experiment E6;
//! * [`adaptive`] — the §4 future-work adaptive voter (precision vs fault
//!   tolerance ladder), implemented as an extension for experiment E12.
//!
//! # Examples
//!
//! ```
//! use itdos_giop::types::Value;
//! use itdos_vote::collator::{Accept, Collator};
//! use itdos_vote::comparator::Comparator;
//! use itdos_vote::vote::{SenderId, Thresholds};
//!
//! // An f = 1 replicated sensor: replicas on different platforms return
//! // slightly different doubles; inexact voting unifies them.
//! let mut voter = Collator::new(Thresholds::new(1), 4, Comparator::InexactRel(1e-6));
//! voter.begin(1);
//! voter.offer(1, SenderId(0), Value::Double(20.000000));
//! voter.offer(1, SenderId(1), Value::Double(20.000001));
//! match voter.offer(1, SenderId(2), Value::Double(99.9)) {
//!     Accept::Decided(d) => assert_eq!(d.dissenters, vec![SenderId(2)]),
//!     other => panic!("expected decision, got {other:?}"),
//! }
//! ```

#![warn(missing_docs)]

pub mod adaptive;
pub mod byte;
pub mod collator;
pub mod comparator;
pub mod detector;
pub mod folding;
pub mod vote;

pub use collator::{Accept, Collator};
pub use comparator::Comparator;
pub use detector::{FaultProof, SignedReply, Verdict};
pub use vote::{Decision, SenderId, Thresholds};
