//! # itdos-groupmgr — the Group Manager replication domain
//!
//! "The Group Manager handles replication domain membership and virtual
//! connection management in ITDOS" (§2). It is not a CORBA server — it
//! lives in the middleware transport — and is itself replicated for
//! intrusion tolerance. This crate implements its deterministic state
//! machine and keying machinery:
//!
//! * [`membership`] — domain/element registry with expulsion;
//! * [`manager`] — connection establishment (Figure 3), `change_request`
//!   validation (signed-message proofs from singletons via the marshalling
//!   engine; `f+1` concurring votes from domains), and rekey-based
//!   expulsion;
//! * [`keying`] — threshold (DPRF) key generation beside the traditional
//!   whole-key baseline, with the E7 exposure analysis.
//!
//! # Examples
//!
//! ```
//! use itdos_crypto::sign::SigningKey;
//! use itdos_groupmgr::manager::GroupManager;
//! use itdos_groupmgr::membership::{
//!     DomainId, DomainRecord, ElementRecord, Endpoint, Membership,
//! };
//! use itdos_vote::vote::SenderId;
//!
//! let mut membership = Membership::new();
//! membership.register_domain(DomainRecord::new(
//!     DomainId(1),
//!     1,
//!     (0..4)
//!         .map(|i| ElementRecord {
//!             id: SenderId(i),
//!             verifying_key: SigningKey::from_seed(&i.to_le_bytes()).verifying_key(),
//!         })
//!         .collect(),
//! ));
//! membership.register_singleton(9, SigningKey::from_seed(b"client").verifying_key());
//!
//! let mut gm = GroupManager::new(membership, [7u8; 32]);
//! let dist = gm.open_request(Endpoint::Singleton(9), None, DomainId(1))?;
//! assert_eq!(dist.recipients.len(), 5); // 4 server elements + the client
//! # Ok::<(), itdos_groupmgr::manager::OpenError>(())
//! ```

#![warn(missing_docs)]
// L3 panic-freedom: hostile input surfaces as a typed error or a drop,
// never as a panic (DESIGN.md §8)
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]
// L5 hostile arithmetic: a decoded length never wraps or truncates
#![cfg_attr(
    not(test),
    deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation)
)]

pub mod keying;
pub mod manager;
pub mod membership;

pub use keying::{ThresholdKeying, TraditionalKeying};
pub use manager::{ConnectionId, GroupManager, KeyDistribution};
pub use membership::{DomainId, DomainRecord, ElementRecord, Endpoint, Membership};
