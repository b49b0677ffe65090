//! # itdos-bft — the Castro–Liskov PBFT library with ITDOS adaptations
//!
//! A from-scratch implementation of Practical Byzantine Fault Tolerance
//! \[7\]: the three-phase normal case (pre-prepare / prepare / commit),
//! MAC-authenticator authentication \[8\], checkpoints and watermarks, view
//! changes, state transfer, and the `f+1`-matching client protocol —
//! everything ITDOS uses as its "Secure Reliable Multicast" layer (§3.1).
//!
//! The ITDOS adaptation lives in [`queue`]: the replicated state machine
//! *is a message queue*, converting the request/response + state-transfer
//! model into a message-passing transport, with queue garbage collection
//! re-introducing virtual synchrony (laggards must be expelled for the
//! queue to make progress).
//!
//! Layers:
//!
//! * [`config`] / [`message`] / [`wire`] — identities, protocol messages,
//!   compact codec;
//! * [`auth`] — envelopes: MAC authenticators for the normal case, Schnorr
//!   signatures for view-change/checkpoint/state messages;
//! * [`log`] — per-(view, seq) certificates, watermarks, checkpoint votes;
//! * [`replica`] — the protocol state machine (pure logic, outputs drained
//!   by an adapter);
//! * [`client`] — waits for `f+1` matching replies;
//! * [`state`] — the replicated application trait;
//! * [`queue`] — the ITDOS message-queue state machine;
//! * [`window`] — the bounded by-key window behind the reply cache;
//! * [`node`] — simnet adapters and a turnkey [`node::build_group`].
//!
//! # Examples
//!
//! ```
//! use xbytes::Bytes;
//! use itdos_bft::config::{ClientId, GroupConfig};
//! use itdos_bft::node::{build_group, ClientNode};
//! use itdos_bft::state::CounterMachine;
//! use simnet::{GroupId, Simulator};
//!
//! let mut sim = Simulator::new(42);
//! let config = GroupConfig::for_f(1);
//! let (_, client, _) = build_group(
//!     &mut sim,
//!     &config,
//!     [1u8; 32],
//!     GroupId::from_raw(0),
//!     ClientId(1),
//! );
//! sim.inject(client, Bytes::from(CounterMachine::op(5)));
//! sim.run();
//! assert_eq!(
//!     sim.process_ref::<ClientNode>(client).results,
//!     vec![5i64.to_le_bytes().to_vec()]
//! );
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

pub mod auth;
pub mod client;
pub mod config;
pub mod log;
pub mod message;
pub mod node;
pub mod queue;
pub mod replica;
pub mod state;
pub mod window;
pub mod wire;

pub use config::{ClientId, GroupConfig, ReplicaId, SeqNo, View};
pub use message::Message;
pub use replica::{Fact, Output, Received, Replica, To};
pub use state::StateMachine;
