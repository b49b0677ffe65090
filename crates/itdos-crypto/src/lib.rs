//! # itdos-crypto — cryptographic toolkit for the ITDOS reproduction
//!
//! Everything ITDOS needs, implemented from scratch:
//!
//! * [`hash`] — SHA-256 (FIPS 180-4, tested against NIST vectors);
//! * [`hmac`] — HMAC-SHA256 (RFC 2104/4231);
//! * [`mac`] — PBFT-style MAC authenticator vectors;
//! * [`sign`] — Schnorr signatures (stand-in for the paper's RSA \[33\]),
//!   used for the signed-message fault proofs of §3.6;
//! * [`group`] / [`shamir`] / [`dleq`] / [`dprf`] — the §3.5 threshold key
//!   machinery: a verifiable distributed PRF (Naor–Pinkas–Reingold style)
//!   over a toy Schnorr group, with Feldman commitments and Chaum–Pedersen
//!   share-verification proofs;
//! * [`rngshare`] — the distributed commit–reveal coin that (re)initializes
//!   the Group Manager PRNGs, and the derived common-input sequence;
//! * [`symmetric`] — authenticated encryption for communication keys
//!   (stand-in for DES \[12\]): a ChaCha20 keystream (RFC 8439, tested
//!   against its vectors) keyed per message by HMAC, encrypt-then-MAC;
//! * [`keys`] — key-material newtypes (communication / pairwise / group).
//!
//! **Security caveat:** group parameters are 62 bits (a Montgomery product
//! fits a `u128`). The *protocols* are the real constructions; the *parameters*
//! are toys. Do not reuse outside simulation.
//!
//! # Examples
//!
//! Threshold generation of one communication key (the §3.5 flow):
//!
//! ```
//! use itdos_crypto::dprf::{combine, Dprf};
//! use xrand::rngs::SmallRng;
//! use xrand::SeedableRng;
//!
//! let mut rng = SmallRng::seed_from_u64(0xD9F);
//! // Group Manager domain with f = 1, n = 4 elements.
//! let dprf = Dprf::deal(1, 4, &mut rng);
//!
//! // Each element evaluates its share on the common input...
//! let x = b"connection-17";
//! let shares: Vec<_> = dprf.holders().iter().map(|h| h.evaluate(x)).collect();
//!
//! // ...and the client combines any f+1 verified shares into the key.
//! let key = combine(dprf.verifier(), x, &shares[1..3])?;
//! let same = combine(dprf.verifier(), x, &shares[2..4])?;
//! assert_eq!(key, same);
//! # Ok::<(), itdos_crypto::dprf::CombineError>(())
//! ```

#![warn(missing_docs)]

mod chacha20;
pub mod ct;
pub mod dleq;
pub mod dprf;
pub mod group;
pub mod hash;
pub mod hmac;
pub mod keys;
pub mod mac;
pub mod rngshare;
pub mod shamir;
pub mod sign;
pub mod symmetric;
mod wire;

pub use hash::Digest;
pub use keys::SymmetricKey;
pub use sign::{Signature, SigningKey, VerifyingKey};
