//! Verifiable distributed pseudo-random function (DPRF).
//!
//! This is the paper's §3.5 key-generation core: "Each Group Manager
//! replication domain element uses a common non-repeating value as an input
//! to a distributed (non-interactive) pseudo-random function \[26\] … The
//! non-interactive distributed function generates the key shares and
//! verification information for the secret key and each key share."
//!
//! Construction (Naor–Pinkas–Reingold, DDH-based):
//!
//! * a master secret `s` is `(f+1)`-of-`n` Shamir-shared into `s_1 … s_n`
//!   with Feldman commitments `g^{s_i}` published;
//! * on common input `x`, element `i` outputs the share evaluation
//!   `u_i = H(x)^{s_i}` plus a Chaum–Pedersen DLEQ proof that the exponent
//!   in `u_i` matches its commitment — this is the *verification
//!   information*;
//! * any `f+1` verified shares combine by Lagrange interpolation in the
//!   exponent to `H(x)^s`, from which the communication key is derived.
//!
//! Properties proved by the tests: every `(f+1)`-subset yields the same
//! key; ≤ `f` shares yield nothing; a corrupted share is detected by its
//! proof; corrupt elements cannot shift the combined key.

use xrand::Rng;

use crate::group::Element;
use crate::hash::Digest;
use crate::keys::SymmetricKey;
use crate::shamir::{self, Commitments, Share, ShareIndex};

/// One element's evaluated key share on a common input, with its
/// verification information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyShare {
    /// Which shareholder produced this.
    pub index: ShareIndex,
    /// `H(x)^{s_i}`.
    pub point: Element,
    /// DLEQ proof binding `point` to the public commitment `g^{s_i}`.
    pub proof: crate::dleq::DleqProof,
}

impl KeyShare {
    /// Serializes to bytes (index ‖ point ‖ proof).
    pub fn to_bytes(&self) -> [u8; 28] {
        let mut out = [0u8; 28];
        out[..4].copy_from_slice(&self.index.value().to_le_bytes());
        out[4..12].copy_from_slice(&self.point.to_bytes());
        out[12..].copy_from_slice(&self.proof.to_bytes());
        out
    }

    /// Deserializes from bytes.
    ///
    /// Returns `None` for a zero index (invalid by construction).
    pub fn from_bytes(bytes: [u8; 28]) -> Option<KeyShare> {
        let raw_index = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
        if raw_index == 0 {
            return None;
        }
        Some(KeyShare {
            index: ShareIndex::new(raw_index),
            point: Element::from_bytes(bytes[4..12].try_into().expect("8 bytes")),
            proof: crate::dleq::DleqProof::from_bytes(bytes[12..].try_into().expect("16 bytes")),
        })
    }
}

/// A shareholder's secret state: one Shamir share of the master secret.
#[derive(Debug, Clone)]
pub struct Shareholder {
    share: Share,
    commitments: Commitments,
}

impl Shareholder {
    /// This holder's index.
    pub fn index(&self) -> ShareIndex {
        self.share.index
    }

    /// Evaluates the DPRF share on common input `x`, producing the share
    /// point and its verification proof.
    pub fn evaluate(&self, x: &[u8]) -> KeyShare {
        let hx = Element::hash_to_group(x);
        let point = hx.pow(self.share.value);
        let proof = crate::dleq::DleqProof::prove(
            Element::generator(),
            Element::generator().pow(self.share.value),
            hx,
            point,
            self.share.value,
        );
        KeyShare {
            index: self.share.index,
            point,
            proof,
        }
    }

    /// Exposes the raw Shamir share — only for modeling *compromise* of
    /// this element in experiments (E7/E11).
    pub fn leak_share(&self) -> Share {
        self.share
    }

    /// The public commitments (every holder carries a copy).
    pub fn commitments(&self) -> &Commitments {
        &self.commitments
    }
}

/// A key share that passed [`Verifier::check`] for one input. It carries
/// that input's hash point, so shares checked for different inputs cannot
/// be combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifiedShare {
    share: KeyShare,
    input: Element,
}

/// The public verification state held by combiners (clients/servers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verifier {
    commitments: Commitments,
    /// Holder `i`'s Feldman point `g^{s_i}` at `[i − 1]`, computed from the
    /// commitments once, when dealt.
    share_points: Vec<Element>,
}

impl Verifier {
    /// Checks one key share for input `x`: its DLEQ proof against the
    /// holder's Feldman point. A share whose index names no holder is
    /// refused before any exponentiation.
    pub fn check(&self, x: &[u8], share: &KeyShare) -> Option<VerifiedShare> {
        // a ShareIndex is never zero
        let expected_pk = *self.share_points.get(share.index.value() as usize - 1)?;
        let input = Element::hash_to_group(x);
        share
            .proof
            .verify(Element::generator(), expected_pk, input, share.point)
            .then_some(VerifiedShare {
                share: *share,
                input,
            })
    }

    /// Whether [`Verifier::check`] accepts `share` for input `x`.
    pub fn verify(&self, x: &[u8], share: &KeyShare) -> bool {
        self.check(x, share).is_some()
    }

    /// Number of shares required to combine.
    pub fn threshold(&self) -> usize {
        self.commitments.threshold()
    }
}

/// Errors from key combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombineError {
    /// Fewer verified shares than the threshold.
    NotEnoughShares {
        /// Shares supplied.
        got: usize,
        /// Shares required.
        need: usize,
    },
    /// A share failed verification.
    BadShare(ShareIndex),
    /// Two shares carry the same index.
    DuplicateIndex(ShareIndex),
}

impl std::fmt::Display for CombineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CombineError::NotEnoughShares { got, need } => {
                write!(f, "not enough key shares: got {got}, need {need}")
            }
            CombineError::BadShare(i) => {
                write!(f, "key share {} failed verification", i.value())
            }
            CombineError::DuplicateIndex(i) => {
                write!(f, "duplicate key share index {}", i.value())
            }
        }
    }
}

impl std::error::Error for CombineError {}

/// A dealt DPRF instance: `n` shareholders with threshold `f+1`.
#[derive(Debug, Clone)]
pub struct Dprf {
    holders: Vec<Shareholder>,
    verifier: Verifier,
}

impl Dprf {
    /// Deals a fresh DPRF among `n` holders tolerating `f` corruptions
    /// (threshold `f+1`).
    ///
    /// In deployment the dealing is a configuration input (the paper: "ITDOS
    /// relies upon configuration inputs for its pseudo-random functions");
    /// the distributed re-initialization protocol lives in
    /// [`crate::rngshare`].
    ///
    /// # Panics
    ///
    /// Panics if `n < f + 1`.
    pub fn deal<R: Rng + ?Sized>(f: usize, n: usize, rng: &mut R) -> Dprf {
        assert!(n >= f + 1, "need at least f+1 holders");
        let secret = crate::group::Scalar::new(rng.gen());
        let (shares, commitments) = shamir::split(secret, f + 1, n, rng);
        let holders = shares
            .into_iter()
            .map(|share| Shareholder {
                share,
                commitments: commitments.clone(),
            })
            .collect();
        let share_points = (1..=n as u32)
            .map(|i| commitments.expected_share_point(ShareIndex::new(i)))
            .collect();
        Dprf {
            holders,
            verifier: Verifier {
                commitments,
                share_points,
            },
        }
    }

    /// The shareholders (moved out to the Group Manager elements).
    pub fn holders(&self) -> &[Shareholder] {
        &self.holders
    }

    /// Consumes the instance, returning holders and the public verifier.
    pub fn into_parts(self) -> (Vec<Shareholder>, Verifier) {
        (self.holders, self.verifier)
    }

    /// The public verifier distributed to clients and servers.
    pub fn verifier(&self) -> &Verifier {
        &self.verifier
    }
}

/// The first `threshold` shares, or how many are missing.
fn threshold_prefix<'a, T>(verifier: &Verifier, shares: &'a [T]) -> Result<&'a [T], CombineError> {
    let need = verifier.threshold();
    shares.get(..need).ok_or(CombineError::NotEnoughShares {
        got: shares.len(),
        need,
    })
}

/// Verifies and combines key shares for input `x` into the communication
/// key. Exactly the client/server side of connection establishment step
/// 2–3 (§3.5): check each share, then [`combine_checked`].
///
/// # Errors
///
/// Fails if shares are too few, duplicated, or any fails verification.
pub fn combine(
    verifier: &Verifier,
    x: &[u8],
    shares: &[KeyShare],
) -> Result<SymmetricKey, CombineError> {
    let checked = threshold_prefix(verifier, shares)?
        .iter()
        .map(|s| verifier.check(x, s).ok_or(CombineError::BadShare(s.index)))
        .collect::<Result<Vec<_>, _>>()?;
    combine_checked(verifier, x, &checked)
}

/// Combines already-checked shares for input `x` without verifying them
/// again.
///
/// # Errors
///
/// Fails if shares are too few or duplicated, or if one was checked for a
/// different input ([`CombineError::BadShare`]).
pub fn combine_checked(
    verifier: &Verifier,
    x: &[u8],
    shares: &[VerifiedShare],
) -> Result<SymmetricKey, CombineError> {
    let shares = threshold_prefix(verifier, shares)?;
    let input = Element::hash_to_group(x);
    for (k, s) in shares.iter().enumerate() {
        let index = s.share.index;
        if shares[..k].iter().any(|t| t.share.index == index) {
            return Err(CombineError::DuplicateIndex(index));
        }
        if s.input != input {
            return Err(CombineError::BadShare(index));
        }
    }
    // Lagrange interpolation in the exponent at x = 0.
    let pseudo_shares: Vec<Share> = shares
        .iter()
        .map(|s| Share {
            index: s.share.index,
            value: crate::group::Scalar::ZERO, // value unused; indices drive lambdas
        })
        .collect();
    let lambdas = shamir::lagrange_at_zero(&pseudo_shares).expect("validated above");
    let mut acc = Element::IDENTITY;
    for (s, lambda) in shares.iter().zip(lambdas) {
        acc = acc.mul(s.share.point.pow(lambda));
    }
    Ok(derive_key(x, acc))
}

/// Derives the final symmetric key from the combined group element.
fn derive_key(x: &[u8], point: Element) -> SymmetricKey {
    let d = Digest::of_parts(&[b"itdos-dprf-kdf", x, &point.to_bytes()]);
    SymmetricKey::from_digest(d)
}

/// Direct master evaluation (test oracle): what the key *should* be.
pub fn evaluate_master(holders: &[Shareholder], x: &[u8]) -> Option<SymmetricKey> {
    // Reconstruct the master secret from the first `threshold` raw shares.
    let threshold = holders.first()?.commitments.threshold();
    if holders.len() < threshold {
        return None;
    }
    let raw: Vec<Share> = holders[..threshold].iter().map(|h| h.share).collect();
    let s = shamir::combine(&raw).ok()?;
    let point = Element::hash_to_group(x).pow(s);
    Some(derive_key(x, point))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrand::rngs::SmallRng;
    use xrand::SeedableRng;

    fn dprf(f: usize, n: usize) -> Dprf {
        Dprf::deal(f, n, &mut SmallRng::seed_from_u64(7))
    }

    #[test]
    fn any_f_plus_1_subset_gives_same_key() {
        let d = dprf(1, 4);
        let x = b"conn-42";
        let shares: Vec<KeyShare> = d.holders().iter().map(|h| h.evaluate(x)).collect();
        let expected = evaluate_master(d.holders(), x).unwrap();
        for a in 0..4 {
            for b in (a + 1)..4 {
                let key = combine(d.verifier(), x, &[shares[a], shares[b]]).unwrap();
                assert_eq!(key, expected, "subset ({a},{b})");
            }
        }
    }

    #[test]
    fn different_inputs_give_different_keys() {
        let d = dprf(1, 4);
        let k1 = combine(
            d.verifier(),
            b"x1",
            &d.holders()[..2]
                .iter()
                .map(|h| h.evaluate(b"x1"))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let k2 = combine(
            d.verifier(),
            b"x2",
            &d.holders()[..2]
                .iter()
                .map(|h| h.evaluate(b"x2"))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert_ne!(k1, k2);
    }

    #[test]
    fn too_few_shares_rejected() {
        let d = dprf(2, 7);
        let x = b"conn";
        let shares: Vec<KeyShare> = d.holders()[..2].iter().map(|h| h.evaluate(x)).collect();
        assert_eq!(
            combine(d.verifier(), x, &shares),
            Err(CombineError::NotEnoughShares { got: 2, need: 3 })
        );
    }

    #[test]
    fn corrupted_share_detected() {
        let d = dprf(1, 4);
        let x = b"conn";
        let mut shares: Vec<KeyShare> = d.holders().iter().map(|h| h.evaluate(x)).collect();
        // element 0 is corrupt: sends a share for a different exponent
        shares[0].point = Element::hash_to_group(x).pow(crate::group::Scalar::new(666));
        let err = combine(d.verifier(), x, &shares[..2]).unwrap_err();
        assert_eq!(err, CombineError::BadShare(shares[0].index));
    }

    #[test]
    fn corrupt_share_with_forged_proof_detected() {
        let d = dprf(1, 4);
        let x = b"conn";
        // corrupt holder knows some *other* secret and makes a valid-looking
        // DLEQ for it — but the verifier checks against the published
        // commitment, so it cannot pass.
        let fake_secret = crate::group::Scalar::new(31337);
        let hx = Element::hash_to_group(x);
        let forged = KeyShare {
            index: ShareIndex::new(1),
            point: hx.pow(fake_secret),
            proof: crate::dleq::DleqProof::prove(
                Element::generator(),
                Element::generator().pow(fake_secret),
                hx,
                hx.pow(fake_secret),
                fake_secret,
            ),
        };
        assert!(!d.verifier().verify(x, &forged));
    }

    #[test]
    fn duplicate_share_rejected() {
        let d = dprf(1, 4);
        let x = b"conn";
        let s = d.holders()[0].evaluate(x);
        assert_eq!(
            combine(d.verifier(), x, &[s, s]),
            Err(CombineError::DuplicateIndex(s.index))
        );
    }

    #[test]
    fn f_corrupt_elements_cannot_shift_key() {
        // With f=1, one corrupt element colluding contributes one bad share;
        // the combiner rejects it, and any 2 honest shares still produce the
        // master key.
        let d = dprf(1, 4);
        let x = b"conn";
        let honest: Vec<KeyShare> = d.holders()[1..3].iter().map(|h| h.evaluate(x)).collect();
        let key = combine(d.verifier(), x, &honest).unwrap();
        assert_eq!(key, evaluate_master(d.holders(), x).unwrap());
    }

    #[test]
    fn checked_shares_combine_to_the_same_key() {
        let d = dprf(1, 4);
        let x = b"conn";
        let shares: Vec<KeyShare> = d.holders().iter().map(|h| h.evaluate(x)).collect();
        let checked: Vec<VerifiedShare> = shares
            .iter()
            .map(|s| d.verifier().check(x, s).unwrap())
            .collect();
        let expected = combine(d.verifier(), x, &shares[2..]).unwrap();
        assert_eq!(
            combine_checked(d.verifier(), x, &checked[2..]),
            Ok(expected)
        );
        assert_eq!(
            combine_checked(d.verifier(), x, &[checked[0], checked[0]]),
            Err(CombineError::DuplicateIndex(shares[0].index))
        );
    }

    #[test]
    fn shares_checked_for_another_input_do_not_combine() {
        let d = dprf(1, 4);
        let a = d.verifier().check(b"x1", &d.holders()[0].evaluate(b"x1"));
        let b = d.verifier().check(b"x2", &d.holders()[1].evaluate(b"x2"));
        assert_eq!(
            combine_checked(d.verifier(), b"x1", &[a.unwrap(), b.unwrap()]),
            Err(CombineError::BadShare(ShareIndex::new(2)))
        );
    }

    #[test]
    fn share_from_no_holder_refused_before_any_exponentiation() {
        let d = dprf(1, 4);
        let mut share = d.holders()[3].evaluate(b"x");
        share.index = ShareIndex::new(5);
        let before = crate::group::mont_muls();
        assert_eq!(d.verifier().check(b"x", &share), None);
        assert_eq!(crate::group::mont_muls(), before);
    }

    /// Counted, not timed: one share check is a table power of `g` and
    /// three windowed powers (the parent's method spent ≈ 1 200
    /// Montgomery-sized products); combining checked shares is only the
    /// `f + 1` Lagrange powers — no DLEQ verification again.
    #[test]
    fn each_share_is_checked_once() {
        let d = dprf(1, 4);
        let x = b"conn";
        let shares: Vec<KeyShare> = d.holders()[..2].iter().map(|h| h.evaluate(x)).collect();
        let before = crate::group::mont_muls();
        let first = d.verifier().check(x, &shares[0]).unwrap();
        let one_check = crate::group::mont_muls() - before;
        let second = d.verifier().check(x, &shares[1]).unwrap();
        let before = crate::group::mont_muls();
        combine_checked(d.verifier(), x, &[first, second]).unwrap();
        let combined = crate::group::mont_muls() - before;
        assert!(one_check <= 400, "{one_check} products per share check");
        assert!(
            combined <= 2 * 92,
            "{combined} products to combine 2 shares"
        );
        assert!(combined < one_check, "combine_checked verified again");
    }

    #[test]
    fn share_bytes_round_trip() {
        let d = dprf(1, 4);
        let s = d.holders()[2].evaluate(b"x");
        assert_eq!(KeyShare::from_bytes(s.to_bytes()), Some(s));
        let mut zero = s.to_bytes();
        zero[..4].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(KeyShare::from_bytes(zero), None);
    }

    #[test]
    fn evaluate_is_deterministic() {
        let d = dprf(1, 4);
        assert_eq!(d.holders()[0].evaluate(b"x"), d.holders()[0].evaluate(b"x"));
    }

    #[test]
    #[should_panic(expected = "need at least f+1")]
    fn dealing_requires_enough_holders() {
        Dprf::deal(3, 3, &mut SmallRng::seed_from_u64(0));
    }
}
