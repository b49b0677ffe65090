//! Chaum–Pedersen discrete-log-equality (DLEQ) proofs.
//!
//! Used as the *verification information* the paper attaches to each DPRF
//! key share (§3.5): a Group Manager element proves non-interactively that
//! its share evaluation `u = base2^{s_i}` uses the same exponent as its
//! public Feldman point `v = base1^{s_i}`, without revealing `s_i`. Clients
//! and servers verify every received share, so up to `f` corrupt Group
//! Manager elements "cannot tamper with or obtain the communication key".

use crate::group::{Element, Scalar};
use crate::hash::Digest;

/// A non-interactive DLEQ proof: knowledge of `x` with `y1 = base1^x` and
/// `y2 = base2^x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DleqProof {
    challenge: Scalar,
    response: Scalar,
}

impl DleqProof {
    /// Proves `y1 = base1^secret` and `y2 = base2^secret`.
    ///
    /// The commitment nonce is derived deterministically (Fiat–Shamir with
    /// derandomized nonce), keeping replica execution deterministic.
    pub fn prove(
        base1: Element,
        y1: Element,
        base2: Element,
        y2: Element,
        secret: Scalar,
    ) -> DleqProof {
        let k_digest = Digest::of_parts(&[
            b"itdos-dleq-nonce",
            &secret.to_bytes(),
            &base1.to_bytes(),
            &base2.to_bytes(),
            &y1.to_bytes(),
            &y2.to_bytes(),
        ]);
        let mut k = Scalar::from_digest(&k_digest);
        if k == Scalar::ZERO {
            k = Scalar::ONE;
        }
        let a1 = base1.pow(k);
        let a2 = base2.pow(k);
        let challenge = Self::challenge(base1, y1, base2, y2, a1, a2);
        DleqProof {
            challenge,
            response: k + challenge * secret,
        }
    }

    /// Verifies the proof against the four public points.
    pub fn verify(&self, base1: Element, y1: Element, base2: Element, y2: Element) -> bool {
        if !(y1.is_valid() && y2.is_valid() && base1.is_valid() && base2.is_valid()) {
            return false;
        }
        // a1' = base1^s · y1^{-e};  a2' = base2^s · y2^{-e}, where the
        // valid y1, y2 have order q, so y^{-e} needs no inverse
        let a1 = base1.pow(self.response) * y1.pow(-self.challenge);
        let a2 = base2.pow(self.response) * y2.pow(-self.challenge);
        Self::challenge(base1, y1, base2, y2, a1, a2) == self.challenge
    }

    fn challenge(
        base1: Element,
        y1: Element,
        base2: Element,
        y2: Element,
        a1: Element,
        a2: Element,
    ) -> Scalar {
        let d = Digest::of_parts(&[
            b"itdos-dleq-chal",
            &base1.to_bytes(),
            &y1.to_bytes(),
            &base2.to_bytes(),
            &y2.to_bytes(),
            &a1.to_bytes(),
            &a2.to_bytes(),
        ]);
        Scalar::from_digest(&d)
    }

    /// Serializes to 16 bytes.
    pub fn to_bytes(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.challenge.to_bytes());
        out[8..].copy_from_slice(&self.response.to_bytes());
        out
    }

    /// Deserializes from 16 bytes.
    pub fn from_bytes(bytes: [u8; 16]) -> DleqProof {
        DleqProof {
            challenge: Scalar::from_bytes(bytes[..8].try_into().expect("8 bytes")),
            response: Scalar::from_bytes(bytes[8..].try_into().expect("8 bytes")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(secret: u64) -> (Element, Element, Element, Element, Scalar) {
        let s = Scalar::new(secret);
        let base1 = Element::generator();
        let base2 = Element::hash_to_group(b"x-value");
        (base1, base1.pow(s), base2, base2.pow(s), s)
    }

    #[test]
    fn honest_proof_verifies() {
        let (b1, y1, b2, y2, s) = setup(12345);
        let proof = DleqProof::prove(b1, y1, b2, y2, s);
        assert!(proof.verify(b1, y1, b2, y2));
    }

    #[test]
    fn mismatched_exponents_rejected() {
        let (b1, y1, b2, _, s) = setup(12345);
        let wrong_y2 = b2.pow(Scalar::new(54321));
        let proof = DleqProof::prove(b1, y1, b2, wrong_y2, s);
        assert!(
            !proof.verify(b1, y1, b2, wrong_y2),
            "prover lied about y2; proof must fail"
        );
    }

    #[test]
    fn tampered_proof_rejected() {
        let (b1, y1, b2, y2, s) = setup(7);
        let proof = DleqProof::prove(b1, y1, b2, y2, s);
        let bad = DleqProof {
            challenge: proof.challenge + Scalar::ONE,
            response: proof.response,
        };
        assert!(!bad.verify(b1, y1, b2, y2));
    }

    #[test]
    fn swapped_points_rejected() {
        let (b1, y1, b2, y2, s) = setup(7);
        let proof = DleqProof::prove(b1, y1, b2, y2, s);
        assert!(!proof.verify(b1, y2, b2, y1));
    }

    #[test]
    fn proof_bound_to_bases() {
        let (b1, y1, b2, y2, s) = setup(7);
        let proof = DleqProof::prove(b1, y1, b2, y2, s);
        let other_base = Element::hash_to_group(b"other");
        assert!(!proof.verify(b1, y1, other_base, y2));
    }

    /// Negating the challenge is the inverse the old verifier computed:
    /// `y^{-e} = (y^e)^{-1}` for every subgroup element.
    #[test]
    fn negated_exponent_is_the_inverse() {
        let (_, y1, _, y2, _) = setup(4242);
        for (y, e) in [(y1, Scalar::new(17)), (y2, Scalar::new(u64::MAX))] {
            assert_eq!(y.pow(-e), y.pow(e).inverse());
        }
    }

    #[test]
    fn bytes_round_trip() {
        let (b1, y1, b2, y2, s) = setup(99);
        let proof = DleqProof::prove(b1, y1, b2, y2, s);
        assert_eq!(DleqProof::from_bytes(proof.to_bytes()), proof);
    }

    #[test]
    fn invalid_points_rejected_without_panic() {
        let (b1, y1, b2, y2, s) = setup(5);
        let proof = DleqProof::prove(b1, y1, b2, y2, s);
        let junk = Element::from_bytes(5u64.to_le_bytes());
        assert!(!proof.verify(b1, junk, b2, y2));
    }
}
