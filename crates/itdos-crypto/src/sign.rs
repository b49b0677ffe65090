//! Schnorr signatures over the toy group.
//!
//! Stands in for the paper's RSA signatures \[33\]: ITDOS signs every message
//! so that receivers can assemble *proofs* of faulty values for the Group
//! Manager (§3.6). The nonce is derived deterministically from the secret
//! key and message (RFC 6979 style) so signing needs no RNG — important for
//! the deterministic replica execution model.
//!
//! The message is pre-hashed: `m = SHA-256(message)` is computed once and
//! both the nonce derivation and the Fiat–Shamir challenge take `m`, so
//! signing a large frame is one pass over its bytes, as is verifying it.

use crate::group::{Element, Scalar};
use crate::hash::{Digest, Sha256};

/// A signing (secret) key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SigningKey {
    secret: Scalar,
}

/// A verifying (public) key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VerifyingKey {
    point: Element,
}

/// A Schnorr signature `(challenge, response)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Fiat–Shamir challenge `e = H(R || pk || H(m))`.
    pub challenge: Scalar,
    /// Response `s = k + e·x`.
    pub response: Scalar,
}

impl Signature {
    /// Serializes to 16 bytes.
    pub fn to_bytes(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.challenge.to_bytes());
        out[8..].copy_from_slice(&self.response.to_bytes());
        out
    }

    /// Deserializes from 16 bytes.
    pub fn from_bytes(bytes: [u8; 16]) -> Signature {
        Signature {
            challenge: Scalar::from_bytes(bytes[..8].try_into().expect("8 bytes")),
            response: Scalar::from_bytes(bytes[8..].try_into().expect("8 bytes")),
        }
    }
}

impl SigningKey {
    /// Derives a key pair from seed bytes (deterministic: the simulation
    /// provisions keys from its master seed).
    pub fn from_seed(seed: &[u8]) -> SigningKey {
        SigningKey::from_seed_parts(&[seed])
    }

    /// [`SigningKey::from_seed`] over the concatenation of `seed`'s parts.
    pub fn from_seed_parts(seed: &[&[u8]]) -> SigningKey {
        let mut h = Sha256::new();
        h.update(b"itdos-sign-key");
        seed.iter().for_each(|part| h.update(part));
        let d = h.finish();
        let mut secret = Scalar::from_digest(&d);
        if secret == Scalar::ZERO {
            secret = Scalar::ONE;
        }
        SigningKey { secret }
    }

    /// Returns the matching public key.
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey {
            point: Element::generator().pow(self.secret),
        }
    }

    /// Signs `message`.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.sign_parts(&[message])
    }

    /// Signs the concatenation of `message`'s parts without building it.
    pub fn sign_parts(&self, message: &[&[u8]]) -> Signature {
        let m = Digest::of_parts(message);
        let k_digest = Digest::of_parts(&[b"itdos-nonce", &self.secret.to_bytes(), m.as_bytes()]);
        let mut k = Scalar::from_digest(&k_digest);
        if k == Scalar::ZERO {
            k = Scalar::ONE;
        }
        let r = Element::generator().pow(k);
        let e = challenge(&r, &self.verifying_key(), &m);
        let s = k + e * self.secret;
        Signature {
            challenge: e,
            response: s,
        }
    }
}

impl VerifyingKey {
    /// Verifies `signature` over `message`.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        self.verify_parts(&[message], signature)
    }

    /// Verifies `signature` over the concatenation of `message`'s parts.
    pub fn verify_parts(&self, message: &[&[u8]], signature: &Signature) -> bool {
        if !self.point.is_valid() {
            return false;
        }
        // R' = g^s · y^{-e}; y passed is_valid, so it has order q and
        // y^{-e} is one exponentiation, not a power and an inverse
        let r = Element::generator().pow(signature.response) * self.point.pow(-signature.challenge);
        let m = Digest::of_parts(message);
        challenge(&r, self, &m) == signature.challenge
    }

    /// Serializes to 8 bytes.
    pub fn to_bytes(&self) -> [u8; 8] {
        self.point.to_bytes()
    }

    /// Deserializes; verification rejects invalid points later.
    pub fn from_bytes(bytes: [u8; 8]) -> VerifyingKey {
        VerifyingKey {
            point: Element::from_bytes(bytes),
        }
    }
}

/// The challenge over the commitment, the public key and the message's
/// pre-hash `m`.
fn challenge(r: &Element, pk: &VerifyingKey, m: &Digest) -> Scalar {
    let d = Digest::of_parts(&[
        b"itdos-sig-chal",
        &r.to_bytes(),
        &pk.point.to_bytes(),
        m.as_bytes(),
    ]);
    Scalar::from_digest(&d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let sk = SigningKey::from_seed(b"replica-0");
        let pk = sk.verifying_key();
        let sig = sk.sign(b"hello");
        assert!(pk.verify(b"hello", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let sk = SigningKey::from_seed(b"replica-0");
        let sig = sk.sign(b"hello");
        assert!(!sk.verifying_key().verify(b"hellO", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let sk1 = SigningKey::from_seed(b"a");
        let sk2 = SigningKey::from_seed(b"b");
        let sig = sk1.sign(b"m");
        assert!(!sk2.verifying_key().verify(b"m", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let sk = SigningKey::from_seed(b"a");
        let sig = sk.sign(b"m");
        let tampered = Signature {
            challenge: sig.challenge + Scalar::ONE,
            response: sig.response,
        };
        assert!(!sk.verifying_key().verify(b"m", &tampered));
        let tampered = Signature {
            challenge: sig.challenge,
            response: sig.response + Scalar::ONE,
        };
        assert!(!sk.verifying_key().verify(b"m", &tampered));
    }

    /// "Once" by construction: signing 16 KiB is one pre-hash pass (257
    /// compressions) plus two short hashes — not a nonce pass and a
    /// challenge pass (≈ 520).
    #[test]
    fn sign_hashes_the_message_once() {
        let sk = SigningKey::from_seed(b"a");
        let message = vec![3u8; 16_384];
        let before = crate::hash::compressions();
        let sig = sk.sign(&message);
        let spent = crate::hash::compressions() - before;
        assert!(sk.verifying_key().verify(&message, &sig));
        assert!(spent <= 270, "{spent} compressions");
    }

    /// Counted, not timed: signing is two table powers of `g` (the nonce
    /// commitment and the public key), verifying one table power and one
    /// windowed `y^{-e}`. Square-and-multiply spent ≈ 186 and ≈ 370
    /// Montgomery-sized products.
    #[test]
    fn group_work_is_bounded() {
        let sk = SigningKey::from_seed(b"a");
        let pk = sk.verifying_key();
        let before = crate::group::mont_muls();
        let sig = sk.sign(b"m");
        let signed = crate::group::mont_muls() - before;
        assert!(pk.verify(b"m", &sig));
        let verified = crate::group::mont_muls() - before - signed;
        assert!(signed <= 50, "{signed} products to sign");
        assert!(verified <= 150, "{verified} products to verify");
    }

    #[test]
    fn signing_is_deterministic() {
        let sk = SigningKey::from_seed(b"a");
        assert_eq!(sk.sign(b"m"), sk.sign(b"m"));
        assert_ne!(sk.sign(b"m"), sk.sign(b"n"));
    }

    #[test]
    fn signature_bytes_round_trip() {
        let sig = SigningKey::from_seed(b"a").sign(b"m");
        assert_eq!(Signature::from_bytes(sig.to_bytes()), sig);
        let pk = SigningKey::from_seed(b"a").verifying_key();
        assert_eq!(VerifyingKey::from_bytes(pk.to_bytes()), pk);
    }

    #[test]
    fn invalid_public_key_never_verifies() {
        let pk = VerifyingKey::from_bytes(5u64.to_le_bytes());
        let sig = SigningKey::from_seed(b"a").sign(b"m");
        // 5 is (very likely) not in the subgroup; verify must not panic
        let _ = pk.verify(b"m", &sig);
    }

    #[test]
    fn distinct_seeds_give_distinct_keys() {
        let a = SigningKey::from_seed(b"x").verifying_key();
        let b = SigningKey::from_seed(b"y").verifying_key();
        assert_ne!(a, b);
    }
}
