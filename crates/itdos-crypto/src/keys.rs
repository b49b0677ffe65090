//! Key material newtypes.

use crate::hash::{Digest, Sha256};

/// A 256-bit symmetric key.
///
/// Newtyped so communication keys, pairwise keys, and group keys cannot be
/// interchanged silently (the paper distinguishes all three in §3.5's
/// footnote: pairwise GM↔element keys, a per-domain group key, and the
/// per-association communication key).
///
/// Its `==` is [`ct_eq`](crate::ct::ct_eq), and so is that of every newtype
/// below, whose derived `==` compares the key inside.
#[derive(Debug, Clone, Copy)]
pub struct SymmetricKey([u8; 32]);

impl PartialEq for SymmetricKey {
    fn eq(&self, other: &SymmetricKey) -> bool {
        crate::ct::ct_eq(&self.0, &other.0)
    }
}

impl Eq for SymmetricKey {}

impl SymmetricKey {
    /// Builds a key from raw bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> SymmetricKey {
        SymmetricKey(bytes)
    }

    /// Builds a key from a digest.
    pub fn from_digest(digest: Digest) -> SymmetricKey {
        SymmetricKey(digest.0)
    }

    /// Derives a key from a seed and a domain-separation label.
    pub fn derive(seed: &[u8], label: &[u8]) -> SymmetricKey {
        SymmetricKey::derive_parts(seed, &[label])
    }

    /// [`SymmetricKey::derive`] with the label given as parts, hashed where
    /// they lie.
    pub fn derive_parts(seed: &[u8], label: &[&[u8]]) -> SymmetricKey {
        let mut h = Sha256::new();
        h.update(b"itdos-key");
        label.iter().for_each(|part| h.update(part));
        h.update(seed);
        SymmetricKey(h.finish().0)
    }

    /// The raw key bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

/// The per-association communication key (client domain ↔ server domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommunicationKey(pub SymmetricKey);

/// The pairwise key shared between one Group Manager element and one
/// replication domain element (protects key-share distribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairwiseKey(pub SymmetricKey);

/// The key one Group Manager element shares with all elements of a
/// replication domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupKey(pub SymmetricKey);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_label_separated() {
        let a = SymmetricKey::derive(b"seed", b"l1");
        let b = SymmetricKey::derive(b"seed", b"l1");
        let c = SymmetricKey::derive(b"seed", b"l2");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn round_trips_bytes() {
        let k = SymmetricKey::from_bytes([7u8; 32]);
        assert_eq!(k.as_bytes(), &[7u8; 32]);
    }

    #[test]
    fn digest_conversion_preserves_bytes() {
        let d = Digest::of(b"x");
        assert_eq!(SymmetricKey::from_digest(d).as_bytes(), d.as_bytes());
    }
}
