//! PBFT-style MAC authenticators.
//!
//! Castro–Liskov replaces most digital signatures with *authenticators*: a
//! vector of per-receiver MACs, one for each replica \[8\]. A replica
//! verifies the entry computed under its pairwise key with the sender.
//! This is what makes PBFT's normal case cheap; ITDOS inherits it for all
//! intra-domain protocol traffic.
//!
//! As in Castro–Liskov, the MACs are over the message *digest*: the
//! message is hashed once, and entry `i` is the truncated
//! `HMAC(keys[i], SHA-256(message))`. A sender pays one pass over the
//! payload however many receivers it addresses, and each further tag is a
//! fixed handful of compressions. A caller that already holds the digest —
//! a replica that hashed a request body for the protocol — passes it in
//! ([`Authenticator::for_digest`], [`Authenticator::verify_digest`]) and
//! pays no pass at all.

use xbytes::wire::Writer;
use xbytes::Bytes;

use crate::hash::Digest;
use crate::hmac::hmac;
use crate::keys::SymmetricKey;

/// Compact 8-byte MAC entry (PBFT truncates MACs similarly). Its `==` is
/// [`ct_eq`](crate::ct::ct_eq).
#[derive(Debug, Clone, Copy)]
pub struct MacTag(pub [u8; 8]);

impl PartialEq for MacTag {
    fn eq(&self, other: &MacTag) -> bool {
        crate::ct::ct_eq(&self.0, &other.0)
    }
}

impl Eq for MacTag {}

impl MacTag {
    fn compute(key: &SymmetricKey, message_digest: &Digest) -> MacTag {
        let d = hmac(key.as_bytes(), message_digest.as_bytes());
        MacTag(d.0[..8].try_into().expect("8 bytes"))
    }
}

/// An authenticator: one [`MacTag`] per receiver, indexed by replica id.
///
/// # Examples
///
/// ```
/// use itdos_crypto::keys::SymmetricKey;
/// use itdos_crypto::mac::Authenticator;
///
/// let keys: Vec<SymmetricKey> = (0..4)
///     .map(|i| SymmetricKey::derive(&[i as u8], b"pair"))
///     .collect();
/// let auth = Authenticator::generate(&keys, b"pre-prepare");
/// assert!(auth.verify(2, &keys[2], b"pre-prepare"));
/// assert!(!auth.verify(2, &keys[2], b"tampered"));
/// ```
///
/// Its `==` compares every tag with [`ct_eq`](crate::ct::ct_eq).
#[derive(Debug, Clone)]
pub struct Authenticator {
    /// The entries, 8 bytes each: a slice of the received frame when
    /// decoded with `decode_shared`, so receiving one allocates nothing.
    tags: Bytes,
}

impl PartialEq for Authenticator {
    fn eq(&self, other: &Authenticator) -> bool {
        crate::ct::ct_eq(&self.tags, &other.tags)
    }
}

impl Eq for Authenticator {}

impl Authenticator {
    /// Generates an authenticator over `message` for receivers whose
    /// pairwise keys are `keys[i]`. The message is hashed once; every
    /// entry MACs that digest.
    pub fn generate(keys: &[SymmetricKey], message: &[u8]) -> Authenticator {
        Authenticator::for_digest(keys.iter().copied(), &Digest::of(message))
    }

    /// An authenticator over a message whose digest is `digest`, for
    /// receivers whose keys are derived as they are used.
    pub fn for_digest(keys: impl Iterator<Item = SymmetricKey>, digest: &Digest) -> Authenticator {
        Authenticator {
            tags: keys.flat_map(|k| MacTag::compute(&k, digest).0).collect(),
        }
    }

    /// Writes [`Authenticator::for_digest`]'s wire form into `w`, each tag
    /// where it goes: no authenticator is built on the way.
    pub fn put_for_digest(
        w: &mut Writer,
        keys: impl ExactSizeIterator<Item = SymmetricKey>,
        digest: &Digest,
    ) {
        w.framed(|w| {
            w.count(keys.len());
            for key in keys {
                w.raw(&MacTag::compute(&key, digest).0);
            }
        });
    }

    /// Verifies the entry for receiver `index` with the pairwise `key`.
    ///
    /// Returns false for out-of-range indices (a Byzantine sender may send
    /// a short authenticator).
    pub fn verify(&self, index: usize, key: &SymmetricKey, message: &[u8]) -> bool {
        index < self.len() && self.verify_digest(index, key, &Digest::of(message))
    }

    /// [`Authenticator::verify`] for a message whose digest is `digest`.
    /// The tag comparison is constant-time: an early-exit `==` would let a
    /// sender measure how long a forged prefix survived.
    pub fn verify_digest(&self, index: usize, key: &SymmetricKey, digest: &Digest) -> bool {
        (self.tags.chunks_exact(8).nth(index))
            .is_some_and(|tag| crate::ct::ct_eq(tag, &MacTag::compute(key, digest).0))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.tags.len() / 8
    }

    /// True when the authenticator carries no entries.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Serializes to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(4 + self.tags.len());
        self.put_bytes(&mut w);
        w.finish()
    }

    /// Appends the serialized form ([`Authenticator::to_bytes`]) in place.
    pub(crate) fn put_bytes(&self, w: &mut Writer) {
        w.count(self.len()).raw(&self.tags);
    }

    /// Parses the serialized form. Returns the authenticator and bytes
    /// consumed, or `None` on truncation.
    pub fn from_bytes(bytes: &[u8]) -> Option<(Authenticator, usize)> {
        let used = serialized_len(bytes)?;
        let tags = Bytes::copy_from_slice(bytes.get(4..used)?);
        Some((Authenticator { tags }, used))
    }

    /// Parses a serialized form that fills `raw` exactly, keeping the
    /// entries as a slice of it.
    pub(crate) fn from_shared(raw: &Bytes) -> Option<Authenticator> {
        (serialized_len(raw)? == raw.len()).then(|| Authenticator {
            tags: raw.slice(4..),
        })
    }
}

/// The length of the serialized authenticator at the front of `bytes` (a
/// count, then 8 bytes per entry), or `None` when `bytes` is shorter.
fn serialized_len(bytes: &[u8]) -> Option<usize> {
    let count = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?);
    let used = (count as usize).checked_mul(8)?.checked_add(4)?;
    (bytes.len() >= used).then_some(used)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<SymmetricKey> {
        (0..n)
            .map(|i| SymmetricKey::derive(&[i as u8], b"pairwise"))
            .collect()
    }

    #[test]
    fn each_receiver_verifies_own_entry() {
        let ks = keys(4);
        let auth = Authenticator::generate(&ks, b"m");
        for i in 0..ks.len() {
            for (j, k) in ks.iter().enumerate() {
                assert_eq!(auth.verify(i, k, b"m"), i == j, "entry {i}, key {j}");
            }
        }
    }

    /// Golden vector of the digest-first construction, entry `i` =
    /// `HMAC(keys[i], SHA-256(message))[..8]`, computed outside this crate.
    /// Re-pinned by PR 19, which moved the MAC from the message to its
    /// digest (tag bytes changed, lengths did not); same keys and message
    /// as the vector it replaces.
    #[test]
    fn authenticator_bytes_golden_vector() {
        let ks: Vec<SymmetricKey> = (0..4u8)
            .map(|i| SymmetricKey::derive(&[i], b"golden-pair"))
            .collect();
        let msg: Vec<u8> = (0..160usize).map(|i| (i * 13 + 5) as u8).collect();
        let hex: String = Authenticator::generate(&ks, &msg)
            .to_bytes()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "040000003db2f8fe38ca1da035240582e90d2c12148fdc290c19cbeaa274bbd1b7ba589d"
        );
    }

    #[test]
    fn wrong_key_or_message_fails() {
        let ks = keys(4);
        let auth = Authenticator::generate(&ks, b"m");
        assert!(!auth.verify(0, &ks[1], b"m"), "cross-key must fail");
        assert!(!auth.verify(0, &ks[0], b"m2"));
    }

    #[test]
    fn one_flipped_payload_bit_fails_every_receiver() {
        let ks = keys(4);
        let mut payload = vec![0xA5u8; 16_384];
        let auth = Authenticator::generate(&ks, &payload);
        payload[9_000] ^= 0x10;
        for (i, k) in ks.iter().enumerate() {
            assert!(!auth.verify(i, k, &payload), "receiver {i}");
        }
    }

    #[test]
    fn short_authenticator_fails_the_missing_receivers() {
        // a Byzantine sender ships two entries to a group of four
        let ks = keys(4);
        let short = Authenticator::generate(&ks[..2], b"m");
        assert!(short.verify(1, &ks[1], b"m"));
        assert!(!short.verify(2, &ks[2], b"m"));
        assert!(!short.verify(3, &ks[3], b"m"));
    }

    /// "Once" by construction: a 4-receiver authenticator over 16 KiB is one
    /// pass over the payload (257 compressions) plus 6 per tag — not four
    /// passes (≈ 1 040).
    #[test]
    fn generate_hashes_the_payload_once() {
        let ks = keys(4);
        let payload = vec![7u8; 16_384];
        let before = crate::hash::compressions();
        let auth = Authenticator::generate(&ks, &payload);
        let spent = crate::hash::compressions() - before;
        assert_eq!(auth.len(), 4);
        assert!(spent <= 290, "{spent} compressions");
    }

    /// The digest-level calls are the message-level ones with the hash
    /// taken out: same tags, same verdicts, and a tag written into a frame
    /// is the tag an authenticator value would encode.
    #[test]
    fn digest_level_calls_match_message_level_ones() {
        use xbytes::wire::Wire;
        let ks = keys(4);
        let digest = Digest::of(b"m");
        let auth = Authenticator::for_digest(ks.iter().copied(), &digest);
        assert_eq!(auth, Authenticator::generate(&ks, b"m"));
        let mut w = Writer::new();
        Authenticator::put_for_digest(&mut w, ks.iter().copied(), &digest);
        assert_eq!(w.finish(), auth.encode());
        for (i, k) in ks.iter().enumerate() {
            assert!(auth.verify_digest(i, k, &digest));
            assert!(!auth.verify_digest(i, k, &Digest::of(b"m2")));
        }
        assert!(!auth.verify_digest(4, &ks[0], &digest), "out of range");
    }

    /// A receiver holding the digest pays a fixed handful of compressions
    /// per tag, whatever the payload's size.
    #[test]
    fn verify_digest_does_not_touch_the_payload() {
        let ks = keys(4);
        let digest = Digest::of(&vec![7u8; 16_384]);
        let auth = Authenticator::for_digest(ks.iter().copied(), &digest);
        let before = crate::hash::compressions();
        assert!(auth.verify_digest(3, &ks[3], &digest));
        let spent = crate::hash::compressions() - before;
        assert!(spent <= 6, "{spent} compressions");
    }

    /// Decoded from a received buffer, the tags are a slice of it.
    #[test]
    fn shared_decode_keeps_tags_in_the_frame() {
        use xbytes::wire::Wire;
        let auth = Authenticator::generate(&keys(3), b"m");
        let frame = Bytes::from(auth.encode());
        let parsed = Authenticator::decode_shared(&frame).unwrap();
        assert_eq!(parsed, auth);
        // the length prefix and the count come first
        assert_eq!(parsed.tags.as_ptr(), frame[8..].as_ptr());
        let mut long = auth.encode();
        long[0] += 1;
        long.push(0);
        assert!(Authenticator::decode(&long).is_err(), "one byte too many");
    }

    #[test]
    fn out_of_range_index_fails_gracefully() {
        let ks = keys(2);
        let auth = Authenticator::generate(&ks, b"m");
        assert!(!auth.verify(5, &ks[0], b"m"));
    }

    #[test]
    fn bytes_round_trip() {
        let ks = keys(3);
        let auth = Authenticator::generate(&ks, b"m");
        let bytes = auth.to_bytes();
        let (parsed, used) = Authenticator::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, auth);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn truncated_bytes_rejected() {
        let ks = keys(3);
        let bytes = Authenticator::generate(&ks, b"m").to_bytes();
        assert!(Authenticator::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(Authenticator::from_bytes(&[]).is_none());
    }

    #[test]
    fn empty_authenticator() {
        let auth = Authenticator::generate(&[], b"m");
        assert!(auth.is_empty());
        assert_eq!(auth.len(), 0);
        let (parsed, _) = Authenticator::from_bytes(&auth.to_bytes()).unwrap();
        assert!(parsed.is_empty());
    }
}
