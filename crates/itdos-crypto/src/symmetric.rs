//! Authenticated symmetric encryption (encrypt-then-MAC over a ChaCha20
//! keystream keyed per message by HMAC).
//!
//! Replaces the paper's DES \[12\] for communication-key confidentiality
//! with a dedicated session cipher. Each message gets a one-time cipher
//! key `k = HMAC(enc_key, nonce)` — unique because the caller's nonce is —
//! and the keystream is ChaCha20 under `k` with block counter 0, 1, 2, …
//! and an all-zero cipher nonce, 64 bytes per block. The tag is
//! `HMAC(mac_key, nonce ‖ ciphertext)`, one pass over the ciphertext,
//! checked before anything is decrypted. Both subkeys are derived from the
//! communication key, so a single 256-bit key protects an association.
//! A sealed message is one flat buffer, `nonce ‖ tag ‖ ciphertext`, and
//! that buffer is what travels on the wire.
//!
//! A [`SealKey`] holds both subkeys in prepared form, so a connection
//! derives them once, not on every frame; the free [`seal`] and [`open`]
//! prepare a key for one message (the Group Manager's pairwise channel).

use crate::chacha20;
use crate::ct::ct_eq;
use crate::hash::Digest;
use crate::hmac::HmacKey;
use crate::keys::SymmetricKey;

/// Bytes a sealed message adds to its plaintext: the 16-byte nonce and
/// the 32-byte tag that precede the ciphertext.
pub const SEALED_OVERHEAD: usize = 48;

/// Decryption failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenError {
    /// The authentication tag did not verify: wrong key or tampering.
    BadTag,
    /// Shorter than [`SEALED_OVERHEAD`]: no room for a nonce and a tag.
    Truncated,
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::BadTag => write!(f, "authentication tag mismatch"),
            OpenError::Truncated => write!(f, "sealed message shorter than nonce and tag"),
        }
    }
}

impl std::error::Error for OpenError {}

/// A symmetric key prepared for sealing and opening many messages: the
/// encryption and authentication subkeys, each as an [`HmacKey`].
///
/// # Examples
///
/// ```
/// use itdos_crypto::keys::SymmetricKey;
/// use itdos_crypto::symmetric::{seal, SealKey};
///
/// let key = SymmetricKey::derive(b"assoc", b"demo");
/// let prepared = SealKey::new(&key);
/// let sealed = prepared.seal([1u8; 16], b"secret request");
/// assert_eq!(sealed, seal(&key, [1u8; 16], b"secret request"));
/// assert_eq!(prepared.open(&sealed).unwrap(), b"secret request");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SealKey {
    enc: HmacKey,
    mac: HmacKey,
}

impl SealKey {
    /// Derives and prepares both subkeys of `key`.
    pub fn new(key: &SymmetricKey) -> SealKey {
        let subkey = |label: &[u8]| HmacKey::new(&Digest::of_parts(&[label, key.as_bytes()]).0);
        SealKey {
            enc: subkey(b"itdos-enc"),
            mac: subkey(b"itdos-mac"),
        }
    }

    /// Encrypts and authenticates `plaintext` with a caller-chosen unique
    /// `nonce`, into one buffer laid out `nonce ‖ tag ‖ ciphertext`: the
    /// plaintext is copied in once, then encrypted and tagged in place.
    pub fn seal(&self, nonce: [u8; 16], plaintext: &[u8]) -> Vec<u8> {
        let mut sealed = [&nonce[..], &[0u8; 32], plaintext].concat();
        let (head, ciphertext) = sealed.split_at_mut(SEALED_OVERHEAD);
        self.keystream_xor(&nonce, ciphertext);
        let tag = self.mac.tag_parts(&[&nonce, ciphertext]);
        head[16..].copy_from_slice(tag.as_bytes());
        sealed
    }

    /// Verifies and decrypts a sealed message. The tag is checked, in
    /// constant time, before any ciphertext is touched; the plaintext is
    /// the one buffer this allocates.
    ///
    /// # Errors
    ///
    /// [`OpenError::Truncated`] if `sealed` cannot hold a nonce and a tag;
    /// [`OpenError::BadTag`] if the key is wrong or the message was
    /// tampered with.
    pub fn open(&self, sealed: &[u8]) -> Result<Vec<u8>, OpenError> {
        let (nonce, rest) = sealed
            .split_first_chunk::<16>()
            .ok_or(OpenError::Truncated)?;
        let (tag, ciphertext) = rest.split_first_chunk::<32>().ok_or(OpenError::Truncated)?;
        let expect = self.mac.tag_parts(&[nonce, ciphertext]);
        if !ct_eq(expect.as_bytes(), tag) {
            return Err(OpenError::BadTag);
        }
        let mut plaintext = ciphertext.to_vec();
        self.keystream_xor(nonce, &mut plaintext);
        Ok(plaintext)
    }

    fn keystream_xor(&self, nonce: &[u8; 16], data: &mut [u8]) {
        let message_key = self.enc.tag_parts(&[nonce]);
        chacha20::xor_keystream(message_key.as_bytes(), &[0u8; 12], 0, data);
    }
}

/// Encrypts and authenticates `plaintext` under `key` with a caller-chosen
/// unique `nonce`, laid out `nonce ‖ tag ‖ ciphertext`.
///
/// # Examples
///
/// ```
/// use itdos_crypto::keys::SymmetricKey;
/// use itdos_crypto::symmetric::{open, seal};
///
/// let key = SymmetricKey::derive(b"assoc", b"demo");
/// let sealed = seal(&key, [1u8; 16], b"secret request");
/// assert_eq!(open(&key, &sealed).unwrap(), b"secret request");
/// ```
pub fn seal(key: &SymmetricKey, nonce: [u8; 16], plaintext: &[u8]) -> Vec<u8> {
    SealKey::new(key).seal(nonce, plaintext)
}

/// Verifies and decrypts a sealed message.
///
/// # Errors
///
/// As [`SealKey::open`].
pub fn open(key: &SymmetricKey, sealed: &[u8]) -> Result<Vec<u8>, OpenError> {
    SealKey::new(key).open(sealed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: &[u8]) -> SymmetricKey {
        SymmetricKey::derive(tag, b"test")
    }

    #[test]
    fn round_trip() {
        let k = key(b"k");
        for len in [0usize, 1, 31, 32, 33, 64, 1000] {
            let msg = vec![0x5Au8; len];
            let sealed = seal(&k, [9u8; 16], &msg);
            assert_eq!(open(&k, &sealed).unwrap(), msg, "len {len}");
        }
    }

    /// Golden vectors of the sealed layout, computed outside this crate
    /// (HMAC-SHA256 for the message key and the tag, an independent
    /// ChaCha20 for the keystream). Re-pinned by PR 19, which replaced the
    /// HMAC-in-counter-mode keystream with ChaCha20 (ciphertext and tag
    /// bytes changed, lengths did not); same key, nonce and plaintexts as
    /// the vectors they replace. The longer ones are pinned by SHA-256.
    #[test]
    fn sealed_bytes_golden_vectors() {
        let k = SymmetricKey::derive(b"golden", b"seal");
        let nonce: [u8; 16] = std::array::from_fn(|i| i as u8);
        let sealed = |len: usize| {
            let plain: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            seal(&k, nonce, &plain)
        };
        let hex: String = sealed(1).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "000102030405060708090a0b0c0d0e0f\
             0402d8ced27781aedb6ff2ab0941c02bf935c06e88168eb80e3bedb10bda1350\
             92"
        );
        #[rustfmt::skip]
        let sha256_of_sealed = [
            (0usize, "d72dd746e4b8c85f80f8dac89a425da1cad914f7ce35697a64116fc2b50fe994"),
            (1, "266f0f7c41c46c18d8a46571f4e48860f9747167b8559204a213fd07a85332dc"),
            (31, "f2434f108a5b4713e3984c8859ef378a90a1744a84c20816a97ab31a9676ea45"),
            (32, "af611c2a259f0598d431541ab15fde574d12c6a211630c4a92a4f8b8c594f75d"),
            (33, "7859f228f785d4fc8679fd98ae478ed20267f81937262ef37cd9ede1f09cbb3c"),
            (110, "94e3f64d60615248d488207d44d87e23d140dedde199266af7a11d8d551bc45b"),
            (16_384, "7e1688fcbbacf897a28965996d1554bfc505eb668563864d52e71047ca510bd7"),
        ];
        for (len, digest) in sha256_of_sealed {
            assert_eq!(Digest::of(&sealed(len)).to_hex(), digest, "len {len}");
        }
    }

    #[test]
    fn prepared_key_equals_free_functions() {
        let k = key(b"k");
        let prepared = SealKey::new(&k);
        for len in [0usize, 1, 31, 32, 33, 110, 1000] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 11) as u8).collect();
            let nonce = [len as u8; 16];
            let sealed = prepared.seal(nonce, &msg);
            assert_eq!(sealed, seal(&k, nonce, &msg));
            assert_eq!(prepared.open(&sealed).unwrap(), msg, "len {len}");
            assert_eq!(open(&k, &sealed).unwrap(), msg, "len {len}");
        }
    }

    /// Every bit of the nonce, the tag and the ciphertext is covered.
    #[test]
    fn any_flipped_bit_is_bad_tag_under_a_prepared_key() {
        let prepared = SealKey::new(&key(b"a"));
        let sealed = prepared.seal([7u8; 16], b"forty-two bytes of plaintext, more or less");
        for bit in 0..sealed.len() * 8 {
            let mut bad = sealed.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(prepared.open(&bad), Err(OpenError::BadTag), "bit {bit}");
        }
    }

    #[test]
    fn wrong_key_rejected() {
        let sealed = seal(&key(b"a"), [0u8; 16], b"msg");
        assert_eq!(open(&key(b"b"), &sealed), Err(OpenError::BadTag));
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let k = key(b"a");
        let mut sealed = seal(&k, [0u8; 16], b"msg");
        sealed[SEALED_OVERHEAD] ^= 1;
        assert_eq!(open(&k, &sealed), Err(OpenError::BadTag));
    }

    #[test]
    fn tampered_nonce_rejected() {
        let k = key(b"a");
        let mut sealed = seal(&k, [0u8; 16], b"msg");
        sealed[0] ^= 1;
        assert_eq!(open(&k, &sealed), Err(OpenError::BadTag));
    }

    #[test]
    fn distinct_nonces_give_distinct_ciphertexts() {
        let k = key(b"a");
        let s1 = seal(&k, [1u8; 16], b"same message");
        let s2 = seal(&k, [2u8; 16], b"same message");
        assert_ne!(s1[SEALED_OVERHEAD..], s2[SEALED_OVERHEAD..]);
    }

    #[test]
    fn distinct_nonces_differ_in_every_keystream_block() {
        // the nonce keys the whole message, not just its first block
        let prepared = SealKey::new(&key(b"a"));
        let plain = [0x33u8; 256];
        let s1 = prepared.seal([1u8; 16], &plain);
        let s2 = prepared.seal([2u8; 16], &plain);
        for (block, (a, b)) in s1[SEALED_OVERHEAD..]
            .chunks(64)
            .zip(s2[SEALED_OVERHEAD..].chunks(64))
            .enumerate()
        {
            assert_ne!(a, b, "block {block}");
        }
    }

    /// "Once" by construction: sealing 16 KiB is one tag pass over the
    /// ciphertext (≈ 260 compressions) plus the message key — the keystream
    /// is not made of hash calls (it was 1 024 more).
    #[test]
    fn seal_hashes_the_payload_once() {
        let prepared = SealKey::new(&key(b"a"));
        let plain = vec![1u8; 16_384];
        let before = crate::hash::compressions();
        let sealed = prepared.seal([5u8; 16], &plain);
        let spent = crate::hash::compressions() - before;
        assert_eq!(sealed.len(), SEALED_OVERHEAD + plain.len());
        assert!(spent <= 270, "{spent} compressions");
    }

    /// The sealed buffer is the wire form: the nonce, then the tag over
    /// nonce and ciphertext, then the ciphertext.
    #[test]
    fn flat_bytes_round_trip() {
        let k = key(b"a");
        let sealed = seal(&k, [3u8; 16], b"payload");
        assert_eq!(sealed.len(), SEALED_OVERHEAD + b"payload".len());
        assert_eq!(sealed[..16], [3u8; 16]);
        let (head, ciphertext) = sealed.split_at(SEALED_OVERHEAD);
        let mac = SealKey::new(&k).mac;
        assert_eq!(
            &head[16..],
            mac.tag_parts(&[&head[..16], ciphertext]).as_bytes()
        );
        assert_eq!(open(&k, &sealed).unwrap(), b"payload");
    }

    /// Too short for a nonce and a tag is refused before any slicing; a
    /// nonce and a tag of garbage (an empty ciphertext) fails the tag.
    #[test]
    fn short_input_rejected() {
        let k = key(b"a");
        for len in [0usize, 1, 47] {
            assert_eq!(
                open(&k, &vec![0xA5; len]),
                Err(OpenError::Truncated),
                "{len}"
            );
        }
        assert_eq!(open(&k, &[0u8; 48]), Err(OpenError::BadTag));
        assert_eq!(open(&k, &seal(&k, [3u8; 16], b"")), Ok(Vec::new()));
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let k = key(b"a");
        let sealed = seal(&k, [0u8; 16], b"super secret payload");
        assert_ne!(&sealed[SEALED_OVERHEAD..], b"super secret payload");
    }
}
