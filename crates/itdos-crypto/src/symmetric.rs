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
//!
//! A [`SealKey`] holds both subkeys in prepared form, so a connection
//! derives them once, not on every frame; the free [`seal`] and [`open`]
//! prepare a key for one message (the Group Manager's pairwise channel).

use crate::chacha20;
use crate::ct::ct_eq;
use crate::hash::Digest;
use crate::hmac::HmacKey;
use crate::keys::SymmetricKey;

/// Fixed wire overhead of a [`Sealed`] message beyond its plaintext:
/// 16-byte nonce plus 32-byte tag. Instrumentation uses this to account
/// crypto cost in bytes without re-serializing.
pub const SEALED_OVERHEAD: usize = 48;

/// A sealed message: nonce ‖ ciphertext ‖ tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sealed {
    /// Caller-supplied unique nonce (e.g. connection id ‖ sequence number).
    pub nonce: [u8; 16],
    /// Encrypted payload.
    pub ciphertext: Vec<u8>,
    /// Authentication tag over nonce and ciphertext.
    pub tag: Digest,
}

impl Sealed {
    /// Length of the flat [`Sealed::to_bytes`] form:
    /// [`SEALED_OVERHEAD`] plus the ciphertext.
    pub fn wire_len(&self) -> usize {
        SEALED_OVERHEAD + self.ciphertext.len()
    }

    /// Serializes to a flat byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 32 + self.ciphertext.len());
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(self.tag.as_bytes());
        out.extend_from_slice(&self.ciphertext);
        out
    }

    /// Parses the flat form.
    ///
    /// Returns `None` if `bytes` is shorter than the fixed header.
    pub fn from_bytes(bytes: &[u8]) -> Option<Sealed> {
        if bytes.len() < SEALED_OVERHEAD {
            return None;
        }
        Some(Sealed {
            nonce: bytes[..16].try_into().expect("16 bytes"),
            tag: Digest(bytes[16..48].try_into().expect("32 bytes")),
            ciphertext: bytes[48..].to_vec(),
        })
    }
}

/// Decryption failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenError {
    /// The authentication tag did not verify: wrong key or tampering.
    BadTag,
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::BadTag => write!(f, "authentication tag mismatch"),
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
    /// `nonce`.
    pub fn seal(&self, nonce: [u8; 16], plaintext: &[u8]) -> Sealed {
        let mut ciphertext = plaintext.to_vec();
        self.keystream_xor(&nonce, &mut ciphertext);
        let tag = self.mac.tag_parts(&[&nonce, &ciphertext]);
        Sealed {
            nonce,
            ciphertext,
            tag,
        }
    }

    /// Verifies and decrypts a sealed message. The tag is checked, in
    /// constant time, before any ciphertext is touched.
    ///
    /// # Errors
    ///
    /// [`OpenError::BadTag`] if the key is wrong or the message was
    /// tampered with.
    pub fn open(&self, sealed: &Sealed) -> Result<Vec<u8>, OpenError> {
        let expect = self.mac.tag_parts(&[&sealed.nonce, &sealed.ciphertext]);
        if !ct_eq(expect.as_bytes(), sealed.tag.as_bytes()) {
            return Err(OpenError::BadTag);
        }
        let mut plaintext = sealed.ciphertext.clone();
        self.keystream_xor(&sealed.nonce, &mut plaintext);
        Ok(plaintext)
    }

    fn keystream_xor(&self, nonce: &[u8; 16], data: &mut [u8]) {
        let message_key = self.enc.tag_parts(&[nonce]);
        chacha20::xor_keystream(message_key.as_bytes(), &[0u8; 12], 0, data);
    }
}

/// Encrypts and authenticates `plaintext` under `key` with a caller-chosen
/// unique `nonce`.
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
pub fn seal(key: &SymmetricKey, nonce: [u8; 16], plaintext: &[u8]) -> Sealed {
    SealKey::new(key).seal(nonce, plaintext)
}

/// Verifies and decrypts a sealed message.
///
/// # Errors
///
/// [`OpenError::BadTag`] if the key is wrong or the message was tampered
/// with.
pub fn open(key: &SymmetricKey, sealed: &Sealed) -> Result<Vec<u8>, OpenError> {
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

    /// Golden vectors of `Sealed::to_bytes()`, computed outside this crate
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
            seal(&k, nonce, &plain).to_bytes()
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
            assert_eq!(sealed.to_bytes(), seal(&k, nonce, &msg).to_bytes());
            assert_eq!(prepared.open(&sealed).unwrap(), msg, "len {len}");
            assert_eq!(open(&k, &sealed).unwrap(), msg, "len {len}");
        }
    }

    #[test]
    fn any_flipped_bit_is_bad_tag_under_a_prepared_key() {
        let prepared = SealKey::new(&key(b"a"));
        let sealed = prepared.seal([7u8; 16], b"forty-two bytes of plaintext, more or less");
        let flat = sealed.to_bytes();
        for bit in 0..flat.len() * 8 {
            let mut bad = flat.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let bad = Sealed::from_bytes(&bad).unwrap();
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
        sealed.ciphertext[0] ^= 1;
        assert_eq!(open(&k, &sealed), Err(OpenError::BadTag));
    }

    #[test]
    fn tampered_nonce_rejected() {
        let k = key(b"a");
        let mut sealed = seal(&k, [0u8; 16], b"msg");
        sealed.nonce[0] ^= 1;
        assert_eq!(open(&k, &sealed), Err(OpenError::BadTag));
    }

    #[test]
    fn distinct_nonces_give_distinct_ciphertexts() {
        let k = key(b"a");
        let s1 = seal(&k, [1u8; 16], b"same message");
        let s2 = seal(&k, [2u8; 16], b"same message");
        assert_ne!(s1.ciphertext, s2.ciphertext);
    }

    #[test]
    fn distinct_nonces_differ_in_every_keystream_block() {
        // the nonce keys the whole message, not just its first block
        let prepared = SealKey::new(&key(b"a"));
        let plain = [0x33u8; 256];
        let s1 = prepared.seal([1u8; 16], &plain);
        let s2 = prepared.seal([2u8; 16], &plain);
        for (block, (a, b)) in s1
            .ciphertext
            .chunks(64)
            .zip(s2.ciphertext.chunks(64))
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
        assert_eq!(sealed.ciphertext.len(), plain.len());
        assert!(spent <= 270, "{spent} compressions");
    }

    #[test]
    fn flat_bytes_round_trip() {
        let k = key(b"a");
        let sealed = seal(&k, [3u8; 16], b"payload");
        let parsed = Sealed::from_bytes(&sealed.to_bytes()).unwrap();
        assert_eq!(parsed, sealed);
        assert_eq!(open(&k, &parsed).unwrap(), b"payload");
        assert_eq!(sealed.wire_len(), sealed.to_bytes().len());
        assert_eq!(sealed.wire_len(), SEALED_OVERHEAD + b"payload".len());
    }

    #[test]
    fn short_input_rejected() {
        assert_eq!(Sealed::from_bytes(&[0u8; 47]), None);
        assert!(Sealed::from_bytes(&[0u8; 48]).is_some());
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let k = key(b"a");
        let sealed = seal(&k, [0u8; 16], b"super secret payload");
        assert_ne!(&sealed.ciphertext[..], b"super secret payload");
    }
}
