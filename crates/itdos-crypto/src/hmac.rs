//! HMAC-SHA256 (RFC 2104).
//!
//! The two pad blocks depend on the key alone, so [`HmacKey`] compresses
//! them once and every tag resumes from the saved midstates: a short
//! message costs two compressions instead of four. [`hmac`] prepares a
//! key and uses it once.

use crate::hash::{Digest, Sha256};

const BLOCK: usize = 64;

/// An HMAC-SHA256 key prepared for repeated use: the SHA-256 midstates
/// after the `key ⊕ ipad` and `key ⊕ opad` blocks.
///
/// # Examples
///
/// ```
/// use itdos_crypto::hmac::{hmac, HmacKey};
///
/// let key = HmacKey::new(b"key");
/// assert_eq!(key.tag_parts(&[b"mes", b"sage"]), hmac(b"key", b"message"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    /// Prepares `key` (hashed first when longer than one block).
    pub fn new(key: &[u8]) -> HmacKey {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..32].copy_from_slice(Digest::of(key).as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let midstate_after = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&key_block.map(|b| b ^ pad));
            h.midstate()
        };
        HmacKey {
            inner: midstate_after(0x36),
            outer: midstate_after(0x5c),
        }
    }

    /// The tag over the concatenation of `parts`, without an intermediate
    /// allocation.
    pub fn tag_parts(&self, parts: &[&[u8]]) -> Digest {
        let mut inner = Sha256::resume(self.inner, BLOCK as u64);
        for part in parts {
            inner.update(part);
        }
        let mut outer = Sha256::resume(self.outer, BLOCK as u64);
        outer.update(inner.finish().as_bytes());
        outer.finish()
    }
}

/// Computes `HMAC-SHA256(key, message)`.
///
/// # Examples
///
/// ```
/// use itdos_crypto::hmac::hmac;
///
/// let tag = hmac(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(
///     tag.to_hex(),
///     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
/// );
/// ```
pub fn hmac(key: &[u8], message: &[u8]) -> Digest {
    hmac_parts(key, &[message])
}

/// HMAC over the concatenation of several message parts, avoiding an
/// intermediate allocation.
fn hmac_parts(key: &[u8], parts: &[&[u8]]) -> Digest {
    HmacKey::new(key).tag_parts(parts)
}

/// Constant-shape tag comparison.
///
/// The simulator is single-threaded and timing-free, but we keep the
/// constant-time idiom so the code reads like the real thing.
pub fn verify(key: &[u8], message: &[u8], tag: &Digest) -> bool {
    let expect = hmac(key, message);
    crate::ct::ct_eq(expect.as_bytes(), tag.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4231 test vectors (cases 1-4, 6, 7), through the one-shot function
    // and through one prepared key used twice, whole and over split parts.
    #[test]
    fn rfc4231_oneshot_and_prepared() {
        let long_key = [0xaa; 131];
        let key_4: Vec<u8> = (1..=25).collect();
        let cases: [(&[u8], &[u8], &str); 6] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &key_4,
                &[0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                &long_key,
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                &long_key,
                b"This is a test using a larger than block-size key and a larger t\
                  han block-size data. The key needs to be hashed before being use\
                  d by the HMAC algorithm.",
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        for (key, data, tag) in cases {
            assert_eq!(hmac(key, data).to_hex(), tag);
            let prepared = HmacKey::new(key);
            let (head, tail) = data.split_at(data.len() / 3);
            assert_eq!(prepared.tag_parts(&[data]).to_hex(), tag);
            assert_eq!(prepared.tag_parts(&[head, b"", tail]).to_hex(), tag);
        }
    }

    #[test]
    fn parts_equal_concatenation() {
        assert_eq!(hmac_parts(b"k", &[b"ab", b"cd", b""]), hmac(b"k", b"abcd"));
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = hmac(b"k", b"m");
        assert!(verify(b"k", b"m", &tag));
        assert!(!verify(b"k", b"m2", &tag));
        assert!(!verify(b"k2", b"m", &tag));
        let mut bad = tag;
        bad.0[0] ^= 1;
        assert!(!verify(b"k", b"m", &bad));
    }
}
