//! Constant-time comparison for secret material.
//!
//! Comparing a MAC, digest, or key with `==` short-circuits at the first
//! differing byte, so the comparison time reveals how long a forged prefix
//! matched — a classic remote timing oracle against authenticators. Every
//! comparison of secret-derived bytes goes through [`ct_eq`], which touches
//! every byte regardless of where the buffers differ. The secret-bearing
//! types ([`MacTag`](crate::mac::MacTag),
//! [`Authenticator`](crate::mac::Authenticator),
//! [`SymmetricKey`](crate::keys::SymmetricKey) and its newtypes) implement
//! `==` with it, so `==` on them is constant-time in every crate.

/// Compares two byte slices in time independent of their contents.
///
/// Accumulates the XOR of every byte pair and checks the accumulator once
/// at the end. Only the *lengths* influence timing, and lengths of MACs,
/// digests, and keys are public constants here.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_buffers_compare_equal() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"itdos", b"itdos"));
        assert!(ct_eq(&[0u8; 32], &[0u8; 32]));
    }

    #[test]
    fn any_single_byte_difference_is_detected() {
        let base = [0xA5u8; 16];
        for i in 0..16 {
            for bit in 0..8 {
                let mut other = base;
                other[i] ^= 1 << bit;
                assert!(!ct_eq(&base, &other));
            }
        }
    }

    #[test]
    fn length_mismatch_is_unequal() {
        assert!(!ct_eq(b"abc", b"abcd"));
        assert!(!ct_eq(b"abcd", b"abc"));
        assert!(!ct_eq(b"", b"x"));
    }
}
