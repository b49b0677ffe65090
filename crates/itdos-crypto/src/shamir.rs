//! Shamir secret sharing over `Z_q`, with Feldman verifiability.
//!
//! The Group Manager's master PRF secret is `(f+1)`-out-of-`n` shared so
//! that an adversary holding `f` Group Manager elements learns nothing
//! (§3.5). Feldman commitments (`g^{coeff}`) let every share holder verify
//! its share against public data, so a corrupted dealer or tampered share
//! is detected at distribution time.

use xrand::Rng;

use crate::group::{Element, Scalar};

/// Index of a share holder; must be non-zero (x-coordinate of the share).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShareIndex(u32);

impl ShareIndex {
    /// Creates a share index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is zero (x = 0 would leak the secret).
    pub fn new(index: u32) -> ShareIndex {
        assert!(index != 0, "share index must be non-zero");
        ShareIndex(index)
    }

    /// The raw index.
    pub fn value(self) -> u32 {
        self.0
    }

    /// The index as a field scalar.
    pub(crate) fn scalar(self) -> Scalar {
        Scalar::new(self.0 as u64)
    }
}

/// One holder's share of a secret.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Share {
    /// The holder's x-coordinate.
    pub index: ShareIndex,
    /// The polynomial evaluated at `index`.
    pub value: Scalar,
}

/// Public commitments to the sharing polynomial (`g^{a_0}, …, g^{a_t}`),
/// allowing share verification without revealing the polynomial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Commitments {
    coefficients: Vec<Element>,
}

impl Commitments {
    /// The expected public value `g^{s_i}` for holder `index`.
    pub(crate) fn expected_share_point(&self, index: ShareIndex) -> Element {
        // g^{p(i)} = Π_k (g^{a_k})^{i^k}
        let x = index.scalar();
        let mut x_pow = Scalar::ONE;
        let mut acc = Element::IDENTITY;
        for c in &self.coefficients {
            acc = acc * c.pow(x_pow);
            x_pow = x_pow * x;
        }
        acc
    }

    /// Verifies that `share` lies on the committed polynomial.
    pub fn verify(&self, share: &Share) -> bool {
        Element::generator().pow(share.value) == self.expected_share_point(share.index)
    }

    /// The reconstruction threshold (number of shares needed).
    pub fn threshold(&self) -> usize {
        self.coefficients.len()
    }
}

/// Splits `secret` into `n` shares, any `threshold` of which reconstruct it.
///
/// Returns the shares (for holders `1..=n`) and the Feldman commitments.
///
/// # Panics
///
/// Panics if `threshold` is zero or exceeds `n`.
///
/// # Examples
///
/// ```
/// use itdos_crypto::group::Scalar;
/// use itdos_crypto::shamir::{combine, split};
/// use xrand::rngs::SmallRng;
/// use xrand::SeedableRng;
///
/// let mut rng = SmallRng::seed_from_u64(0xD5A1);
/// let secret = Scalar::new(12345);
/// let (shares, commitments) = split(secret, 2, 4, &mut rng);
/// assert!(shares.iter().all(|s| commitments.verify(s)));
/// assert_eq!(combine(&shares[1..3]).unwrap(), secret);
/// ```
pub fn split<R: Rng + ?Sized>(
    secret: Scalar,
    threshold: usize,
    n: usize,
    rng: &mut R,
) -> (Vec<Share>, Commitments) {
    assert!(threshold >= 1, "threshold must be at least 1");
    assert!(threshold <= n, "threshold cannot exceed share count");
    let mut coefficients = vec![secret];
    for _ in 1..threshold {
        coefficients.push(Scalar::new(rng.gen()));
    }
    let shares = (1..=n as u32)
        .map(|i| {
            let index = ShareIndex::new(i);
            Share {
                index,
                value: evaluate(&coefficients, index.scalar()),
            }
        })
        .collect();
    let commitments = Commitments {
        coefficients: coefficients
            .iter()
            .map(|c| Element::generator().pow(*c))
            .collect(),
    };
    (shares, commitments)
}

fn evaluate(coefficients: &[Scalar], x: Scalar) -> Scalar {
    // Horner's rule
    let mut acc = Scalar::ZERO;
    for c in coefficients.iter().rev() {
        acc = acc * x + *c;
    }
    acc
}

/// Errors from share reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombineError {
    /// No shares supplied.
    Empty,
    /// Two shares carry the same index.
    DuplicateIndex(ShareIndex),
}

impl std::fmt::Display for CombineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CombineError::Empty => write!(f, "no shares supplied"),
            CombineError::DuplicateIndex(i) => {
                write!(f, "duplicate share index {}", i.value())
            }
        }
    }
}

impl std::error::Error for CombineError {}

/// Reconstructs the secret from shares by Lagrange interpolation at zero.
///
/// The caller must supply at least `threshold` *correct* shares; supplying
/// fewer (or corrupted) shares yields an unrelated scalar, not an error —
/// verify shares against [`Commitments`] first when they come from
/// untrusted holders.
///
/// # Errors
///
/// Returns [`CombineError`] on empty input or duplicate indices.
pub fn combine(shares: &[Share]) -> Result<Scalar, CombineError> {
    let lambdas = lagrange_at_zero(shares)?;
    Ok(shares
        .iter()
        .zip(lambdas)
        .fold(Scalar::ZERO, |acc, (share, lambda)| {
            acc + share.value * lambda
        }))
}

/// Computes the Lagrange coefficients at `x = 0` for the given share
/// indices (shared with the DPRF's interpolation in the exponent).
///
/// # Errors
///
/// Returns [`CombineError`] on empty input or duplicate indices.
pub(crate) fn lagrange_at_zero(shares: &[Share]) -> Result<Vec<Scalar>, CombineError> {
    if shares.is_empty() {
        return Err(CombineError::Empty);
    }
    for (k, s) in shares.iter().enumerate() {
        if shares[..k].iter().any(|t| t.index == s.index) {
            return Err(CombineError::DuplicateIndex(s.index));
        }
    }
    Ok(shares
        .iter()
        .map(|share| {
            let xi = share.index.scalar();
            let mut num = Scalar::ONE;
            let mut den = Scalar::ONE;
            for other in shares {
                if other.index == share.index {
                    continue;
                }
                let xj = other.index.scalar();
                num = num * xj;
                den = den * (xj - xi);
            }
            num * den.inverse()
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrand::rngs::SmallRng;
    use xrand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(99)
    }

    #[test]
    fn any_threshold_subset_reconstructs() {
        let secret = Scalar::new(777_777);
        let (shares, _) = split(secret, 3, 7, &mut rng());
        // every 3-subset of the 7 shares reconstructs
        for a in 0..7 {
            for b in (a + 1)..7 {
                for c in (b + 1)..7 {
                    let subset = [shares[a], shares[b], shares[c]];
                    assert_eq!(combine(&subset).unwrap(), secret);
                }
            }
        }
    }

    #[test]
    fn fewer_than_threshold_learns_nothing_useful() {
        let secret = Scalar::new(42);
        let (shares, _) = split(secret, 3, 5, &mut rng());
        let guess = combine(&shares[..2]).unwrap();
        assert_ne!(guess, secret, "2 shares must not reconstruct (w.h.p.)");
    }

    #[test]
    fn commitments_verify_honest_shares() {
        let (shares, commitments) = split(Scalar::new(1), 2, 4, &mut rng());
        assert_eq!(commitments.threshold(), 2);
        for s in &shares {
            assert!(commitments.verify(s));
        }
    }

    #[test]
    fn commitments_reject_tampered_share() {
        let (shares, commitments) = split(Scalar::new(1), 2, 4, &mut rng());
        let bad = Share {
            index: shares[0].index,
            value: shares[0].value + Scalar::ONE,
        };
        assert!(!commitments.verify(&bad));
    }

    #[test]
    fn public_secret_matches() {
        let secret = Scalar::new(31337);
        let (_, commitments) = split(secret, 2, 3, &mut rng());
        // the first commitment is the public value of the secret itself
        assert_eq!(
            commitments.coefficients[0],
            Element::generator().pow(secret)
        );
    }

    #[test]
    fn duplicate_index_rejected() {
        let (shares, _) = split(Scalar::new(5), 2, 3, &mut rng());
        let dup = [shares[0], shares[0]];
        assert_eq!(
            combine(&dup),
            Err(CombineError::DuplicateIndex(shares[0].index))
        );
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(combine(&[]), Err(CombineError::Empty));
    }

    #[test]
    fn threshold_one_is_replication() {
        let secret = Scalar::new(9);
        let (shares, _) = split(secret, 1, 3, &mut rng());
        for s in &shares {
            assert_eq!(s.value, secret);
            assert_eq!(combine(&[*s]).unwrap(), secret);
        }
    }

    #[test]
    #[should_panic(expected = "share index must be non-zero")]
    fn zero_index_panics() {
        ShareIndex::new(0);
    }

    #[test]
    #[should_panic(expected = "threshold cannot exceed")]
    fn oversized_threshold_panics() {
        split(Scalar::new(1), 4, 3, &mut rng());
    }
}
