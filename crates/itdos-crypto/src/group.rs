//! Arithmetic in a Schnorr group with toy-sized parameters.
//!
//! We work in the order-`q` subgroup of `Z_p^*` where `p = 2q + 1` is a safe
//! prime. Parameters are 62 bits — **not secure**, but every operation
//! (exponentiation, Lagrange interpolation in the exponent, DLEQ proofs) is
//! the real construction.
//!
//! Group elements are exponentiated in Montgomery form with `R = 2^64`:
//! `p < 2^62` keeps `a·b + m·p` inside a `u128`, so a product mod `p` is two
//! multiplications and a shift instead of a `u128` division. General bases
//! use a fixed 4-bit window; powers of the standard generator `g` come from
//! a table of `g^(d·16^i)` built at compile time. Subgroup membership is the
//! Legendre symbol, computed by the binary Jacobi algorithm: for a safe
//! prime, Euler's criterion makes `x^q = 1` exactly "`x` is a quadratic
//! residue". Scalars mod `q` keep the plain `mul_mod`/[`pow_mod`] path.
//!
//! These parameters instantiate the paper's §3.5 threshold machinery (the
//! Naor–Pinkas–Reingold distributed PRF \[26\] is DDH-based and lives in
//! exactly this kind of group).

use crate::hash::Digest;

/// The safe prime `p = 2q + 1`.
pub const P: u64 = 2_305_843_009_213_699_919;

/// The subgroup order `q` (prime).
pub const Q: u64 = 1_152_921_504_606_849_959;

/// Generator of the order-`q` subgroup.
pub const G: u64 = 25;

/// A second generator with unknown discrete log relative to [`G`]
/// (independent basis for commitments).
pub const H: u64 = 49;

/// A scalar modulo [`Q`] (exponent / secret share / signature component).
///
/// # Examples
///
/// ```
/// use itdos_crypto::group::Scalar;
///
/// let a = Scalar::new(10);
/// let b = Scalar::new(3);
/// assert_eq!((a * b).value(), 30);
/// assert_eq!((a - b).value(), 7);
/// assert_eq!((b * b.inverse()).value(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Scalar(u64);

impl Scalar {
    /// The additive identity.
    pub const ZERO: Scalar = Scalar(0);

    /// The multiplicative identity.
    pub const ONE: Scalar = Scalar(1);

    /// Creates a scalar, reducing modulo `q`.
    pub fn new(value: u64) -> Scalar {
        Scalar(value % Q)
    }

    /// Derives a scalar from a digest (uniform enough for a 61-bit toy
    /// modulus).
    pub fn from_digest(digest: &Digest) -> Scalar {
        let hi = u64::from_be_bytes(digest.0[..8].try_into().expect("8 bytes")) as u128;
        let lo = u64::from_be_bytes(digest.0[8..16].try_into().expect("8 bytes")) as u128;
        Scalar((((hi << 64) | lo) % Q as u128) as u64)
    }

    /// Returns the canonical representative in `[0, q)`.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Multiplicative inverse via Fermat's little theorem.
    ///
    /// # Panics
    ///
    /// Panics on `Scalar::ZERO`, which has no inverse.
    pub fn inverse(self) -> Scalar {
        assert!(self.0 != 0, "zero scalar has no inverse");
        Scalar(pow_mod(self.0, Q - 2, Q))
    }

    /// Little-endian byte serialization.
    pub fn to_bytes(self) -> [u8; 8] {
        self.0.to_le_bytes()
    }

    /// Deserializes, reducing modulo `q`.
    pub fn from_bytes(bytes: [u8; 8]) -> Scalar {
        Scalar::new(u64::from_le_bytes(bytes))
    }
}

impl std::ops::Add for Scalar {
    type Output = Scalar;
    fn add(self, rhs: Scalar) -> Scalar {
        Scalar(((self.0 as u128 + rhs.0 as u128) % Q as u128) as u64)
    }
}

impl std::ops::Sub for Scalar {
    type Output = Scalar;
    fn sub(self, rhs: Scalar) -> Scalar {
        Scalar((self.0 + Q - rhs.0) % Q)
    }
}

impl std::ops::Mul for Scalar {
    type Output = Scalar;
    fn mul(self, rhs: Scalar) -> Scalar {
        Scalar(mul_mod(self.0, rhs.0, Q))
    }
}

impl std::ops::Neg for Scalar {
    type Output = Scalar;
    fn neg(self) -> Scalar {
        Scalar((Q - self.0) % Q)
    }
}

/// An element of the order-`q` subgroup of `Z_p^*`.
///
/// # Examples
///
/// ```
/// use itdos_crypto::group::{Element, Scalar};
///
/// let two = Scalar::new(2);
/// let three = Scalar::new(3);
/// let lhs = Element::generator().pow(two).pow(three);
/// let rhs = Element::generator().pow(two * three);
/// assert_eq!(lhs, rhs);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Element(u64);

impl Element {
    /// The group identity.
    pub const IDENTITY: Element = Element(1);

    /// The standard generator `g`.
    pub fn generator() -> Element {
        Element(G)
    }

    /// Hashes arbitrary bytes onto the subgroup: `(H(x) mod p)^2`, squaring
    /// to land in the quadratic residues (= the order-`q` subgroup of a safe
    /// prime group).
    pub fn hash_to_group(data: &[u8]) -> Element {
        let d = Digest::of_parts(&[b"itdos-h2g", data]);
        let hi = u64::from_be_bytes(d.0[..8].try_into().expect("8 bytes")) as u128;
        let lo = u64::from_be_bytes(d.0[8..16].try_into().expect("8 bytes")) as u128;
        let mut x = (((hi << 64) | lo) % P as u128) as u64;
        if x == 0 {
            x = 2;
        }
        Element(mul_mod(x, x, P))
    }

    /// Exponentiation by a scalar.
    pub fn pow(self, exponent: Scalar) -> Element {
        if self.0 == G {
            return Element(from_mont(generator_pow(exponent.0)));
        }
        Element(from_mont(window_pow(to_mont(self.0), exponent.0)))
    }

    /// Inverse element.
    pub fn inverse(self) -> Element {
        Element(from_mont(window_pow(to_mont(self.0), P - 2)))
    }

    /// The canonical representative in `[1, p)`.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Checks subgroup membership (`x^q == 1`, decided as "`x` is a
    /// quadratic residue").
    pub(crate) fn is_valid(self) -> bool {
        self.0 != 0 && self.0 < P && is_residue(self.0)
    }

    /// Little-endian byte serialization.
    pub fn to_bytes(self) -> [u8; 8] {
        self.0.to_le_bytes()
    }

    /// Deserializes without validation; call `Element::is_valid` on
    /// untrusted input.
    pub fn from_bytes(bytes: [u8; 8]) -> Element {
        Element(u64::from_le_bytes(bytes))
    }
}

/// The group operation (modular multiplication).
impl std::ops::Mul for Element {
    type Output = Element;
    fn mul(self, rhs: Element) -> Element {
        Element(mul_mod(self.0, rhs.0, P))
    }
}

/// `(a * b) mod m` without overflow for `m < 2^64`.
fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// `base^exp mod m` by square-and-multiply.
pub fn pow_mod(base: u64, mut exp: u64, m: u64) -> u64 {
    let mut base = base % m;
    let mut acc: u64 = 1;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, m);
        }
        base = mul_mod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// `-p^{-1} mod 2^64`. Newton's step `x ← x·(2 − p·x)` doubles the correct
/// low bits, and an odd `p` is its own inverse mod 8: five steps reach 96.
const P_NEG_INV: u64 = {
    let mut inv = P;
    let mut step = 0;
    while step < 5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(P.wrapping_mul(inv)));
        step += 1;
    }
    inv.wrapping_neg()
};

/// `R mod p`: the Montgomery form of 1.
const MONT_ONE: u64 = ((1u128 << 64) % P as u128) as u64;

/// `R² mod p`: a Montgomery product by it converts into Montgomery form.
const R2: u64 = (MONT_ONE as u128 * MONT_ONE as u128 % P as u128) as u64;

/// Montgomery product `a·b·R^{-1}`, reduced lazily: for `a, b < 2p`,
/// `a·b < 4p² < 2^126` and `m·p < 2^64·p`, so the sum stays below `2^127`
/// and, as `4p < 2^64`, the result is again below `2p` — no final
/// subtraction until [`from_mont`].
const fn redc(a: u64, b: u64) -> u64 {
    let t = a as u128 * b as u128;
    let m = (t as u64).wrapping_mul(P_NEG_INV);
    ((t + m as u128 * P as u128) >> 64) as u64
}

/// [`redc`] at run time — the unit of work the tests count.
fn mont_mul(a: u64, b: u64) -> u64 {
    #[cfg(test)]
    MONT_MULS.with(|count| count.set(count.get() + 1));
    redc(a, b)
}

fn to_mont(x: u64) -> u64 {
    mont_mul(x % P, R2)
}

/// Leaves Montgomery form: `x·R^{-1}` is at most `p` here, and equals it
/// only for `x ≡ 0`.
fn from_mont(x: u64) -> u64 {
    mont_mul(x, 1) % P
}

/// `G_TABLE[i][d]` is `g^(d·16^i)` in Montgomery form, so `g^e` costs one
/// product per non-zero hex digit of `e`.
static G_TABLE: [[u64; 16]; 16] = {
    let mut table = [[MONT_ONE; 16]; 16];
    let mut base = redc(G, R2);
    let mut i = 0;
    while i < 16 {
        let mut d = 1;
        while d < 16 {
            table[i][d] = redc(table[i][d - 1], base);
            d += 1;
        }
        base = redc(table[i][15], base);
        i += 1;
    }
    table
};

/// `g^e` in Montgomery form, from [`G_TABLE`].
fn generator_pow(e: u64) -> u64 {
    let mut acc = G_TABLE[0][(e & 15) as usize];
    for (i, row) in G_TABLE.iter().enumerate().skip(1) {
        let digit = (e >> (4 * i)) & 15;
        if digit != 0 {
            acc = mont_mul(acc, row[digit as usize]);
        }
    }
    acc
}

/// `base^e` with `base` in Montgomery form, by a fixed 4-bit window: the
/// powers `base^0..base^15` once, then four squarings and at most one
/// product per hex digit of `e`.
fn window_pow(base: u64, e: u64) -> u64 {
    let mut powers = [MONT_ONE; 16];
    powers[1] = base;
    for d in 2..16 {
        powers[d] = mont_mul(powers[d - 1], base);
    }
    let top = e.max(1).ilog2() / 4;
    let mut acc = powers[((e >> (4 * top)) & 15) as usize];
    for i in (0..top).rev() {
        for _ in 0..4 {
            acc = mont_mul(acc, acc);
        }
        let digit = (e >> (4 * i)) & 15;
        if digit != 0 {
            acc = mont_mul(acc, powers[digit as usize]);
        }
    }
    acc
}

/// The Legendre symbol `(a/p) = 1` for `a` in `[1, p)`, by the binary
/// Jacobi algorithm: shifts, subtractions and two sign rules, no products.
/// Bit 0 of `sign` tracks the symbol's sign. The loop uses selects and
/// masks: a branching form measured ≈ 2.8× slower on random inputs.
fn is_residue(a: u64) -> bool {
    // (2/n) = -1 exactly when n ≡ 3 or 5 (mod 8), i.e. bits 1 and 2 differ
    let two_flips = |n: u64, twos: u32| u64::from(twos) & ((n >> 1) ^ (n >> 2));
    let mut n = P;
    let mut sign = two_flips(n, a.trailing_zeros());
    let mut a = a >> a.trailing_zeros();
    // a and n stay odd and coprime (p is prime), so they meet at 1
    while a != n {
        // reciprocity: (a/n) = -(n/a) exactly when both are ≡ 3 (mod 4)
        let swap = a < n;
        sign ^= if swap { (a & n) >> 1 } else { 0 };
        let (lo, hi) = if swap { (a, n) } else { (n, a) };
        // (hi/lo) = ((hi − lo)/lo), and hi − lo is even and non-zero
        let diff = hi - lo;
        sign ^= two_flips(lo, diff.trailing_zeros());
        a = diff >> diff.trailing_zeros();
        n = lo;
    }
    sign & 1 == 0
}

#[cfg(test)]
thread_local! {
    /// Montgomery products made by the current test thread.
    static MONT_MULS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
/// This thread's running Montgomery-product count (test builds only): the
/// unit tests of `sign` and `dprf` take differences of it to pin how much
/// group work a construction does.
pub(crate) fn mont_muls() -> u64 {
    MONT_MULS.with(std::cell::Cell::get)
}

#[cfg(test)]
/// The square-and-multiply and `x^q == 1` kernel this module shipped
/// before Montgomery form, kept as the oracle the fast paths are compared
/// to.
mod reference {
    use super::{pow_mod, P, Q};

    /// [`pow_mod`] is that square-and-multiply, kept for scalars mod `q`.
    pub fn pow(base: u64, exp: u64) -> u64 {
        pow_mod(base, exp, P)
    }

    pub fn inverse(x: u64) -> u64 {
        pow(x, P - 2)
    }

    pub(crate) fn is_valid(x: u64) -> bool {
        x != 0 && x < P && pow(x, Q) == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrand::rngs::SmallRng;
    use xrand::{Rng, SeedableRng};

    #[test]
    fn parameters_are_consistent() {
        assert_eq!(P, 2 * Q + 1);
        assert!(Element::generator().is_valid());
        assert!(Element(H).is_valid());
        assert_ne!(Element::generator(), Element(H));
    }

    #[test]
    fn generator_has_order_q() {
        assert_eq!(Element::generator().pow(Scalar::new(0)), Element::IDENTITY);
        assert_eq!(
            Element(pow_mod(G, Q, P)),
            Element::IDENTITY,
            "g^q must be 1"
        );
        assert_ne!(
            Element(pow_mod(G, 2, P)),
            Element::IDENTITY,
            "g must not have tiny order"
        );
    }

    #[test]
    fn scalar_field_axioms_spot_check() {
        let a = Scalar::new(123_456_789);
        let b = Scalar::new(987_654_321);
        let c = Scalar::new(555);
        assert_eq!(a + b, b + a);
        assert_eq!(a * b, b * a);
        assert_eq!(a * (b + c), a * b + a * c);
        assert_eq!(a + (-a), Scalar::ZERO);
        assert_eq!(a - a, Scalar::ZERO);
    }

    #[test]
    fn inverse_round_trips() {
        for v in [1u64, 2, 17, Q - 1, 123_456_789] {
            let s = Scalar::new(v);
            assert_eq!(s * s.inverse(), Scalar::ONE, "v={v}");
        }
    }

    #[test]
    #[should_panic(expected = "zero scalar")]
    fn zero_has_no_inverse() {
        let _ = Scalar::ZERO.inverse();
    }

    #[test]
    fn element_inverse_round_trips() {
        let e = Element::generator().pow(Scalar::new(99));
        assert_eq!(e * e.inverse(), Element::IDENTITY);
    }

    #[test]
    fn pow_laws() {
        let g = Element::generator();
        let a = Scalar::new(7_000_000);
        let b = Scalar::new(13);
        assert_eq!(g.pow(a) * g.pow(b), g.pow(a + b));
        assert_eq!(g.pow(a).pow(b), g.pow(a * b));
    }

    #[test]
    fn hash_to_group_lands_in_subgroup() {
        for input in [&b"a"[..], b"b", b"itdos", b""] {
            let e = Element::hash_to_group(input);
            assert!(e.is_valid(), "input {input:?}");
        }
        assert_ne!(
            Element::hash_to_group(b"a"),
            Element::hash_to_group(b"b"),
            "distinct inputs map to distinct points (w.h.p.)"
        );
    }

    #[test]
    fn scalar_bytes_round_trip() {
        let s = Scalar::new(424_242);
        assert_eq!(Scalar::from_bytes(s.to_bytes()), s);
        let e = Element::generator().pow(s);
        assert_eq!(Element::from_bytes(e.to_bytes()), e);
    }

    #[test]
    fn from_digest_reduces() {
        let d = Digest::of(b"seed");
        let s = Scalar::from_digest(&d);
        assert!(s.value() < Q);
        assert_eq!(s, Scalar::from_digest(&d), "deterministic");
    }

    #[test]
    fn invalid_elements_rejected() {
        assert!(!Element::from_bytes(0u64.to_le_bytes()).is_valid());
        assert!(!Element::from_bytes(P.to_le_bytes()).is_valid());
        // A non-residue: g^odd is a QR; find a non-QR by taking a known
        // generator of the full group. 5 generates a subgroup containing
        // non-residues since 5^q != 1 unless 5 is a QR.
        let five = pow_mod(5, Q, P);
        if five != 1 {
            assert!(!Element::from_bytes(5u64.to_le_bytes()).is_valid());
        }
    }

    const EDGE_BASES: [u64; 9] = [0, 1, 2, G, H, P - 1, P, P + 1, u64::MAX];

    /// Compares every fast path with [`reference`] at one `(base, exp)`.
    fn assert_kernel_matches(base: u64, exp: u64) {
        let e = Element(base);
        assert_eq!(
            e.pow(Scalar(exp)).0,
            reference::pow(base, exp),
            "{base}^{exp}"
        );
        assert_eq!(
            Element::generator().pow(Scalar(exp)).0,
            reference::pow(G, exp),
            "g^{exp}"
        );
        assert_eq!(e.inverse().0, reference::inverse(base), "1/{base}");
        assert_eq!(e.is_valid(), reference::is_valid(base), "valid {base}");
    }

    /// `pairs` seeded random pairs: mostly bases in `[1, p)` (half of them
    /// residues), every eighth an unreduced `u64`.
    fn sweep(pairs: u64, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in 0..pairs {
            let base = if i % 8 == 0 {
                rng.gen()
            } else {
                rng.gen_range(1..P)
            };
            assert_kernel_matches(base, rng.gen_range(0..Q));
        }
    }

    #[test]
    fn kernel_matches_reference_on_edge_cases() {
        let largest = Scalar::new(u64::MAX).value();
        for base in EDGE_BASES {
            for exp in [0, 1, 2, Q - 1, largest] {
                assert_kernel_matches(base, exp);
            }
        }
        // the table and the window cover every u64 exponent, not just
        // reduced scalars (inverse uses p − 2)
        for exp in [P - 2, P - 1, 1 << 63, u64::MAX, 0x8000_0000_0000_000F] {
            assert_eq!(from_mont(generator_pow(exp)), reference::pow(G, exp));
            for base in EDGE_BASES {
                let fast = from_mont(window_pow(to_mont(base), exp));
                assert_eq!(fast, reference::pow(base, exp), "{base}^{exp}");
            }
        }
    }

    #[test]
    fn kernel_matches_reference_at_random() {
        sweep(2_048, 0x6D6F_6E74);
    }

    #[test]
    fn is_valid_matches_reference_on_small_bases() {
        for x in 1..=65_536u64 {
            assert_eq!(Element(x).is_valid(), reference::is_valid(x), "{x}");
        }
    }

    /// ≥ 2^20 random pairs; CI runs it in release next to the liveness
    /// repro.
    #[test]
    #[ignore = "release-only: cargo test --release -p itdos-crypto --lib -- --ignored kernel_sweep"]
    fn kernel_sweep_matches_reference() {
        sweep(1 << 20, 0x5EED_6B72);
    }

    /// Counted, not timed: `g^e` is one product per non-zero hex digit plus
    /// the conversion out; a general base adds the window's 14 powers, 60
    /// squarings and the conversion in. Square-and-multiply needs ≈ 91.
    #[test]
    fn exponentiation_work_is_bounded() {
        let e = Scalar::new(u64::MAX);
        let before = mont_muls();
        let _ = Element::generator().pow(e);
        let table = mont_muls() - before;
        let _ = Element(H).pow(e);
        let window = mont_muls() - before - table;
        let _ = Element(H).is_valid();
        assert!(table <= 16, "{table} products for g^e");
        assert!(window <= 92, "{window} products for h^e");
        assert_eq!(mont_muls() - before - table - window, 0, "is_valid");
    }
}
