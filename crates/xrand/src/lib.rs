//! Deterministic pseudo-randomness for ITDOS, with no external crates.
//!
//! ITDOS replicas must be deterministic state machines: every byte that can
//! reach a marshalled message or a vote has to replay identically across
//! heterogeneous replicas. That rules out OS entropy at runtime, so this
//! crate deliberately offers **no** `thread_rng`, `from_entropy`, or `OsRng`
//! equivalent — every generator is constructed from an explicit seed that the
//! caller owns. Clippy's `disallowed-methods` (`clippy.toml`, invariant L2)
//! keeps std's own entropy source (`RandomState::new`) out of the workspace.
//!
//! The API mirrors the (tiny) slice of the `rand` crate the workspace
//! actually uses — [`Rng`], [`SeedableRng`], and [`rngs::SmallRng`] — so
//! call sites read identically to upstream `rand`:
//!
//! ```
//! use xrand::rngs::SmallRng;
//! use xrand::{Rng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let x: u64 = rng.gen();
//! let p: f64 = rng.gen();
//! let d = rng.gen_range(0..=9u64);
//! assert!((0.0..1.0).contains(&p));
//! assert!(d <= 9);
//! // same seed, same stream
//! assert_eq!(SmallRng::seed_from_u64(7).gen::<u64>(), x);
//! ```
//!
//! The generator is xoshiro256++ (Blackman & Vigna), seeded through
//! SplitMix64 — the same construction `rand`'s own `SmallRng` family uses on
//! 64-bit targets, chosen here for speed and reproducibility, not for
//! cryptographic strength. Key material must come from `itdos-crypto`
//! derivations instead.

/// Types that can be sampled uniformly from a generator's raw output.
///
/// Mirrors `rand`'s `Standard` distribution for the primitives ITDOS uses.
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for u16 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> u16 {
        (rng.next_u64() >> 48) as u16
    }
}

impl Standard for u8 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> u8 {
        (rng.next_u64() >> 56) as u8
    }
}

impl Standard for usize {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> usize {
        rng.next_u64() as usize
    }
}

impl Standard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision (the standard
    /// `bits >> 11` construction).
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl<const N: usize> Standard for [u8; N] {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> [u8; N] {
        let mut out = [0u8; N];
        rng.fill(&mut out);
        out
    }
}

/// Ranges that [`Rng::gen_range`] accepts.
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draws one value inside the range from `rng`.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Unbiased integer sampling in `[0, bound)` by rejection (Lemire-style
/// threshold on the low word would be faster; rejection keeps it obvious).
fn uniform_below<R: Rng + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    if bound.is_power_of_two() {
        return rng.next_u64() & (bound - 1);
    }
    let zone = u64::MAX - (u64::MAX % bound);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % bound;
        }
    }
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return lo + rng.next_u64() as $t;
                }
                lo + uniform_below(rng, span + 1) as $t
            }
        }
    )*};
}

impl_sample_range_int!(u8, u16, u32, u64, usize);

/// A source of pseudo-random data, mirroring the used subset of `xrand::Rng`.
pub trait Rng {
    /// Returns the next 64 raw bits from the generator.
    fn next_u64(&mut self) -> u64;

    /// Samples a value of type `T` uniformly (per [`Standard`]).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Samples uniformly from `range` (`a..b` or `a..=b`).
    fn gen_range<S: SampleRange>(&mut self, range: S) -> S::Output {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }

    /// Fills `dest` with random bytes.
    fn fill(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let last = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&last[..rem.len()]);
        }
    }
}

impl<T: Rng + ?Sized> Rng for &mut T {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Generators constructible from an explicit seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from 32 bytes of seed material.
    fn from_seed(seed: [u8; 32]) -> Self;

    /// Expands a 64-bit seed into full generator state via SplitMix64.
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64 { state: seed };
        let mut bytes = [0u8; 32];
        for chunk in bytes.chunks_exact_mut(8) {
            chunk.copy_from_slice(&sm.next().to_le_bytes());
        }
        Self::from_seed(bytes)
    }
}

/// SplitMix64 seed expander (public-domain constants from Vigna's reference).
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Concrete generators (mirrors `xrand::rngs`).
pub mod rngs {
    use super::{Rng, SeedableRng, SplitMix64};

    /// xoshiro256++ 1.0 — small, fast, and deterministic.
    ///
    /// Drop-in for the workspace's previous `xrand::rngs::SmallRng` usage;
    /// note the output stream differs from `rand`'s, which only matters for
    /// tests that hard-coded expected draws (none do).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn from_seed(seed: [u8; 32]) -> SmallRng {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            if s == [0; 4] {
                // The all-zero state is a fixed point; re-expand instead.
                let mut sm = SplitMix64 { state: 0xDEAD_BEEF };
                for w in &mut s {
                    *w = sm.next();
                }
            }
            SmallRng { s }
        }
    }

    impl Rng for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::*;

    #[test]
    fn reference_vector_xoshiro256plusplus() {
        // First outputs for state {1, 2, 3, 4}, from the xoshiro reference
        // implementation (prng.di.unimi.it).
        let mut s = [0u8; 32];
        s[0] = 1;
        s[8] = 2;
        s[16] = 3;
        s[24] = 4;
        let mut rng = SmallRng::from_seed(s);
        let expected: [u64; 5] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
        ];
        for e in expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn seed_from_u64_is_deterministic() {
        let a: Vec<u64> = (0..8).map(|_| 0).collect();
        let mut r1 = SmallRng::seed_from_u64(42);
        let mut r2 = SmallRng::seed_from_u64(42);
        let mut r3 = SmallRng::seed_from_u64(43);
        let s1: Vec<u64> = a.iter().map(|_| r1.next_u64()).collect();
        let s2: Vec<u64> = a.iter().map(|_| r2.next_u64()).collect();
        let s3: Vec<u64> = a.iter().map(|_| r3.next_u64()).collect();
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_range(0..=9u64);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "all values in 0..=9 drawn");
        for _ in 0..1000 {
            let v = rng.gen_range(5..8u32);
            assert!((5..8).contains(&v));
        }
        // single-point inclusive range is fine
        assert_eq!(rng.gen_range(3..=3u64), 3);
    }

    #[test]
    fn fill_covers_unaligned_tails() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut buf = [0u8; 13];
        rng.fill(&mut buf);
        assert_ne!(buf, [0u8; 13]);
        let mut big = [0u8; 32];
        SmallRng::seed_from_u64(2).fill(&mut big);
        assert_eq!(&big[..8], &buf[..8], "same seed, same prefix");
    }

    #[test]
    fn f64_samples_are_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..1000 {
            let p: f64 = rng.gen();
            assert!((0.0..1.0).contains(&p));
        }
    }

    #[test]
    fn zero_seed_is_not_a_fixed_point() {
        let mut rng = SmallRng::from_seed([0u8; 32]);
        assert_ne!(rng.next_u64(), 0);
        assert_ne!(rng.next_u64(), rng.next_u64());
    }

    #[test]
    fn works_through_unsized_refs() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> u64 {
            rng.next_u64()
        }
        let mut rng = SmallRng::seed_from_u64(9);
        let a = draw(&mut rng);
        let b = draw(&mut rng);
        assert_ne!(a, b);
    }
}
