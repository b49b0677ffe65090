//! Shared helpers for the ITDOS integration-test suite.
//!
//! The centerpiece is [`prop`], a miniature deterministic property-check
//! harness that replaced the external `proptest` dependency when the
//! workspace went hermetic (itdos-lint rule L1): every trial derives its RNG
//! from a fixed master seed, so a failure report's case number reproduces
//! exactly on any machine, with no shrink files or OS entropy involved.

use xrand::rngs::SmallRng;
use xrand::SeedableRng;

pub mod wire_samples;

pub mod prop {
    //! Deterministic mini property-check harness.
    //!
    //! ```
    //! itdos_tests::prop::check("addition commutes", 64, |rng, _case| {
    //!     use xrand::Rng;
    //!     let (a, b): (u64, u64) = (rng.gen(), rng.gen());
    //!     assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
    //! });
    //! ```

    use super::*;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    /// Default number of trials, matching the old `ProptestConfig::with_cases`.
    pub const DEFAULT_CASES: usize = 128;

    /// Runs `body` for `cases` deterministic trials.
    ///
    /// Each trial gets a fresh [`SmallRng`] seeded from a hash of the
    /// property `name` and the case index, so adding or reordering
    /// properties never perturbs another property's stream. On panic, the
    /// failing case index is reported and the panic is re-raised (the trial
    /// is reproducible by its index alone).
    pub fn check(name: &str, cases: usize, mut body: impl FnMut(&mut SmallRng, usize)) {
        for case in 0..cases {
            let mut rng = SmallRng::seed_from_u64(case_seed(name, case));
            if let Err(panic) = catch_unwind(AssertUnwindSafe(|| body(&mut rng, case))) {
                eprintln!("property '{name}' failed at case {case}/{cases} (seed derived from name + case index; rerun reproduces exactly)");
                resume_unwind(panic);
            }
        }
    }

    /// FNV-1a over the property name, mixed with the case index.
    fn case_seed(name: &str, case: usize) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

pub mod arbitrary {
    //! Random generators for wire-level fuzzing of protocol inputs.

    use xrand::rngs::SmallRng;
    use xrand::Rng;

    /// A byte vector with random contents and length in `0..max_len`.
    pub fn bytes(rng: &mut SmallRng, max_len: usize) -> Vec<u8> {
        let len = if max_len == 0 {
            0
        } else {
            rng.gen_range(0..max_len)
        };
        let mut v = vec![0u8; len];
        rng.fill(&mut v);
        v
    }

    /// An ASCII alphanumeric string with length in `0..=max_len`.
    pub fn ascii_string(rng: &mut SmallRng, max_len: usize) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
        let len = rng.gen_range(0..=max_len);
        (0..len)
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    #[test]
    fn check_runs_every_case() {
        let mut seen = Vec::new();
        prop::check("counts", 10, |_rng, case| seen.push(case));
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn check_is_deterministic_per_name_and_case() {
        use xrand::Rng;
        let mut first = Vec::new();
        prop::check("stable", 4, |rng, _| first.push(rng.gen::<u64>()));
        let mut second = Vec::new();
        prop::check("stable", 4, |rng, _| second.push(rng.gen::<u64>()));
        let mut other = Vec::new();
        prop::check("different-name", 4, |rng, _| other.push(rng.gen::<u64>()));
        assert_eq!(first, second);
        assert_ne!(first, other);
    }

    #[test]
    fn failing_property_propagates_panic() {
        let result = catch_unwind(|| {
            prop::check("fails", 8, |_rng, case| assert!(case < 3, "boom at {case}"));
        });
        assert!(result.is_err());
    }

    #[test]
    fn arbitrary_bytes_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(arbitrary::bytes(&mut rng, 16).len() < 16);
            assert!(arbitrary::bytes(&mut rng, 0).is_empty());
            assert!(arbitrary::ascii_string(&mut rng, 12).len() <= 12);
        }
    }
}
