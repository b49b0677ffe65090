//! Host-speed calibration.
//!
//! The sizing host is a shared VM that runs at two or three speeds: for
//! tens of seconds at a time everything — set-up, median, p90 — reads
//! ~27 % slower, with no steal time and no local load to blame. Nothing
//! inside a run can average that out, and ten runs of one commit then
//! spread wider than any regression bound worth having.
//!
//! So the runner times a fixed piece of integer work of its own right
//! after every wave and every set-up, and scales each host timing by
//! `NOMINAL_NS / measured`: host figures are reported in *reference
//! microseconds* — what the op would take on a host on which the
//! reference work takes [`NOMINAL_NS`]. The work lives here, not in a
//! product crate, so no product change can move the yardstick; a change
//! to compiler settings moves both, and is its own change to measure.

use std::hint::black_box;
use std::time::Instant;

/// What one call of [`reference_work`] takes on the sizing host at its
/// usual speed. Only a scale: it cancels out of every comparison.
pub const NOMINAL_NS: f64 = 5_000.0;

/// Rounds of the mixing loop: about 5 µs of work.
const ROUNDS: u32 = 1_400;

/// Fixed integer work with SHA-256's flavour — eight words of state,
/// rotates, xors, adds, four short dependent chains a round — so that
/// whatever slows the product's hot loops slows this as much.
pub fn reference_work(seed: u64) -> u64 {
    let mut s = [
        seed,
        0x6a09_e667_f3bc_c908,
        0xbb67_ae85_84ca_a73b,
        0x3c6e_f372_fe94_f82b,
        0xa54f_f53a_5f1d_36f1,
        0x510e_527f_ade6_82d1,
        0x9b05_688c_2b3e_6c1f,
        0x1f83_d9ab_fb41_bd6b,
    ];
    for round in 0..ROUNDS {
        let k = u64::from(round).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        s[0] = s[0].rotate_left(13) ^ s[4].wrapping_add(k);
        s[1] = s[1].rotate_left(29) ^ s[5].wrapping_add(s[0]);
        s[2] = s[2].rotate_left(41) ^ s[6].wrapping_add(s[1]);
        s[3] = s[3].rotate_left(7) ^ s[7].wrapping_add(s[2]);
        s[4] = s[4].wrapping_add(s[3] & s[0] | !s[3] & s[1]);
        s[5] = s[5].wrapping_add(s[0] & s[1] ^ s[0] & s[2] ^ s[1] & s[2]);
        s[6] = s[6].wrapping_mul(0xd6e8_feb8_6659_fd93) ^ s[3];
        s[7] = s[7].wrapping_add(s[6].rotate_right(17));
    }
    s.iter().fold(0, |acc, w| acc ^ w)
}

/// Host ns one call of the reference work takes right now.
pub fn time_reference() -> f64 {
    let clock = Instant::now();
    black_box(reference_work(black_box(0x5eed)));
    clock.elapsed().as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_a_pure_function_of_its_seed() {
        assert_eq!(reference_work(1), reference_work(1));
        assert_ne!(reference_work(1), reference_work(2));
    }
}
