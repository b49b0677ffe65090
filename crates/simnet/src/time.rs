//! Simulated time.
//!
//! The simulator advances a virtual clock in microsecond ticks. Using a
//! newtype keeps simulated instants and durations from being confused with
//! wall-clock values, and keeps every run deterministic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulated clock, in microseconds since simulation start.
///
/// # Examples
///
/// ```
/// use simnet::time::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(3);
/// assert_eq!(t.as_micros(), 3_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// An instant later than every reachable simulation instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from a microsecond count.
    pub fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Returns the instant as microseconds since simulation start.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

/// A span of simulated time, in microseconds.
///
/// # Examples
///
/// ```
/// use simnet::time::SimDuration;
///
/// assert_eq!(SimDuration::from_millis(2), SimDuration::from_micros(2_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from microseconds.
    pub fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from milliseconds.
    pub fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Returns the duration in microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Multiplies the duration by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_is_saturating() {
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
        assert_eq!(SimTime::ZERO.since(SimTime::MAX), SimDuration::ZERO);
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_secs(1).as_micros(), 1_000_000);
        assert_eq!(SimDuration::from_millis(5).as_micros(), 5_000);
    }

    #[test]
    fn since_measures_elapsed_time() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(35);
        assert_eq!(b.since(a), SimDuration::from_micros(25));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_micros(7).to_string(), "7us");
        assert_eq!(SimDuration::from_micros(8).to_string(), "8us");
    }

    #[test]
    fn ordering_follows_micros() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert!(SimDuration::from_millis(1) > SimDuration::from_micros(999));
    }
}
