//! Injected clocks.
//!
//! Replica-deterministic crates must never read a wall clock — clippy's
//! `disallowed-methods` (`clippy.toml`, invariant L2) bans
//! `Instant::now`/`SystemTime::now` in them outright, because two
//! heterogeneous replicas reading different clocks diverge. Time therefore
//! enters the observability layer only through the [`Clock`] trait: in
//! simulation the driver mirrors `SimTime` into a [`ManualClock`] after
//! every event. A wall-clock implementation, should a tool need one, lives
//! outside the deterministic crates.

use std::sync::atomic::{AtomicU64, Ordering};

/// Source of "now" for event timestamps and span timing, in microseconds
/// since an arbitrary epoch.
///
/// `Send + Sync` so instrumented protocol state machines keep the
/// thread-safety their API contract promises (`Replica: Send`).
pub trait Clock: Send + Sync {
    /// Current time in microseconds.
    fn now_micros(&self) -> u64;
}

/// A clock that only moves when told to — the deterministic default.
///
/// Shared as `Arc<ManualClock>` between the recorder (which reads it) and
/// the driver (which advances it from simulation time). Interior
/// mutability keeps the driver's handle immutable.
#[derive(Debug, Default)]
pub struct ManualClock {
    micros: AtomicU64,
}

impl ManualClock {
    /// A clock stopped at zero.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Sets absolute time. Never moves backwards: a stale `set` (e.g. from
    /// an out-of-order driver) saturates at the current reading so span
    /// arithmetic stays non-negative.
    pub fn set(&self, micros: u64) {
        self.micros.fetch_max(micros, Ordering::SeqCst);
    }

    /// Advances the clock by `delta` microseconds (saturating).
    pub fn advance(&self, delta: u64) {
        let _ = self
            .micros
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                Some(v.saturating_add(delta))
            });
    }
}

impl Clock for ManualClock {
    fn now_micros(&self) -> u64 {
        self.micros.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_moves_forward_only() {
        let c = ManualClock::new();
        assert_eq!(c.now_micros(), 0);
        c.set(50);
        assert_eq!(c.now_micros(), 50);
        c.set(20); // stale update ignored
        assert_eq!(c.now_micros(), 50);
        c.advance(5);
        assert_eq!(c.now_micros(), 55);
        c.advance(u64::MAX);
        assert_eq!(c.now_micros(), u64::MAX);
    }
}
