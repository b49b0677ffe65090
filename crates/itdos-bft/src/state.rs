//! The replicated application interface.
//!
//! PBFT replicates a deterministic state machine \[37\]. The protocol layer
//! drives it through this trait; digests feed checkpoints; snapshots feed
//! state transfer and proactive recovery.

use itdos_crypto::hash::Digest;

/// A deterministic application replicated by the BFT group.
///
/// Implementations must be deterministic: identical operation sequences
/// produce identical results, digests, and snapshots on every correct
/// replica ("without determinism, it is impossible to differentiate
/// between arbitrary faults and non-deterministic behavior", §2).
pub trait StateMachine {
    /// Executes one ordered operation, returning its result bytes.
    ///
    /// `request_digest` is the digest of the client request that carried
    /// `operation` — the value the group agreed on when it ordered the
    /// request, already computed by the protocol. A machine that keeps a
    /// running history digest links this instead of hashing `operation`
    /// again; one that does not may ignore it.
    fn execute(&mut self, operation: &[u8], request_digest: Digest) -> Vec<u8>;

    /// A digest of the current state (checkpoint content).
    fn digest(&self) -> Digest;

    /// Serializes the full state for transfer.
    fn snapshot(&self) -> Vec<u8>;

    /// Replaces the state from a snapshot.
    fn restore(&mut self, snapshot: &[u8]);

    /// True when executing `operation` must force an immediate checkpoint
    /// (a membership-change barrier). Every correct replica answers
    /// identically for the same bytes, so the forced checkpoint lands at
    /// the same sequence number group-wide — giving a joining replica a
    /// checkpoint quorum exactly at its admission point. Default: never.
    fn is_barrier(&self, _operation: &[u8]) -> bool {
        false
    }
}

/// A trivial counter machine used by tests and benches: the operation is
/// an i64 delta (little-endian), the result is the new total.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterMachine {
    total: i64,
    applied: u64,
}

impl CounterMachine {
    /// Creates a zeroed counter.
    pub fn new() -> CounterMachine {
        CounterMachine::default()
    }

    /// The current total.
    pub fn total(&self) -> i64 {
        self.total
    }

    /// Number of operations applied.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Encodes a delta operation.
    pub fn op(delta: i64) -> Vec<u8> {
        delta.to_le_bytes().to_vec()
    }
}

impl StateMachine for CounterMachine {
    fn execute(&mut self, operation: &[u8], _request_digest: Digest) -> Vec<u8> {
        let delta = operation
            .get(..8)
            .and_then(|b| <[u8; 8]>::try_from(b).ok())
            .map(i64::from_le_bytes)
            .unwrap_or(0);
        self.total = self.total.wrapping_add(delta);
        self.applied += 1;
        self.total.to_le_bytes().to_vec()
    }

    fn digest(&self) -> Digest {
        Digest::of_parts(&[
            b"counter",
            &self.total.to_le_bytes(),
            &self.applied.to_le_bytes(),
        ])
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&self.total.to_le_bytes());
        out.extend_from_slice(&self.applied.to_le_bytes());
        out
    }

    fn restore(&mut self, snapshot: &[u8]) {
        let total = snapshot.get(..8).and_then(|b| <[u8; 8]>::try_from(b).ok());
        let applied = snapshot
            .get(8..16)
            .and_then(|b| <[u8; 8]>::try_from(b).ok());
        if let (Some(total), Some(applied)) = (total, applied) {
            self.total = i64::from_le_bytes(total);
            self.applied = u64::from_le_bytes(applied);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_executes_deterministically() {
        let mut a = CounterMachine::new();
        let mut b = CounterMachine::new();
        for delta in [5i64, -3, 100] {
            assert_eq!(
                a.execute(&CounterMachine::op(delta), Digest::default()),
                b.execute(&CounterMachine::op(delta), Digest::default())
            );
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.total(), 102);
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut a = CounterMachine::new();
        a.execute(&CounterMachine::op(7), Digest::default());
        a.execute(&CounterMachine::op(-2), Digest::default());
        let snap = a.snapshot();
        let mut b = CounterMachine::new();
        b.restore(&snap);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn digest_tracks_history_length() {
        // same total via different op counts must differ (applied counts)
        let mut a = CounterMachine::new();
        a.execute(&CounterMachine::op(2), Digest::default());
        let mut b = CounterMachine::new();
        b.execute(&CounterMachine::op(1), Digest::default());
        b.execute(&CounterMachine::op(1), Digest::default());
        assert_eq!(a.total(), b.total());
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn malformed_op_is_a_noop_delta() {
        let mut a = CounterMachine::new();
        a.execute(&[1, 2], Digest::default()); // too short: delta 0, still counts as applied
        assert_eq!(a.total(), 0);
        assert_eq!(a.applied(), 1);
    }
}
