//! Replica configuration.

use simnet::SimDuration;
use xbytes::wire_struct;

/// Identifies a replica within its BFT group (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplicaId(pub u32);

/// Identifies a BFT client (in ITDOS: a singleton client process or an
/// element of a client replication domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u64);

/// A protocol view number; the primary of view `v` is replica `v mod n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct View(pub u64);

/// A sequence number assigned by the primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SeqNo(pub u64);

wire_struct!(ReplicaId(id));
wire_struct!(ClientId(id));
wire_struct!(View(number));
wire_struct!(SeqNo(number));

/// Static configuration shared by all replicas of one group.
///
/// # Examples
///
/// ```
/// use itdos_bft::config::GroupConfig;
///
/// let cfg = GroupConfig::for_f(1);
/// assert_eq!(cfg.n, 4);
/// assert_eq!(cfg.quorum(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupConfig {
    /// Number of replicas (`n >= 3f + 1`).
    pub n: usize,
    /// Maximum simultaneous Byzantine faults tolerated.
    pub f: usize,
    /// Execute a checkpoint every this many sequence numbers.
    pub checkpoint_interval: u64,
    /// Log window size (`H - h`); pre-prepares outside the window are
    /// refused.
    pub watermark_window: u64,
    /// How long a backup waits on an unexecuted request before starting a
    /// view change.
    pub view_timeout: SimDuration,
    /// Maximum requests the primary packs into one batch (one sequence
    /// number orders one batch). `1` disables batching.
    pub max_batch: usize,
    /// Maximum total operation bytes per batch; a batch always admits at
    /// least one request even if that request alone exceeds the bound.
    pub max_batch_bytes: usize,
    /// Maximum sequence numbers concurrently in flight (assigned but not
    /// yet executed) at the primary. `1` disables pipelining; the watermark
    /// window is always a second, outer bound.
    pub pipeline_depth: u64,
    /// Replies retained per client for exactly-once duplicate suppression.
    /// A client pipelining deeper than this window can have an in-flight
    /// request's cached reply evicted before its retransmission arrives,
    /// silently breaking exactly-once — deployments must keep client
    /// pipeline depths at or below this bound.
    pub client_reply_window: usize,
}

impl GroupConfig {
    /// Minimal configuration tolerating `f` faults with `n = 3f + 1`.
    pub fn for_f(f: usize) -> GroupConfig {
        GroupConfig {
            n: f.saturating_mul(3).saturating_add(1),
            f,
            checkpoint_interval: 16,
            watermark_window: 64,
            view_timeout: SimDuration::from_millis(50),
            max_batch: 8,
            max_batch_bytes: 1 << 20,
            pipeline_depth: 16,
            client_reply_window: 32,
        }
    }

    /// The 2f+1 quorum used for prepared/committed certificates.
    pub fn quorum(&self) -> usize {
        self.prepare_quorum().saturating_add(1)
    }

    /// The 2f matching prepares a prepared certificate holds besides its
    /// pre-prepare.
    pub fn prepare_quorum(&self) -> usize {
        self.f.saturating_mul(2)
    }

    /// The f+1 matching votes of which at least one is correct.
    pub fn weak_quorum(&self) -> usize {
        self.f.saturating_add(1)
    }

    /// The primary of `view`.
    pub fn primary_of(&self, view: View) -> ReplicaId {
        // `validate` holds n ≥ 1, so the remainder exists and fits a u32 id
        let n = u64::try_from(self.n).unwrap_or(u64::MAX);
        let index = view.0.checked_rem(n).and_then(|i| u32::try_from(i).ok());
        ReplicaId(index.unwrap_or(0))
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3f + 1` or the checkpoint interval is zero or larger
    /// than the watermark window.
    pub fn validate(&self) {
        assert!(
            self.f.checked_mul(3).is_some_and(|bound| self.n > bound),
            "n must be at least 3f+1"
        );
        assert!(
            self.checkpoint_interval > 0,
            "checkpoint interval must be positive"
        );
        assert!(
            self.watermark_window >= self.checkpoint_interval,
            "watermark window must cover at least one checkpoint interval"
        );
        assert!(self.max_batch >= 1, "max_batch must be at least 1");
        assert!(
            self.max_batch_bytes >= 1,
            "max_batch_bytes must be at least 1"
        );
        assert!(
            self.pipeline_depth >= 1,
            "pipeline_depth must be at least 1"
        );
        assert!(
            self.client_reply_window >= 1,
            "client_reply_window must be at least 1"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_f_builds_minimal_group() {
        for f in 1..=4 {
            let cfg = GroupConfig::for_f(f);
            cfg.validate();
            assert_eq!(cfg.n, 3 * f + 1);
            assert_eq!(cfg.quorum(), 2 * f + 1);
        }
    }

    #[test]
    fn primary_rotates_by_view() {
        let cfg = GroupConfig::for_f(1);
        assert_eq!(cfg.primary_of(View(0)), ReplicaId(0));
        assert_eq!(cfg.primary_of(View(1)), ReplicaId(1));
        assert_eq!(cfg.primary_of(View(4)), ReplicaId(0));
    }

    #[test]
    #[should_panic(expected = "n must be at least 3f+1")]
    fn undersized_group_rejected() {
        let mut cfg = GroupConfig::for_f(1);
        cfg.n = 3;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "watermark window")]
    fn window_must_cover_checkpoint() {
        let mut cfg = GroupConfig::for_f(1);
        cfg.watermark_window = 8;
        cfg.validate();
    }

    #[test]
    fn unbatched_disables_batching_and_pipelining() {
        // one request per sequence number, one sequence number in flight:
        // the smallest values `validate` accepts
        let cfg = GroupConfig {
            max_batch: 1,
            pipeline_depth: 1,
            ..GroupConfig::for_f(1)
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_batch_rejected() {
        let mut cfg = GroupConfig::for_f(1);
        cfg.max_batch = 0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "pipeline_depth")]
    fn zero_pipeline_rejected() {
        let mut cfg = GroupConfig::for_f(1);
        cfg.pipeline_depth = 0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "client_reply_window")]
    fn zero_reply_window_rejected() {
        let mut cfg = GroupConfig::for_f(1);
        cfg.client_reply_window = 0;
        cfg.validate();
    }
}
