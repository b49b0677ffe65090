//! The replica message log: per-(view, seq) certificates and watermarks.

use std::collections::BTreeMap;

use itdos_crypto::hash::Digest;

use crate::config::{GroupConfig, ReplicaId, SeqNo, View};
use crate::message::{Checkpoint, Commit, PrePrepare, Prepare, PreparedProof};

/// The votes of one phase for one entry: at most one per replica, a later
/// vote from a replica replacing its earlier one, kept in replica order.
/// A group has few replicas, so the set is a short vector; cleared in
/// place when its entry is recycled, it counts votes without allocating
/// once warm.
#[derive(Debug, Clone)]
pub struct Votes<T>(Vec<(ReplicaId, T)>);

impl<T> Default for Votes<T> {
    fn default() -> Votes<T> {
        Votes(Vec::new())
    }
}

impl<T> Votes<T> {
    /// Counts `vote` as `replica`'s, replacing any earlier one.
    pub fn insert(&mut self, replica: ReplicaId, vote: T) {
        match self.0.binary_search_by_key(&replica, |(r, _)| *r) {
            Ok(at) => {
                if let Some(held) = self.0.get_mut(at) {
                    held.1 = vote;
                }
            }
            Err(at) => self.0.insert(at, (replica, vote)),
        }
    }

    /// True when `replica` has voted.
    pub fn contains_key(&self, replica: &ReplicaId) -> bool {
        self.0.iter().any(|(r, _)| r == replica)
    }

    /// The votes, in replica order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.0.iter().map(|(_, vote)| vote)
    }

    /// Number of replicas that voted.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when nobody voted.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Certificate state for one sequence number in one view.
#[derive(Debug, Clone, Default)]
pub struct Entry {
    /// The accepted pre-prepare, if any.
    pub pre_prepare: Option<PrePrepare>,
    /// Prepares received (at most one counted per replica).
    pub prepares: Votes<Prepare>,
    /// Commits received (at most one counted per replica).
    pub commits: Votes<Commit>,
    /// Whether this entry's request has been executed.
    pub executed: bool,
}

impl Entry {
    /// Empties the entry for reuse, keeping its vote sets' capacity.
    fn recycle(&mut self) {
        self.pre_prepare = None;
        self.prepares.0.clear();
        self.commits.0.clear();
        self.executed = false;
    }

    /// PBFT `prepared(m, v, n, i)`: pre-prepare plus 2f matching prepares
    /// from *other* replicas (the pre-prepare stands in for the primary's
    /// prepare).
    pub fn prepared(&self, config: &GroupConfig) -> bool {
        let Some(pp) = &self.pre_prepare else {
            return false;
        };
        let matching = self
            .prepares
            .values()
            .filter(|p| p.digest == pp.digest && p.view == pp.view)
            .count();
        matching >= config.prepare_quorum()
    }

    /// PBFT `committed-local(m, v, n, i)`: prepared plus 2f+1 matching
    /// commits (own commit included by the caller inserting it).
    pub(crate) fn committed_local(&self, config: &GroupConfig) -> bool {
        if !self.prepared(config) {
            return false;
        }
        let Some(pp) = &self.pre_prepare else {
            return false;
        };
        let matching = self
            .commits
            .values()
            .filter(|c| c.digest == pp.digest && c.view == pp.view)
            .count();
        matching >= config.quorum()
    }
}

/// The log: entries within the watermark window, plus checkpoint
/// bookkeeping.
#[derive(Debug, Clone)]
pub struct Log {
    entries: BTreeMap<(View, SeqNo), Entry>,
    /// Entries garbage-collected by [`Log::stabilize`], emptied, for the
    /// next sequence numbers to reuse.
    spare: Vec<Entry>,
    /// Low watermark: sequence of the last stable checkpoint.
    low: SeqNo,
    window: u64,
    /// Checkpoint messages by (seq, digest), sender-deduplicated. The full
    /// messages are retained (not just the sender set) so a view change
    /// can embed a real checkpoint certificate proving its stable seq.
    checkpoints: BTreeMap<(SeqNo, Digest), BTreeMap<ReplicaId, Checkpoint>>,
    /// Own checkpoint snapshots retained for state transfer: seq →
    /// (digest, snapshot bytes).
    own_checkpoints: BTreeMap<SeqNo, (Digest, Vec<u8>)>,
}

impl Log {
    /// Creates an empty log with the configured window.
    pub fn new(config: &GroupConfig) -> Log {
        Log {
            entries: BTreeMap::new(),
            spare: Vec::new(),
            low: SeqNo(0),
            window: config.watermark_window,
            checkpoints: BTreeMap::new(),
            own_checkpoints: BTreeMap::new(),
        }
    }

    /// The low watermark `h`.
    pub fn low(&self) -> SeqNo {
        self.low
    }

    /// The high watermark `H = h + window`.
    pub fn high(&self) -> SeqNo {
        SeqNo(self.low.0.saturating_add(self.window))
    }

    /// True when `seq` is inside the acceptance window `(h, H]`.
    pub fn in_window(&self, seq: SeqNo) -> bool {
        seq > self.low && seq <= self.high()
    }

    /// The entry for `(view, seq)`, created on first access from a spare
    /// one when there is one.
    pub fn entry(&mut self, view: View, seq: SeqNo) -> &mut Entry {
        self.entries
            .entry((view, seq))
            .or_insert_with(|| self.spare.pop().unwrap_or_default())
    }

    /// Read-only entry access.
    pub(crate) fn entry_ref(&self, view: View, seq: SeqNo) -> Option<&Entry> {
        self.entries.get(&(view, seq))
    }

    /// Records a checkpoint vote; returns the set size for `(seq, digest)`.
    pub(crate) fn add_checkpoint(&mut self, checkpoint: &Checkpoint) -> usize {
        let set = self
            .checkpoints
            .entry((checkpoint.seq, checkpoint.state_digest))
            .or_default();
        set.insert(checkpoint.replica, *checkpoint);
        set.len()
    }

    /// Number of distinct replicas that checkpointed `(seq, digest)`.
    pub(crate) fn checkpoint_votes(&self, seq: SeqNo, digest: Digest) -> usize {
        self.checkpoints
            .get(&(seq, digest))
            .map(|s| s.len())
            .unwrap_or(0)
    }

    /// A checkpoint certificate for the current stable checkpoint: `needed`
    /// checkpoint messages from distinct replicas agreeing on one digest at
    /// `low()`. Prefers the digest this replica itself checkpointed; falls
    /// back to any digest group reaching the size. Empty at genesis
    /// (`low() == 0`, nothing to prove) or when no group qualifies.
    pub(crate) fn stable_certificate(&self, needed: usize) -> Vec<Checkpoint> {
        if self.low.0 == 0 {
            return Vec::new();
        }
        let own_digest = self.own_checkpoints.get(&self.low).map(|(d, _)| *d);
        let mut fallback = Vec::new();
        for ((seq, digest), msgs) in &self.checkpoints {
            if *seq != self.low || msgs.len() < needed {
                continue;
            }
            let cert: Vec<Checkpoint> = msgs.values().take(needed).copied().collect();
            if own_digest == Some(*digest) {
                return cert;
            }
            if fallback.is_empty() {
                fallback = cert;
            }
        }
        fallback
    }

    /// Stores this replica's own checkpoint snapshot for state transfer.
    pub(crate) fn store_own_checkpoint(&mut self, seq: SeqNo, digest: Digest, snapshot: Vec<u8>) {
        self.own_checkpoints.insert(seq, (digest, snapshot));
    }

    /// The snapshot stored at `seq`, if retained.
    pub fn own_checkpoint(&self, seq: SeqNo) -> Option<&(Digest, Vec<u8>)> {
        self.own_checkpoints.get(&seq)
    }

    /// The latest retained own checkpoint at or below `seq`.
    pub fn latest_own_checkpoint(&self) -> Option<(SeqNo, &(Digest, Vec<u8>))> {
        self.own_checkpoints
            .iter()
            .next_back()
            .map(|(s, d)| (*s, d))
    }

    /// Makes `seq` the stable checkpoint: advances the low watermark and
    /// garbage-collects entries, checkpoint votes, and snapshots at or
    /// below it (keeping the stable snapshot itself for state transfer).
    pub(crate) fn stabilize(&mut self, seq: SeqNo) {
        if seq <= self.low {
            return;
        }
        self.low = seq;
        let spare = &mut self.spare;
        self.entries.retain(|(_, s), entry| {
            if *s > seq {
                return true;
            }
            entry.recycle();
            spare.push(std::mem::take(entry));
            false
        });
        self.checkpoints.retain(|(s, _), _| *s >= seq);
        let keep_from = seq;
        self.own_checkpoints.retain(|s, _| *s >= keep_from);
    }

    /// True when some unexecuted entry strictly beyond the next execution
    /// slot (`executed + 1`) holds a full commit certificate: proof that a
    /// live group ordered requests past a gap this replica cannot fill by
    /// itself (it crashed or was partitioned while the traffic flowed).
    pub(crate) fn committed_beyond(&self, executed: SeqNo, config: &GroupConfig) -> bool {
        self.entries.iter().any(|((_, seq), entry)| {
            seq.0 > executed.0.saturating_add(1) && !entry.executed && entry.committed_local(config)
        })
    }

    /// Collects prepared certificates above the stable checkpoint, for a
    /// view-change message.
    pub(crate) fn prepared_proofs(&self, config: &GroupConfig) -> Vec<PreparedProof> {
        let mut out = Vec::new();
        for ((view, seq), entry) in &self.entries {
            if *seq <= self.low || !entry.prepared(config) {
                continue;
            }
            // prepared() implies a pre-prepare is present, but a hostile
            // log state must degrade to "no proof", not a panic
            let Some(pp) = entry.pre_prepare.clone() else {
                continue;
            };
            let prepares: Vec<Prepare> = entry
                .prepares
                .values()
                .filter(|p| p.digest == pp.digest && p.view == *view)
                .take(config.prepare_quorum())
                .copied()
                .collect();
            out.push(PreparedProof {
                pre_prepare: pp,
                prepares,
            });
        }
        out
    }

    /// Number of live entries (diagnostics / GC tests).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClientId;
    use crate::message::ClientRequest;

    fn config() -> GroupConfig {
        GroupConfig::for_f(1)
    }

    fn pre_prepare(view: u64, seq: u64) -> PrePrepare {
        let batch = crate::message::Batch::single(ClientRequest::new(ClientId(1), seq, 0, vec![1]));
        PrePrepare {
            view: View(view),
            seq: SeqNo(seq),
            digest: batch.digest(),
            batch,
        }
    }

    fn prepare_from(pp: &PrePrepare, replica: u32) -> Prepare {
        Prepare {
            view: pp.view,
            seq: pp.seq,
            digest: pp.digest,
            replica: ReplicaId(replica),
        }
    }

    fn commit_from(pp: &PrePrepare, replica: u32) -> Commit {
        Commit {
            view: pp.view,
            seq: pp.seq,
            digest: pp.digest,
            replica: ReplicaId(replica),
        }
    }

    #[test]
    fn prepared_needs_pre_prepare_and_2f_prepares() {
        let cfg = config();
        let mut log = Log::new(&cfg);
        let pp = pre_prepare(0, 1);
        let entry = log.entry(View(0), SeqNo(1));
        assert!(!entry.prepared(&cfg));
        entry.pre_prepare = Some(pp.clone());
        assert!(!entry.prepared(&cfg), "no prepares yet");
        entry.prepares.insert(ReplicaId(1), prepare_from(&pp, 1));
        assert!(!entry.prepared(&cfg), "one prepare insufficient for f=1");
        entry.prepares.insert(ReplicaId(2), prepare_from(&pp, 2));
        assert!(entry.prepared(&cfg));
    }

    #[test]
    fn mismatched_digest_prepares_do_not_count() {
        let cfg = config();
        let mut log = Log::new(&cfg);
        let pp = pre_prepare(0, 1);
        let other = pre_prepare(0, 2); // different digest
        let entry = log.entry(View(0), SeqNo(1));
        entry.pre_prepare = Some(pp.clone());
        entry.prepares.insert(
            ReplicaId(1),
            Prepare {
                digest: other.digest,
                ..prepare_from(&pp, 1)
            },
        );
        entry.prepares.insert(ReplicaId(2), prepare_from(&pp, 2));
        assert!(!entry.prepared(&cfg));
    }

    #[test]
    fn committed_local_needs_quorum_commits() {
        let cfg = config();
        let mut log = Log::new(&cfg);
        let pp = pre_prepare(0, 1);
        let entry = log.entry(View(0), SeqNo(1));
        entry.pre_prepare = Some(pp.clone());
        for i in 1..=2 {
            entry.prepares.insert(ReplicaId(i), prepare_from(&pp, i));
        }
        for i in 0..=1 {
            entry.commits.insert(ReplicaId(i), commit_from(&pp, i));
        }
        assert!(!entry.committed_local(&cfg), "2 commits < quorum 3");
        entry.commits.insert(ReplicaId(2), commit_from(&pp, 2));
        assert!(entry.committed_local(&cfg));
    }

    #[test]
    fn a_later_vote_from_a_replica_replaces_its_earlier_one() {
        let pp = pre_prepare(0, 1);
        let other = pre_prepare(0, 2);
        let mut votes = Votes::default();
        votes.insert(ReplicaId(2), prepare_from(&pp, 2));
        votes.insert(ReplicaId(0), prepare_from(&pp, 0));
        votes.insert(
            ReplicaId(2),
            Prepare {
                digest: other.digest,
                ..prepare_from(&pp, 2)
            },
        );
        assert_eq!(votes.len(), 2, "one vote counted per replica");
        assert!(votes.contains_key(&ReplicaId(0)) && !votes.contains_key(&ReplicaId(1)));
        let held: Vec<(ReplicaId, Digest)> =
            votes.values().map(|p| (p.replica, p.digest)).collect();
        assert_eq!(
            held,
            [(ReplicaId(0), pp.digest), (ReplicaId(2), other.digest)],
            "in replica order, the later vote kept"
        );
    }

    #[test]
    fn a_recycled_entry_starts_empty() {
        let cfg = config();
        let mut log = Log::new(&cfg);
        for seq in 1..=16u64 {
            let pp = pre_prepare(0, seq);
            let entry = log.entry(View(0), SeqNo(seq));
            entry.pre_prepare = Some(pp.clone());
            for i in 0..4 {
                entry.prepares.insert(ReplicaId(i), prepare_from(&pp, i));
                entry.commits.insert(ReplicaId(i), commit_from(&pp, i));
            }
            entry.executed = true;
        }
        log.stabilize(SeqNo(16));
        assert!(log.is_empty());
        assert_eq!(log.spare.len(), 16, "every collected entry kept for reuse");
        // the next sequence numbers, in this view and in a later one, reuse
        // them: empty, and with their vote sets' room kept
        for (view, seq) in [(0, 17u64), (1, 17), (1, 18)] {
            let entry = log.entry(View(view), SeqNo(seq));
            assert!(entry.pre_prepare.is_none() && !entry.executed);
            assert!(entry.prepares.is_empty() && entry.commits.is_empty());
            assert!(entry.prepares.0.capacity() >= 4 && entry.commits.0.capacity() >= 4);
        }
        assert_eq!(log.spare.len(), 13);
    }

    #[test]
    fn watermarks_bound_the_window() {
        let cfg = config();
        let log = Log::new(&cfg);
        assert!(!log.in_window(SeqNo(0)));
        assert!(log.in_window(SeqNo(1)));
        assert!(log.in_window(SeqNo(64)));
        assert!(!log.in_window(SeqNo(65)));
    }

    #[test]
    fn stabilize_garbage_collects() {
        let cfg = config();
        let mut log = Log::new(&cfg);
        for seq in 1..=20u64 {
            let pp = pre_prepare(0, seq);
            log.entry(View(0), SeqNo(seq)).pre_prepare = Some(pp);
        }
        assert_eq!(log.len(), 20);
        log.stabilize(SeqNo(16));
        assert_eq!(log.low(), SeqNo(16));
        assert_eq!(log.len(), 4, "entries <= 16 collected");
        assert!(log.in_window(SeqNo(17)));
        assert!(!log.in_window(SeqNo(16)));
        // stale stabilize is a no-op
        log.stabilize(SeqNo(10));
        assert_eq!(log.low(), SeqNo(16));
    }

    #[test]
    fn checkpoint_votes_deduplicate_by_sender() {
        let cfg = config();
        let mut log = Log::new(&cfg);
        let cp = Checkpoint {
            seq: SeqNo(16),
            state_digest: Digest::of(b"s"),
            replica: ReplicaId(1),
        };
        assert_eq!(log.add_checkpoint(&cp), 1);
        assert_eq!(log.add_checkpoint(&cp), 1, "duplicate sender not counted");
        let cp2 = Checkpoint {
            replica: ReplicaId(2),
            ..cp
        };
        assert_eq!(log.add_checkpoint(&cp2), 2);
    }

    #[test]
    fn prepared_proofs_collects_only_prepared_entries() {
        let cfg = config();
        let mut log = Log::new(&cfg);
        let pp1 = pre_prepare(0, 1);
        let e1 = log.entry(View(0), SeqNo(1));
        e1.pre_prepare = Some(pp1.clone());
        e1.prepares.insert(ReplicaId(1), prepare_from(&pp1, 1));
        e1.prepares.insert(ReplicaId(2), prepare_from(&pp1, 2));
        let pp2 = pre_prepare(0, 2);
        log.entry(View(0), SeqNo(2)).pre_prepare = Some(pp2);
        let proofs = log.prepared_proofs(&cfg);
        assert_eq!(proofs.len(), 1);
        assert_eq!(proofs[0].pre_prepare.seq, SeqNo(1));
        assert_eq!(proofs[0].prepares.len(), 2);
    }

    #[test]
    fn committed_beyond_detects_a_gap() {
        let cfg = config();
        let mut log = Log::new(&cfg);
        // a full commit certificate at seq 6 while nothing below executed
        let pp = pre_prepare(0, 6);
        let entry = log.entry(View(0), SeqNo(6));
        entry.pre_prepare = Some(pp.clone());
        for i in 1..=2 {
            entry.prepares.insert(ReplicaId(i), prepare_from(&pp, i));
        }
        for i in 0..=2 {
            entry.commits.insert(ReplicaId(i), commit_from(&pp, i));
        }
        assert!(log.committed_beyond(SeqNo(0), &cfg), "gap 1..=5 detected");
        // the next execution slot itself does not count as "beyond"
        assert!(!log.committed_beyond(SeqNo(5), &cfg));
        // an executed entry is no longer evidence of a gap
        log.entry(View(0), SeqNo(6)).executed = true;
        assert!(!log.committed_beyond(SeqNo(0), &cfg));
    }

    #[test]
    fn stable_certificate_proves_the_low_watermark() {
        let cfg = config();
        let mut log = Log::new(&cfg);
        assert!(
            log.stable_certificate(2).is_empty(),
            "genesis needs no proof"
        );
        let digest = Digest::of(b"state");
        for i in 0..3u32 {
            log.add_checkpoint(&Checkpoint {
                seq: SeqNo(16),
                state_digest: digest,
                replica: ReplicaId(i),
            });
        }
        log.store_own_checkpoint(SeqNo(16), digest, vec![1]);
        log.stabilize(SeqNo(16));
        let cert = log.stable_certificate(2);
        assert_eq!(cert.len(), 2);
        assert!(cert.iter().all(|c| c.seq == SeqNo(16)));
        assert!(cert.iter().all(|c| c.state_digest == digest));
        assert!(
            log.stable_certificate(4).is_empty(),
            "not enough distinct voters"
        );
    }

    #[test]
    fn stable_certificate_prefers_own_digest() {
        let cfg = config();
        let mut log = Log::new(&cfg);
        let own = Digest::of(b"own");
        let bogus = Digest::of(b"bogus");
        // a Byzantine clique votes a bogus digest; our own digest group
        // also qualifies — the certificate must follow our own state
        for i in 0..2u32 {
            log.add_checkpoint(&Checkpoint {
                seq: SeqNo(16),
                state_digest: bogus,
                replica: ReplicaId(10 + i),
            });
        }
        for i in 0..2u32 {
            log.add_checkpoint(&Checkpoint {
                seq: SeqNo(16),
                state_digest: own,
                replica: ReplicaId(i),
            });
        }
        log.store_own_checkpoint(SeqNo(16), own, vec![1]);
        log.stabilize(SeqNo(16));
        let cert = log.stable_certificate(2);
        assert!(cert.iter().all(|c| c.state_digest == own));
    }

    #[test]
    fn own_checkpoints_retained_for_transfer() {
        let cfg = config();
        let mut log = Log::new(&cfg);
        log.store_own_checkpoint(SeqNo(16), Digest::of(b"a"), vec![1]);
        log.store_own_checkpoint(SeqNo(32), Digest::of(b"b"), vec![2]);
        log.stabilize(SeqNo(32));
        assert!(log.own_checkpoint(SeqNo(16)).is_none(), "old snapshot GCed");
        assert!(log.own_checkpoint(SeqNo(32)).is_some(), "stable kept");
        assert_eq!(log.latest_own_checkpoint().unwrap().0, SeqNo(32));
    }
}
