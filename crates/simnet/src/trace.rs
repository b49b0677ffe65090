//! Network statistics and optional per-message ledger.
//!
//! The experiment harness (E2, E4, E8) needs exact message and byte counts
//! per protocol phase; senders can attach a static label to each message and
//! the simulator aggregates counts per label, per link, and globally.
//! Dropped copies additionally record *why* they were dropped — random
//! loss, a configured partition, or the adversary — both per ledger entry
//! and in the [`NetStats::dropped_by`] counter map, so a fault drill can
//! distinguish an unlucky network from an attack.

use std::collections::{BTreeMap, VecDeque};

use itdos_obs::{LabelValue, Obs};

use crate::node::NodeId;
use crate::time::SimTime;

/// Default bound on the per-message ledger. Long fault drills generate
/// millions of copies; the ledger keeps only the most recent entries.
pub const DEFAULT_LEDGER_CAP: usize = 65_536;

/// Aggregate counters for one traffic class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter {
    /// Number of messages sent (before loss).
    pub messages: u64,
    /// Total payload bytes sent (before loss).
    pub bytes: u64,
}

impl Counter {
    fn record(&mut self, len: usize) {
        self.messages += 1;
        self.bytes += len as u64;
    }
}

/// Why the network dropped a copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropReason {
    /// Random loss (the `loss_probability` draw).
    Loss,
    /// A configured partition blocked the link.
    Partition,
    /// The adversary returned [`crate::adversary::Verdict::Drop`].
    Adversary,
}

impl DropReason {
    /// Static name, used as a metric label.
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::Loss => "loss",
            DropReason::Partition => "partition",
            DropReason::Adversary => "adversary",
        }
    }
}

/// One entry in the message ledger (recorded only when enabled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerEntry {
    /// Time the message was handed to the network.
    pub sent_at: SimTime,
    /// Sending node.
    pub from: NodeId,
    /// Receiving node (multicasts appear once per receiver).
    pub to: NodeId,
    /// Payload length in bytes.
    pub len: usize,
    /// Sender-supplied label (`""` when unlabeled).
    pub label: &'static str,
    /// Why the network dropped this copy (`None` when delivered).
    pub dropped: Option<DropReason>,
}

/// Network-wide statistics collected during a run.
///
/// # Examples
///
/// ```
/// use simnet::trace::NetStats;
///
/// let stats = NetStats::default();
/// assert_eq!(stats.total.messages, 0);
/// ```
#[derive(Debug, Clone)]
pub struct NetStats {
    /// All traffic.
    pub total: Counter,
    /// Traffic per sender-supplied label.
    pub by_label: BTreeMap<&'static str, Counter>,
    /// Traffic per (from, to) link.
    pub by_link: BTreeMap<(NodeId, NodeId), Counter>,
    /// Copies dropped by loss, partitions, or the adversary.
    pub dropped: u64,
    /// Dropped copies broken down by reason.
    pub dropped_by: BTreeMap<DropReason, u64>,
    ledger_enabled: bool,
    ledger_cap: usize,
    ledger: VecDeque<LedgerEntry>,
}

impl Default for NetStats {
    fn default() -> NetStats {
        NetStats {
            total: Counter::default(),
            by_label: BTreeMap::new(),
            by_link: BTreeMap::new(),
            dropped: 0,
            dropped_by: BTreeMap::new(),
            ledger_enabled: false,
            ledger_cap: DEFAULT_LEDGER_CAP,
            ledger: VecDeque::new(),
        }
    }
}

impl NetStats {
    /// Enables the per-message ledger (disabled by default). The ledger is
    /// bounded by [`DEFAULT_LEDGER_CAP`] and keeps the most recent entries.
    pub fn enable_ledger(&mut self) {
        self.ledger_enabled = true;
    }

    /// The recorded ledger entries, oldest first (empty unless enabled).
    pub fn ledger(&self) -> impl Iterator<Item = &LedgerEntry> {
        self.ledger.iter()
    }

    /// Clears counters and the ledger, keeping the ledger flag and cap.
    pub fn reset(&mut self) {
        let enabled = self.ledger_enabled;
        let cap = self.ledger_cap;
        *self = NetStats::default();
        self.ledger_enabled = enabled;
        self.ledger_cap = cap;
    }

    /// Returns the counter for `label`, zero if the label never appeared.
    pub fn label(&self, label: &'static str) -> Counter {
        self.by_label.get(label).copied().unwrap_or_default()
    }

    /// Mirrors these counters into an [`Obs`] registry under `net.*`
    /// metric names — the bridge that puts simulator traffic and protocol
    /// metrics in one report. Idempotent: values are overwritten, not
    /// accumulated, so it can run after every settle.
    pub fn export_obs(&self, obs: &Obs) {
        if !obs.is_enabled() {
            return;
        }
        obs.counter_set("net.messages", &[], self.total.messages);
        obs.counter_set("net.bytes", &[], self.total.bytes);
        obs.counter_set("net.dropped", &[], self.dropped);
        for (&reason, &count) in &self.dropped_by {
            obs.counter_set(
                "net.dropped",
                &[("reason", LabelValue::Str(reason.as_str()))],
                count,
            );
        }
        for (&label, counter) in &self.by_label {
            let labels = [("label", LabelValue::Str(label))];
            obs.counter_set("net.messages", &labels, counter.messages);
            obs.counter_set("net.bytes", &labels, counter.bytes);
        }
    }

    pub(crate) fn record(
        &mut self,
        sent_at: SimTime,
        from: NodeId,
        to: NodeId,
        len: usize,
        label: &'static str,
        dropped: Option<DropReason>,
    ) {
        match dropped {
            Some(reason) => {
                self.dropped += 1;
                *self.dropped_by.entry(reason).or_insert(0) += 1;
            }
            None => {
                self.total.record(len);
                self.by_label.entry(label).or_default().record(len);
                self.by_link.entry((from, to)).or_default().record(len);
            }
        }
        if self.ledger_enabled && self.ledger_cap > 0 {
            while self.ledger.len() >= self.ledger_cap {
                self.ledger.pop_front();
            }
            self.ledger.push_back(LedgerEntry {
                sent_at,
                from,
                to,
                len,
                label,
                dropped,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::from_raw(i)
    }

    #[test]
    fn counters_accumulate() {
        let mut s = NetStats::default();
        s.record(SimTime::ZERO, n(0), n(1), 10, "a", None);
        s.record(SimTime::ZERO, n(0), n(2), 20, "a", None);
        s.record(SimTime::ZERO, n(1), n(0), 5, "b", None);
        assert_eq!(s.total.messages, 3);
        assert_eq!(s.total.bytes, 35);
        assert_eq!(s.label("a").messages, 2);
        assert_eq!(s.label("a").bytes, 30);
        assert_eq!(s.by_link[&(n(0), n(1))].bytes, 10);
    }

    #[test]
    fn drops_counted_by_reason() {
        let mut s = NetStats::default();
        s.record(SimTime::ZERO, n(0), n(1), 10, "", Some(DropReason::Loss));
        s.record(
            SimTime::ZERO,
            n(0),
            n(1),
            10,
            "",
            Some(DropReason::Partition),
        );
        s.record(
            SimTime::ZERO,
            n(0),
            n(1),
            10,
            "",
            Some(DropReason::Partition),
        );
        assert_eq!(s.dropped, 3);
        assert_eq!(s.dropped_by.get(&DropReason::Loss), Some(&1));
        assert_eq!(s.dropped_by.get(&DropReason::Partition), Some(&2));
        assert_eq!(s.dropped_by.get(&DropReason::Adversary), None);
        assert_eq!(s.total.messages, 0);
    }

    #[test]
    fn ledger_records_when_enabled() {
        let mut s = NetStats::default();
        s.record(SimTime::ZERO, n(0), n(1), 1, "x", None);
        assert_eq!(s.ledger.len(), 0, "ledger off by default");
        s.enable_ledger();
        s.record(
            SimTime::from_micros(5),
            n(0),
            n(1),
            2,
            "y",
            Some(DropReason::Adversary),
        );
        assert_eq!(s.ledger.len(), 1);
        let e = s.ledger().next().unwrap();
        assert_eq!(e.label, "y");
        assert_eq!(e.dropped, Some(DropReason::Adversary));
    }

    #[test]
    fn ledger_cap_keeps_most_recent() {
        let mut s = NetStats::default();
        s.enable_ledger();
        s.ledger_cap = 3;
        for i in 0..10u32 {
            s.record(SimTime::from_micros(i as u64), n(i), n(0), 1, "x", None);
        }
        assert_eq!(s.ledger.len(), 3);
        let froms: Vec<u32> = s.ledger().map(|e| e.from.as_raw()).collect();
        assert_eq!(froms, vec![7, 8, 9], "oldest evicted first");
        // counters are unaffected by eviction
        assert_eq!(s.total.messages, 10);
    }

    #[test]
    fn reset_preserves_ledger_flag_and_cap() {
        let mut s = NetStats::default();
        s.enable_ledger();
        s.ledger_cap = 7;
        s.record(SimTime::ZERO, n(0), n(1), 1, "x", None);
        s.reset();
        assert_eq!(s.total.messages, 0);
        assert_eq!(s.ledger_cap, 7);
        s.record(SimTime::ZERO, n(0), n(1), 1, "x", None);
        assert_eq!(s.ledger.len(), 1, "ledger still enabled after reset");
    }

    #[test]
    fn unknown_label_reads_zero() {
        let s = NetStats::default();
        assert_eq!(s.label("nope"), Counter::default());
    }

    #[test]
    fn export_obs_is_idempotent() {
        let mut s = NetStats::default();
        s.record(SimTime::ZERO, n(0), n(1), 10, "ping", None);
        s.record(SimTime::ZERO, n(0), n(1), 4, "", Some(DropReason::Loss));
        let (obs, _clock) = Obs::manual();
        s.export_obs(&obs);
        s.export_obs(&obs);
        assert_eq!(obs.counter_value("net.messages", &[]), 1);
        assert_eq!(
            obs.counter_value("net.messages", &[("label", LabelValue::Str("ping"))]),
            1
        );
        assert_eq!(
            obs.counter_value("net.dropped", &[("reason", LabelValue::Str("loss"))]),
            1
        );
        // disabled obs: a no-op
        s.export_obs(&Obs::disabled());
    }
}
