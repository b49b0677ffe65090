//! The streaming auditor: the same detectors the batch pipeline runs,
//! fed one event at a time while the system is still executing.
//!
//! A [`Stream`] owns one instance of each incremental analyzer state
//! ([`DivergenceState`], [`ParticipationState`], [`LivenessState`]) and
//! the same timeline bookkeeping `Auditor::audit_dump` derives post-hoc.
//! Feed it [`EventView`]s — parsed dump records, or raw flight [`Event`]s
//! straight off an `itdos_obs` subscription tap, read in place — in
//! recorded order and it returns each finding *the first time it
//! surfaces*: that is the detection-latency signal a live controller or
//! drill reads. At any point
//! [`Stream::report`] produces a full [`AuditReport`] from the current
//! state, and because `Auditor::audit_dump` is now literally a replay of
//! a finished dump through this same type, a streaming audit and a
//! post-hoc audit of the same run are byte-identical by construction.
//!
//! The stream ignores `audit.*` events (the findings it publishes back
//! into the flight ring) so the pipeline cannot feed on its own output;
//! they still count toward the timeline summary, which keeps the
//! summary equal to what a later batch parse of the dump sees.

use std::collections::BTreeSet;

use itdos_obs::flight::Event;

use crate::analyze::{
    AuditConfig, DivergenceState, EventView, Finding, LivenessState, MetricsFacts,
    ParticipationState,
};
use crate::report::{score_health, AuditReport, TimelineSummary};
use crate::sort_findings;
use crate::topology::Topology;

/// The incremental audit pipeline over a live (or replayed) event feed.
#[derive(Clone, Debug)]
pub struct Stream {
    topology: Topology,
    config: AuditConfig,
    divergence: DivergenceState,
    participation: ParticipationState,
    liveness: LivenessState,
    events: u64,
    first_seq: u64,
    last_seq: u64,
    /// Latest event timestamp observed — the decay-window anchor. Batch
    /// replays derive the same value from the finished timeline, so
    /// windowed verdicts stay streaming == batch.
    now_us: u64,
    scopes: BTreeSet<u64>,
    /// Findings already surfaced, keyed `(analyzer, kind, element)`; a
    /// finding whose evidence count merely grows is not re-surfaced.
    emitted: BTreeSet<(&'static str, &'static str, Option<u64>)>,
}

impl Stream {
    /// A stream with the default budgets.
    pub fn new(topology: Topology) -> Stream {
        Stream::with_config(topology, AuditConfig::default())
    }

    /// A stream with explicit budgets.
    pub fn with_config(topology: Topology, config: AuditConfig) -> Stream {
        Stream {
            topology,
            config,
            divergence: DivergenceState::default(),
            participation: ParticipationState::default(),
            liveness: LivenessState::default(),
            events: 0,
            first_seq: 0,
            last_seq: 0,
            now_us: 0,
            scopes: BTreeSet::new(),
            emitted: BTreeSet::new(),
        }
    }

    /// The topology findings are resolved against.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Replaces the topology (replica replacement admits new elements
    /// mid-run; the batch pass resolves against the final topology, so a
    /// live stream must be told about admissions to stay equivalent).
    pub fn set_topology(&mut self, topology: Topology) {
        self.topology = topology;
    }

    /// Feeds one event; returns the findings that *newly* surfaced
    /// because of it. Only detectors that are pure functions of the event
    /// stream can surface here — silence and phase-budget verdicts also
    /// need registry facts, so they surface from [`Stream::drain_new`]
    /// at the next pump. `audit.*` events only advance the timeline.
    pub fn observe(&mut self, e: &impl EventView) -> Vec<Finding> {
        if self.events == 0 {
            self.first_seq = e.seq();
            self.last_seq = e.seq();
        } else {
            self.first_seq = self.first_seq.min(e.seq());
            self.last_seq = self.last_seq.max(e.seq());
        }
        self.events += 1;
        self.now_us = self.now_us.max(e.at_us());
        self.scopes.insert(e.scope());
        if e.kind().starts_with("audit.") {
            return Vec::new();
        }
        let mut changed = self.divergence.observe(e);
        changed |= self.participation.observe(e);
        changed |= self.liveness.observe(e, &self.config);
        if !changed {
            return Vec::new();
        }
        self.surface(&MetricsFacts::default())
    }

    /// Feeds one raw flight-ring event (from an `itdos_obs` subscription
    /// tap), read in place: a tapped event and its dumped JSONL line are
    /// interchangeable.
    pub fn observe_event(&mut self, event: &Event) -> Vec<Finding> {
        self.observe(event)
    }

    /// Surfaces findings that depend on registry facts (reply counters,
    /// phase histograms) in addition to anything event-driven not yet
    /// reported. Call at a pump boundary with current facts.
    pub fn drain_new(&mut self, facts: &MetricsFacts) -> Vec<Finding> {
        self.surface(facts)
    }

    fn surface(&mut self, facts: &MetricsFacts) -> Vec<Finding> {
        let mut fresh = Vec::new();
        for f in self.findings(facts) {
            let key = (f.analyzer, f.kind, f.element);
            if self.emitted.insert(key) {
                fresh.push(f);
            }
        }
        fresh
    }

    /// The complete current finding set (sorted exactly as a batch
    /// report sorts), given the registry facts.
    pub fn findings(&self, facts: &MetricsFacts) -> Vec<Finding> {
        let mut findings = Vec::new();
        if self.timeline().evicted > 0 {
            findings.push(crate::truncation_finding(self.timeline().evicted));
        }
        if facts.tap_dropped > 0 {
            findings.push(crate::degraded_finding(facts.tap_dropped));
        }
        findings.extend(
            self.divergence
                .findings(&self.topology, &self.config, self.now_us),
        );
        findings.extend(self.participation.findings(
            &self.topology,
            &self.config,
            facts,
            self.now_us,
        ));
        findings.extend(
            self.liveness
                .findings(&self.topology, &self.config, facts, self.now_us),
        );
        sort_findings(&mut findings);
        findings
    }

    /// The timeline summary accumulated so far (identical to what
    /// `Auditor::audit_dump` derives from the finished dump).
    pub fn timeline(&self) -> TimelineSummary {
        if self.events == 0 {
            return TimelineSummary::default();
        }
        TimelineSummary {
            events: self.events,
            first_seq: self.first_seq,
            last_seq: self.last_seq,
            // sequence numbers are global within one recorder: a stream
            // whose smallest seq is nonzero lost that many events
            evicted: self.first_seq,
            processes: self.scopes.len() as u64,
        }
    }

    /// A full audit report from the current state.
    pub fn report(&self, facts: &MetricsFacts) -> AuditReport {
        let findings = self.findings(facts);
        AuditReport {
            health: score_health(&self.topology, &findings),
            findings,
            timeline: self.timeline(),
            topology: self.topology.clone(),
        }
    }

    /// Current per-element health (100 = clean, 0 = condemned) — the
    /// live values exported as the `replica.health` gauge. Scored from the
    /// findings directly; equal to `self.report(facts).health`.
    pub fn health(&self, facts: &MetricsFacts) -> std::collections::BTreeMap<u64, i64> {
        score_health(&self.topology, &self.findings(facts))
    }
}
