//! The audit report: findings, per-replica health, and rendering.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use itdos_obs::{LabelValue, Obs};

use crate::analyze::{penalty_weight, Finding, Head, Severity, Sink};
use crate::topology::Topology;

/// Summary of the merged event timeline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TimelineSummary {
    /// Events in the merged timeline.
    pub events: u64,
    /// Smallest sequence number retained.
    pub first_seq: u64,
    /// Largest sequence number retained.
    pub last_seq: u64,
    /// Events evicted from the bounded flight ring before the dump —
    /// nonzero means the timeline is truncated and early evidence is
    /// gone. Reported, never silently ignored.
    pub evicted: u64,
    /// Distinct scopes (processes) that emitted events.
    pub processes: u64,
}

/// Health per element of a topology, scored as findings arrive: every
/// element starts at 100 and loses `penalty_weight(kind) × min(count, 3)`
/// per finding against it, floored at 0. Every debit is non-negative, so
/// the score does not depend on the order findings arrive in.
pub(crate) struct Health(BTreeMap<u64, i64>);

impl Health {
    pub(crate) fn new(topology: &Topology) -> Health {
        Health(topology.elements.keys().map(|&e| (e, 100)).collect())
    }

    pub(crate) fn scores(self) -> BTreeMap<u64, i64> {
        self.0
    }

    fn debit(&mut self, head: &Head) {
        let Some(element) = head.element else { return };
        let Some(slot) = self.0.get_mut(&element) else {
            return;
        };
        *slot =
            (*slot - penalty_weight(head.kind, head.severity) * head.count.min(3) as i64).max(0);
    }
}

/// Scoring reads the heads alone, so no `detail` is formatted for it.
impl Sink for Health {
    fn emit(&mut self, head: Head, _detail: impl FnOnce() -> String) {
        self.debit(&head);
    }
}

/// Health per element of `topology` from a finished finding list.
pub(crate) fn score_health(topology: &Topology, findings: &[Finding]) -> BTreeMap<u64, i64> {
    let mut health = Health::new(topology);
    for f in findings {
        health.debit(&f.head());
    }
    health.scores()
}

/// The auditor's output for one dump.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// All findings, most severe first (ties broken deterministically).
    pub findings: Vec<Finding>,
    /// Health score per element, `0..=100`; every element of the
    /// topology is present, healthy ones at 100.
    pub health: BTreeMap<u64, i64>,
    /// Timeline coverage.
    pub timeline: TimelineSummary,
    /// The topology the analysis ran against.
    pub topology: Topology,
}

impl AuditReport {
    /// Elements concluded faulty (ascending, deduplicated).
    pub fn blamed_elements(&self) -> Vec<u64> {
        let mut blamed: Vec<u64> = self
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Blame)
            .filter_map(|f| f.element)
            .collect();
        blamed.sort_unstable();
        blamed.dedup();
        blamed
    }

    /// Exports the health scores back through the observability layer as
    /// the `replica.health{element}` gauge, so the GM or a drill can read
    /// them like any other metric.
    pub fn export_health(&self, obs: &Obs) {
        for (&element, &health) in &self.health {
            obs.gauge(
                "replica.health",
                &[("element", LabelValue::U64(element))],
                health,
            );
        }
    }

    /// Renders the deterministic human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== forensic audit ==\n");
        let t = &self.timeline;
        if t.events == 0 {
            out.push_str("timeline: no events\n");
        } else {
            let _ = write!(
                out,
                "timeline: {} event(s), seq {}..{}, {} process(es)",
                t.events, t.first_seq, t.last_seq, t.processes
            );
            if t.evicted > 0 {
                let _ = write!(out, " [TRUNCATED: {} earlier event(s) evicted]", t.evicted);
            }
            out.push('\n');
        }
        let blamed = self.blamed_elements();
        if blamed.is_empty() {
            out.push_str("blame: none\n");
        } else {
            let _ = write!(out, "blame: elements [");
            for (i, e) in blamed.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{e}");
            }
            out.push_str("]\n");
        }
        if self.findings.is_empty() {
            out.push_str("findings: none\n");
        } else {
            out.push_str("findings:\n");
            for f in &self.findings {
                let _ = write!(out, "  [{}] {}/{}", f.severity.tag(), f.analyzer, f.kind);
                if let Some(e) = f.element {
                    let _ = write!(out, " element {e}");
                }
                if let Some(d) = f.domain {
                    let _ = write!(out, " (domain {d})");
                }
                let _ = writeln!(out, ": {}", f.detail);
            }
        }
        if !self.health.is_empty() {
            out.push_str("health:\n");
            for (&element, &health) in &self.health {
                let place = self
                    .topology
                    .elements
                    .get(&element)
                    .map(|i| format!("domain {} replica {}", i.domain, i.index))
                    .unwrap_or_else(|| "unknown".to_string());
                let _ = writeln!(out, "  element {element:<4} ({place:<20}) {health:>3}");
            }
        }
        out
    }
}
