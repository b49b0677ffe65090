//! The always-on streaming audit of a system with observability on.

use std::collections::BTreeMap;

use itdos_audit::{AuditConfig, AuditReport, Finding, MetricsFacts, Stream, Topology};
use itdos_obs::{Event, LabelValue, Obs};

/// The incremental audit pipeline [`super::System::settle`] pumps, fed by
/// a flight-tap subscription, and the per-element health it last scored.
pub(super) struct LiveAudit {
    /// Audit budgets shared by the live stream and
    /// [`super::System::audit`] so both judge the run by the same rules
    /// (decay window included).
    pub(super) cfg: AuditConfig,
    sub: u64,
    pub(super) stream: Stream,
    /// Per-element health as the last pump scored it and exported it as
    /// the `replica.health` gauges; what the healing controller acts on.
    pub(super) health: BTreeMap<u64, i64>,
    /// The tapped events and the findings of one pass, kept between pumps
    /// so a warm pump drains into storage it already has.
    events: Vec<Event>,
    fresh: Vec<Finding>,
}

impl LiveAudit {
    /// Subscribes to `obs`'s flight recorder with a tap of `tap` events;
    /// `None` when observability is off.
    pub(super) fn new(obs: &Obs, tap: usize, topology: Topology, cfg: AuditConfig) -> Option<Self> {
        let sub = obs.subscribe(tap)?;
        Some(LiveAudit {
            stream: Stream::with_config(topology, cfg.clone()),
            cfg,
            sub,
            health: BTreeMap::new(),
            events: Vec::new(),
            fresh: Vec::new(),
        })
    }

    /// Drains the flight tap into the incremental analyzers, publishes
    /// findings that newly surfaced as `audit.finding` flight events, and
    /// refreshes the live `replica.health` gauges. Runs two passes so the
    /// published `audit.finding` events are themselves folded back into
    /// the stream's timeline — keeping the live summary equal to what a
    /// post-hoc parse of the final dump sees. Health is scored once, from
    /// the second pass's state: the gauges hold its values either way.
    pub(super) fn pump(&mut self, obs: &Obs) {
        // the registry facts are read once: between the passes only the
        // first pass's `audit.finding` events are recorded, and they move
        // no reply counter or phase histogram
        let mut facts = None;
        for _ in 0..2 {
            self.fresh.clear();
            obs.drain_subscription_into(self.sub, &mut self.events);
            for event in self.events.drain(..) {
                self.fresh.extend(self.stream.observe_event(&event));
            }
            let facts = facts.get_or_insert_with(|| facts_of(obs));
            self.fresh.extend(self.stream.drain_new(facts));
            for f in &self.fresh {
                let labels = [
                    ("analyzer", LabelValue::Str(f.analyzer)),
                    ("kind", LabelValue::Str(f.kind)),
                    // Info 0, Warn 1, Blame 2
                    ("severity", LabelValue::U64(f.severity as u64)),
                    ("count", LabelValue::U64(f.count)),
                    ("element", LabelValue::U64(f.element.unwrap_or(0))),
                ];
                let len = 4 + usize::from(f.element.is_some());
                obs.event("audit.finding", labels.get(..len).unwrap_or(&labels));
            }
        }
        self.stream
            .health_into(&facts.unwrap_or_default(), &mut self.health);
        for (&element, &value) in &self.health {
            obs.gauge(
                "replica.health",
                &[("element", LabelValue::U64(element))],
                value,
            );
        }
    }

    /// The full report the stream's state and the live registry make.
    pub(super) fn report(&self, obs: &Obs) -> AuditReport {
        self.stream.report(&facts_of(obs))
    }
}

/// The registry facts the streaming audit judges against, read live.
fn facts_of(obs: &Obs) -> MetricsFacts {
    obs.with_registry(MetricsFacts::from_registry)
        .unwrap_or_default()
}
