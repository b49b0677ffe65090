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
    AuditConfig, DivergenceState, EventView, Finding, Head, Key, LivenessState, MetricsFacts,
    ParticipationState, Sink,
};
use crate::report::{score_health, AuditReport, Health, TimelineSummary};
use crate::topology::Topology;
use crate::{degraded_finding, sort_findings, truncation_finding};

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
    emitted: BTreeSet<Key>,
    /// The buffer [`Stream::surface`] gathers not-yet-surfaced findings
    /// in, kept so a surface that finds nothing new allocates nothing.
    unsurfaced: Vec<Finding>,
}

/// The sink a surface runs the analyzers into. A finding whose key has
/// surfaced can never surface again, so it is dropped on arrival and its
/// `detail` is never formatted; only findings under a new key are kept,
/// prose included. Those are all `sort_findings` needs to order the fresh
/// ones exactly as a full recompute would: a stable sort of a subsequence
/// orders it as the full sort does, and two findings under one new key
/// (an `element: None` tie) arrive together and break their tie on
/// `detail`, as before.
struct Unsurfaced<'a> {
    emitted: &'a BTreeSet<Key>,
    found: &'a mut Vec<Finding>,
}

impl Sink for Unsurfaced<'_> {
    fn emit(&mut self, head: Head, detail: impl FnOnce() -> String) {
        if !self.emitted.contains(&head.key()) {
            self.found.push(head.with_detail(detail()));
        }
    }
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
            unsurfaced: Vec::new(),
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
        if !self.fold(e) {
            return Vec::new();
        }
        self.surface(&MetricsFacts::default())
    }

    /// Folds one event into the timeline and the analyzers; true when an
    /// analyzer's state changed. Every finding that can appear then is
    /// looked for at once — including one no state change produced, such
    /// as an `expelled` finding whose dissent just aged out of the decay
    /// window — so the moments findings surface at stay fixed.
    fn fold(&mut self, e: &impl EventView) -> bool {
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
            return false;
        }
        let mut changed = self.divergence.observe(e);
        changed |= self.participation.observe(e);
        changed |= self.liveness.observe(e, &self.config);
        changed
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

    /// The findings whose key has not surfaced before, in report order,
    /// each marked surfaced. Once warm, it allocates only for what it
    /// returns.
    fn surface(&mut self, facts: &MetricsFacts) -> Vec<Finding> {
        let mut found = std::mem::take(&mut self.unsurfaced);
        self.run(
            facts,
            &mut Unsurfaced {
                emitted: &self.emitted,
                found: &mut found,
            },
        );
        sort_findings(&mut found);
        let mut fresh = Vec::new();
        for f in found.drain(..) {
            if self.emitted.insert(f.head().key()) {
                fresh.push(f);
            }
        }
        self.unsurfaced = found;
        fresh
    }

    /// Runs every analyzer over the current state into `out`.
    fn run(&self, facts: &MetricsFacts, out: &mut impl Sink) {
        let evicted = self.timeline().evicted;
        if evicted > 0 {
            truncation_finding(evicted, out);
        }
        if facts.tap_dropped > 0 {
            degraded_finding(facts.tap_dropped, out);
        }
        self.divergence
            .findings(&self.topology, &self.config, self.now_us, out);
        self.participation
            .findings(&self.topology, &self.config, facts, self.now_us, out);
        self.liveness
            .findings(&self.topology, &self.config, facts, self.now_us, out);
    }

    /// The complete current finding set (sorted exactly as a batch
    /// report sorts), given the registry facts.
    pub fn findings(&self, facts: &MetricsFacts) -> Vec<Finding> {
        let mut findings = Vec::new();
        self.run(facts, &mut findings);
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
    /// analyzers' findings without formatting their prose; equal to
    /// `self.report(facts).health`.
    pub fn health(&self, facts: &MetricsFacts) -> std::collections::BTreeMap<u64, i64> {
        let mut health = Health::new(&self.topology);
        self.run(facts, &mut health);
        health.scores()
    }
}

#[cfg(test)]
impl Stream {
    /// The surface keyed surfacing replaced, kept as its oracle: every
    /// finding recomputed in full, prose included, then filtered by key.
    fn surface_by_recompute(&mut self, facts: &MetricsFacts) -> Vec<Finding> {
        let mut fresh = Vec::new();
        for f in self.findings(facts) {
            if self.emitted.insert(f.head().key()) {
                fresh.push(f);
            }
        }
        fresh
    }

    /// [`Stream::observe`] over the oracle surface.
    fn observe_by_recompute(&mut self, e: &impl EventView) -> Vec<Finding> {
        if !self.fold(e) {
            return Vec::new();
        }
        self.surface_by_recompute(&MetricsFacts::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::PhaseFact;
    use crate::topology::ElementInfo;
    use xrand::rngs::SmallRng;
    use xrand::{Rng, SeedableRng};

    /// A flight event built in place.
    struct Ev {
        seq: u64,
        at_us: u64,
        scope: u64,
        kind: &'static str,
        labels: Vec<(&'static str, u64)>,
    }

    impl EventView for Ev {
        fn seq(&self) -> u64 {
            self.seq
        }

        fn at_us(&self) -> u64 {
            self.at_us
        }

        fn scope(&self) -> u64 {
            self.scope
        }

        fn kind(&self) -> &str {
            self.kind
        }

        fn label_u64(&self, key: &str) -> Option<u64> {
            self.labels.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
        }
    }

    const SCOPE: u64 = 1_000_000;

    /// The GM domain 0 (elements 0..4), server domains 1 (4..8) and 2
    /// (8..12), and element 12 holding domain 1's slot 2 after element
    /// 6 retired.
    fn topology() -> Topology {
        let mut t = Topology::default();
        for domain in 0..3 {
            t.domain_f.insert(domain, 1);
            for index in 0..4 {
                let element = 4 * domain + index;
                let scope = SCOPE + element;
                t.elements.insert(
                    element,
                    ElementInfo {
                        domain,
                        index,
                        scope,
                    },
                );
            }
        }
        t.elements.insert(
            12,
            ElementInfo {
                domain: 1,
                index: 2,
                scope: SCOPE + 12,
            },
        );
        t.retired.insert(6);
        t.clients.insert(1, 1);
        t
    }

    /// Any element, or now and then one the topology does not know.
    fn element(rng: &mut SmallRng) -> u64 {
        rng.gen_range(0..14u64)
    }

    fn random_event(rng: &mut SmallRng, seq: u64, at_us: u64) -> Ev {
        let request = rng.gen_range(0..4u64);
        let (kind, scope, labels): (&'static str, u64, Vec<(&'static str, u64)>) =
            match rng.gen_range(0..16u32) {
                0 => ("vote.begin", 1, vec![("request", request)]),
                1 => ("vote.decided", 1, vec![("request", request)]),
                2..=5 => (
                    "vote.reply",
                    1,
                    vec![("request", request), ("sender", element(rng))],
                ),
                6 => ("vote.dissent", 1, vec![("sender", element(rng))]),
                7 => ("vote.late_dissent", 1, vec![("sender", element(rng))]),
                8 => ("client.accused", 1, vec![("accused", element(rng))]),
                9 => (
                    "element.accuse",
                    SCOPE + element(rng),
                    vec![("accuser", element(rng)), ("accused", element(rng))],
                ),
                10 => ("gm.expelled", SCOPE, vec![("element", element(rng))]),
                11 => ("gm.retired", SCOPE, vec![("element", element(rng))]),
                12 => ("gm.admitted", SCOPE, vec![("element", element(rng))]),
                13 => {
                    let kind = if rng.gen_bool(0.5) {
                        "bft.view_change"
                    } else {
                        "bft.state_fetch"
                    };
                    (kind, SCOPE + element(rng), Vec::new())
                }
                14 => (
                    "bft.equivocation",
                    SCOPE + element(rng),
                    vec![
                        ("view", rng.gen_range(0..6u64)),
                        ("seq", rng.gen_range(0..3u64)),
                    ],
                ),
                _ => ("audit.finding", SCOPE + element(rng), Vec::new()),
            };
        Ev {
            seq,
            at_us,
            scope,
            kind,
            labels,
        }
    }

    /// Registry facts, with phase series that tie on their key (several
    /// `element: None` phase-budget findings at once) and, now and then,
    /// on their prose too.
    fn random_facts(rng: &mut SmallRng) -> MetricsFacts {
        let mut facts = MetricsFacts::default();
        for element in 0..14 {
            if rng.gen_bool(0.6) {
                facts.replies.insert(element, rng.gen_range(0..4u64));
            }
        }
        for _ in 0..rng.gen_range(0..4usize) {
            let name =
                ["bft.prepare_us", "bft.commit_us", "bft.order_us"][rng.gen_range(0..3usize)];
            facts.phases.push(PhaseFact {
                name,
                replica: rng.gen_bool(0.5).then(|| rng.gen_range(0..2u64)),
                count: rng.gen_range(0..3u64),
                p99: [999_999, 1_000_001, 2_000_000][rng.gen_range(0..3usize)],
            });
        }
        if rng.gen_bool(0.2) {
            facts.tap_dropped = rng.gen_range(1..3u64);
        }
        facts
    }

    /// No two findings about an element share a key, so none tie in
    /// report order and the order the analyzers emit them in — a
    /// domain's roster is walked in id order, not slot order — cannot
    /// show in a report or a fresh list.
    fn assert_element_findings_never_tie(findings: &[Finding]) {
        let mut keys = BTreeSet::new();
        for f in findings.iter().filter(|f| f.element.is_some()) {
            assert!(
                keys.insert(f.head().key()),
                "two findings under {:?}",
                f.head().key()
            );
        }
    }

    /// One seeded run: the same random event stream into a keyed stream
    /// and into the oracle, with pumps at random boundaries.
    fn run_against_oracle(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let config = AuditConfig {
            stall_budget_us: 300,
            view_change_storm: 2,
            state_fetch_loop: 2,
            decay_window_us: rng.gen_bool(0.5).then(|| rng.gen_range(200..3_000u64)),
            ..AuditConfig::default()
        };
        let mut keyed = Stream::with_config(topology(), config.clone());
        let mut oracle = Stream::with_config(topology(), config);
        let mut seq = rng.gen_range(0..2u64);
        let mut at_us = 0;
        for step in 0..160 {
            at_us += [0, 1, 50, 400, 2_000][rng.gen_range(0..5usize)];
            let e = random_event(&mut rng, seq, at_us);
            seq += 1;
            assert_eq!(
                keyed.observe(&e),
                oracle.observe_by_recompute(&e),
                "seed {seed} step {step}: {} surfaced differently",
                e.kind
            );
            if rng.gen_bool(0.15) {
                let facts = random_facts(&mut rng);
                assert_eq!(
                    keyed.drain_new(&facts),
                    oracle.surface_by_recompute(&facts),
                    "seed {seed} step {step}: the pump surfaced differently"
                );
                let findings = oracle.findings(&facts);
                assert_eq!(
                    keyed.health(&facts),
                    score_health(&oracle.topology, &findings),
                    "seed {seed} step {step}: health differs"
                );
                assert_element_findings_never_tie(&findings);
            }
        }
        assert_eq!(keyed.emitted, oracle.emitted, "seed {seed}");
    }

    #[test]
    fn keyed_surfacing_equals_the_full_recompute() {
        for seed in 0..100 {
            run_against_oracle(seed);
        }
    }

    /// The exactness trap, scripted: an `expelled` finding no state change
    /// produces, surfacing once the dissent behind it ages out of the
    /// decay window, and two phase-budget findings under one key.
    #[test]
    fn aged_out_expulsion_and_none_ties_surface_as_the_oracle_does() {
        let config = AuditConfig {
            decay_window_us: Some(1_000),
            ..AuditConfig::default()
        };
        let mut keyed = Stream::with_config(topology(), config.clone());
        let mut oracle = Stream::with_config(topology(), config);
        let events = [
            Ev {
                seq: 0,
                at_us: 10,
                scope: 1,
                kind: "vote.dissent",
                labels: vec![("sender", 5)],
            },
            Ev {
                seq: 1,
                at_us: 20,
                scope: SCOPE,
                kind: "gm.expelled",
                labels: vec![("element", 5)],
            },
            Ev {
                seq: 2,
                at_us: 5_000,
                scope: 1,
                kind: "vote.reply",
                labels: vec![("request", 1), ("sender", 4)],
            },
        ];
        let mut surfaced = Vec::new();
        for e in &events {
            let fresh = keyed.observe(e);
            assert_eq!(fresh, oracle.observe_by_recompute(e));
            surfaced.extend(fresh);
        }
        let expelled = surfaced
            .iter()
            .find(|f| f.kind == "expelled")
            .expect("the expulsion surfaced once its dissent aged out");
        assert!(expelled.detail.contains("aged out"));

        let phase = |replica, p99| PhaseFact {
            name: "bft.order_us",
            replica,
            count: 1,
            p99,
        };
        let facts = MetricsFacts {
            phases: vec![phase(Some(1), 3_000_000), phase(None, 2_000_000)],
            ..MetricsFacts::default()
        };
        let fresh = keyed.drain_new(&facts);
        assert_eq!(fresh, oracle.surface_by_recompute(&facts));
        let budget: Vec<&Finding> = fresh.iter().filter(|f| f.kind == "phase-budget").collect();
        assert_eq!(budget.len(), 1, "one finding per key");
        assert_eq!(
            budget[0].detail,
            "bft.order_us (replica index 1): p99 3000000us exceeds the 1000000us budget",
            "the tie breaks on detail"
        );
    }
}
