//! # itdos-audit — cross-replica forensic audit for ITDOS dumps
//!
//! The paper's intrusion-tolerance story tells you *that* the system
//! masked a fault (the voter out-voted a corrupt reply, the GM expelled
//! a replica); this crate answers *which replica was faulty, what kind of
//! fault it was, and when the evidence appeared*. It is an offline
//! consumer of the `itdos-obs` telemetry:
//!
//! 1. **Ingest** — a JSONL dump (or several, one per process) is parsed
//!    by `itdos_obs::jsonl::parse_dump`; every flight record carries its
//!    emitting process's scope, and `System::audit_jsonl` embeds the
//!    deployment [`Topology`] as `{"type":"topology",…}` lines, so one
//!    file is a complete forensic artifact with no out-of-band maps.
//! 2. **Merge** — [`merge_dumps`] concatenates the registries and turns
//!    per-process event streams into one causally ordered timeline keyed
//!    by `(sim-time, global seq, scope)`.
//! 3. **Analyze** — three deterministic incremental detectors, driven
//!    by one [`Stream`]: [`DivergenceState`] (voter dissents × client
//!    fault proofs × peer accusations × GM expulsions),
//!    [`ParticipationState`] (silent replicas), and [`LivenessState`]
//!    (primary equivocation, straggler stalls against per-round
//!    decisions, view-change storms, state-transfer loops,
//!    phase-latency budgets).
//! 4. **Score** — every finding debits the implicated replica's health
//!    (100 = clean, 0 = condemned); [`AuditReport::export_health`]
//!    writes the scores back through `itdos-obs` as the
//!    `replica.health{element}` gauge.
//!
//! Like everything in the workspace, the output is a pure function of
//! the input bytes: this crate is held to the L2 determinism rule
//! (`clippy.toml`), stores everything in `BTreeMap`s, and never reads a
//! clock, so identical seeded runs produce byte-identical reports.

#![warn(missing_docs)]
// L3 panic-freedom: hostile input surfaces as a typed error or a drop,
// never as a panic (DESIGN.md §8)
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod analyze;
pub mod report;
pub mod stream;
pub mod topology;

pub use analyze::{
    AuditConfig, DivergenceState, EventView, Finding, LivenessState, MetricsFacts,
    ParticipationState, PhaseFact, Severity,
};
pub use report::{AuditReport, TimelineSummary};
pub use stream::Stream;
pub use topology::{ElementInfo, Topology};

use analyze::{Head, Sink};
use itdos_obs::jsonl::{merge_events, parse_dump, Dump};

/// The audit pipeline: a topology and a configuration.
#[derive(Debug)]
pub struct Auditor {
    topology: Topology,
    config: AuditConfig,
}

impl Auditor {
    /// An auditor with the default pipeline and budgets.
    pub fn new(topology: Topology) -> Auditor {
        Auditor::with_config(topology, AuditConfig::default())
    }

    /// An auditor with explicit budgets.
    pub fn with_config(topology: Topology, config: AuditConfig) -> Auditor {
        Auditor { topology, config }
    }

    /// An auditor whose topology is read from the dump itself (the
    /// `{"type":"topology",…}` lines `System::audit_jsonl` embeds).
    pub fn from_dump_text(text: &str) -> Result<Auditor, String> {
        let dump = parse_dump(text)?;
        let topology = Topology::from_dump(&dump).ok_or("dump carries no topology records")?;
        Ok(Auditor::new(topology))
    }

    /// The topology under audit.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Audits one dump.
    pub fn audit(&self, text: &str) -> Result<AuditReport, String> {
        self.audit_streams(&[text])
    }

    /// Audits several per-process dumps as one system ([`merge_dumps`]).
    pub fn audit_streams(&self, texts: &[&str]) -> Result<AuditReport, String> {
        Ok(self.audit_dump(&merge_dumps(texts)?))
    }

    /// A live [`Stream`] with this auditor's topology and budgets — the
    /// exact pipeline `Auditor::audit_dump` replays a finished dump
    /// through.
    pub fn stream(&self) -> Stream {
        Stream::with_config(self.topology.clone(), self.config.clone())
    }

    /// Audits a merged dump ([`merge_dumps`]). This *is* the streaming
    /// pipeline: the dump's events replay through a fresh [`Stream`], so
    /// batch and live audits of the same run are byte-identical by
    /// construction.
    pub(crate) fn audit_dump(&self, dump: &Dump) -> AuditReport {
        let mut stream = self.stream();
        for e in &dump.events {
            stream.observe(e);
        }
        stream.report(&MetricsFacts::from_dump(dump))
    }
}

/// Parses per-process dumps into one: registries concatenated and the
/// event streams merged into a single causally ordered timeline — what
/// both the batch audit and an incremental replay run over.
///
/// # Errors
///
/// The first dump that does not parse.
pub fn merge_dumps(texts: &[&str]) -> Result<Dump, String> {
    let mut combined = Dump::default();
    let mut streams = Vec::with_capacity(texts.len());
    for text in texts {
        let mut dump = parse_dump(text)?;
        streams.push(std::mem::take(&mut dump.events));
        combined.counters.append(&mut dump.counters);
        combined.gauges.append(&mut dump.gauges);
        combined.histograms.append(&mut dump.histograms);
        combined.extras.append(&mut dump.extras);
    }
    combined.events = merge_events(streams);
    Ok(combined)
}

/// The Info finding reporting a truncated timeline (`evicted` events
/// lost to ring eviction before the audit saw them).
pub(crate) fn truncation_finding(evicted: u64, out: &mut impl Sink) {
    let head = Head {
        analyzer: "timeline",
        severity: Severity::Info,
        kind: "truncated",
        element: None,
        domain: None,
        count: evicted,
    };
    out.emit(head, || {
        format!(
            "{evicted} event(s) evicted from the flight ring before the dump; \
             early evidence may be missing (raise the flight capacity)"
        )
    });
}

/// The Info finding reporting tap loss: the live streaming audit's
/// bounded subscription tap overflowed, so `dropped` events reached the
/// flight ring but never the live detectors. The verdict may be
/// degraded relative to a batch replay of the full dump — reported
/// explicitly instead of letting the two silently diverge.
pub(crate) fn degraded_finding(dropped: u64, out: &mut impl Sink) {
    let head = Head {
        analyzer: "timeline",
        severity: Severity::Info,
        kind: "degraded",
        element: None,
        domain: None,
        count: dropped,
    };
    out.emit(head, || {
        format!(
            "{dropped} event(s) overflowed the streaming-audit tap; the live \
             verdict may lag the batch replay (raise the tap capacity)"
        )
    });
}

/// The one finding order every report uses: most severe first, with a
/// full key ordering so the output is stable no matter how analyzers
/// interleave their findings.
pub(crate) fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.element.cmp(&b.element))
            .then_with(|| a.analyzer.cmp(b.analyzer))
            .then_with(|| a.kind.cmp(b.kind))
            .then_with(|| a.detail.cmp(&b.detail))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use itdos_obs::{Fact, LabelValue};

    fn topo() -> Topology {
        let mut t = Topology {
            gm_domain: 0,
            ..Topology::default()
        };
        t.domain_f.insert(0, 1);
        t.domain_f.insert(1, 1);
        for index in 0..4u64 {
            t.elements.insert(
                index,
                ElementInfo {
                    domain: 0,
                    index,
                    scope: 1_000_000 + index,
                },
            );
            t.elements.insert(
                4 + index,
                ElementInfo {
                    domain: 1,
                    index,
                    scope: 1_000_004 + index,
                },
            );
        }
        t.clients.insert(1, 1);
        t
    }

    /// The dump line the recorder writes for `fact`.
    fn event(seq: u64, at_us: u64, scope: u64, fact: Fact<'static>) -> String {
        let labels: Vec<String> = fact
            .labels()
            .iter()
            .map(|(k, v)| match v {
                LabelValue::U64(n) => format!("\"{k}\":{n}"),
                LabelValue::Str(s) => format!("\"{k}\":\"{s}\""),
            })
            .collect();
        format!(
            "{{\"type\":\"event\",\"seq\":{seq},\"at_us\":{at_us},\"scope\":{scope},\"kind\":\"{}\",\"labels\":{{{}}}}}\n",
            fact.kind(),
            labels.join(",")
        )
    }

    #[test]
    fn dissent_and_proof_localize_divergence() {
        let mut dump = String::new();
        dump.push_str(&event(
            0,
            10,
            1,
            Fact::VoteDissent {
                request: 1,
                sender: 7,
            },
        ));
        dump.push_str(&event(
            1,
            12,
            1,
            Fact::ClientAccused {
                client: 1,
                request: 1,
                accused: 7,
            },
        ));
        dump.push_str(&event(
            2,
            90,
            1_000_000,
            Fact::GmExpelled {
                domain: 1,
                element: 7,
            },
        ));
        let report = Auditor::new(topo()).audit(&dump).unwrap();
        assert_eq!(report.blamed_elements(), vec![7]);
        let f = &report.findings[0];
        assert_eq!((f.severity, f.kind), (Severity::Blame, "divergence"));
        assert_eq!(f.domain, Some(1));
        assert!(f.detail.contains("1 signed fault proof"));
        assert!(f.detail.contains("expelled by GM"));
        assert!(report.health[&7] < 100, "blame debits health");
        assert_eq!(report.health[&4], 100, "peers untouched");
    }

    #[test]
    fn silent_replica_blamed_only_when_domain_served_traffic() {
        let mut dump = String::new();
        for e in [4u64, 5, 6] {
            dump.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":\"element.replies\",\"labels\":{{\"element\":{e}}},\"value\":3}}\n"
            ));
        }
        let report = Auditor::new(topo()).audit(&dump).unwrap();
        assert_eq!(report.blamed_elements(), vec![7], "the quiet one");
        assert_eq!(report.findings[0].kind, "silent");
        // with no replies at all the domain proves nothing
        let empty = Auditor::new(topo()).audit("").unwrap();
        assert!(empty.blamed_elements().is_empty());
        assert_eq!(empty.health.values().filter(|&&h| h == 100).count(), 8);
    }

    #[test]
    fn pre_admission_silence_is_benign_post_admission_silence_is_not() {
        // elements 4..6 of domain 1 replied; element 7 never did — but it
        // was admitted mid-run (replica replacement), after which the
        // domain served nothing: benign, reported as Info only
        let mut dump = String::new();
        for e in [4u64, 5, 6] {
            dump.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":\"element.replies\",\"labels\":{{\"element\":{e}}},\"value\":3}}\n"
            ));
        }
        dump.push_str(&event(
            0,
            40,
            1,
            Fact::VoteReply {
                request: 1,
                sender: 4,
            },
        ));
        dump.push_str(&event(
            1,
            500,
            1_000_000,
            Fact::GmAdmitted {
                domain: 1,
                element: 7,
                replaced: 6,
                epoch: 1,
            },
        ));
        let report = Auditor::new(topo()).audit(&dump).unwrap();
        assert!(
            report.blamed_elements().is_empty(),
            "pre-admission silence smeared: {}",
            report.render()
        );
        assert!(report.findings.iter().any(|f| f.kind == "quiet-joiner"
            && f.element == Some(7)
            && f.severity == Severity::Info));
        assert_eq!(report.health[&7], 100, "no health debit for the joiner");

        // …but once peers answer voted rounds AFTER the admission and the
        // joiner still says nothing, the silence is real
        dump.push_str(&event(
            2,
            900,
            1,
            Fact::VoteReply {
                request: 2,
                sender: 4,
            },
        ));
        dump.push_str(&event(
            3,
            905,
            1,
            Fact::VoteReply {
                request: 2,
                sender: 5,
            },
        ));
        let report = Auditor::new(topo()).audit(&dump).unwrap();
        assert_eq!(report.blamed_elements(), vec![7]);
        let f = &report.findings[0];
        assert_eq!((f.kind, f.count), ("silent", 2));
        assert!(f.detail.contains("after its admission"));
    }

    #[test]
    fn stalls_respect_round_markers() {
        let c = AuditConfig::default();
        let late = c.stall_budget_us + 1;
        let mut dump = String::new();
        // round 1: decided at t=100, element 6 replies way past budget
        dump.push_str(&event(0, 50, 1, Fact::VoteBegin { request: 1 }));
        dump.push_str(&event(
            1,
            60,
            1,
            Fact::VoteReply {
                request: 1,
                sender: 4,
            },
        ));
        dump.push_str(&event(2, 100, 1, Fact::VoteDecided { request: 1 }));
        dump.push_str(&event(
            3,
            100 + late,
            1,
            Fact::VoteReply {
                request: 1,
                sender: 6,
            },
        ));
        // round 2 reuses request id 1 much later: its pre-decision replies
        // must NOT count as stalls against round 1's decision
        let t2 = 10 * late;
        dump.push_str(&event(4, t2, 1, Fact::VoteBegin { request: 1 }));
        dump.push_str(&event(
            5,
            t2 + 5,
            1,
            Fact::VoteReply {
                request: 1,
                sender: 4,
            },
        ));
        let report = Auditor::new(topo()).audit(&dump).unwrap();
        assert_eq!(report.blamed_elements(), vec![6]);
        assert_eq!(report.findings[0].kind, "stall");
        assert_eq!(report.findings[0].count, 1);
    }

    #[test]
    fn equivocation_blames_the_view_primary() {
        let mut dump = String::new();
        // two backups of domain 1 (elements 5 and 6) refuse contradictory
        // pre-prepares in view 0 -> primary is element 4
        dump.push_str(&event(
            0,
            10,
            1_000_005,
            Fact::BftEquivocation {
                replica: 1,
                seq: 3,
                view: 0,
            },
        ));
        dump.push_str(&event(
            1,
            11,
            1_000_006,
            Fact::BftEquivocation {
                replica: 2,
                seq: 3,
                view: 0,
            },
        ));
        let report = Auditor::new(topo()).audit(&dump).unwrap();
        assert_eq!(report.blamed_elements(), vec![4]);
        let f = &report.findings[0];
        assert_eq!(f.kind, "equivocation");
        assert_eq!(f.count, 1, "same slot reported twice, deduplicated");
    }

    #[test]
    fn truncated_timeline_is_reported_not_ignored() {
        let dump = event(40, 10, 1, Fact::VoteBegin { request: 1 });
        let report = Auditor::new(topo()).audit(&dump).unwrap();
        assert_eq!(report.timeline.evicted, 40);
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == "truncated" && f.severity == Severity::Info));
        assert!(report.render().contains("TRUNCATED"));
    }

    #[test]
    fn streaming_replay_equals_batch_and_surfaces_incrementally() {
        let mut dump = String::new();
        dump.push_str(&event(
            0,
            10,
            1,
            Fact::VoteDissent {
                request: 1,
                sender: 7,
            },
        ));
        dump.push_str(&event(
            1,
            12,
            1,
            Fact::ClientAccused {
                client: 1,
                request: 1,
                accused: 7,
            },
        ));
        dump.push_str(&event(
            2,
            90,
            1_000_000,
            Fact::GmExpelled {
                domain: 1,
                element: 7,
            },
        ));
        for e in [4u64, 5, 6] {
            dump.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":\"element.replies\",\"labels\":{{\"element\":{e}}},\"value\":3}}\n"
            ));
        }
        let auditor = Auditor::new(topo());
        let parsed = merge_dumps(&[&dump]).unwrap();
        let batch = auditor.audit_dump(&parsed);

        let mut stream = auditor.stream();
        let mut surfaced = Vec::new();
        let mut first_at = None;
        for e in &parsed.events {
            let fresh = stream.observe(e);
            if first_at.is_none() && !fresh.is_empty() {
                first_at = Some(e.seq);
            }
            surfaced.extend(fresh);
        }
        let facts = MetricsFacts::from_dump(&parsed);
        surfaced.extend(stream.drain_new(&facts));
        // the divergence blame surfaced at the first dissent event, not
        // at end of run — that is the detection-latency win
        assert_eq!(first_at, Some(0));
        // the full report is byte-identical to the batch audit
        let live = stream.report(&facts);
        assert_eq!(live, batch);
        assert_eq!(live.render(), batch.render());
        // nothing surfaced twice, and everything in the report surfaced
        let mut keys: Vec<_> = surfaced
            .iter()
            .map(|f| (f.analyzer, f.kind, f.element))
            .collect();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), before, "duplicate surfacing");
        assert_eq!(surfaced.len(), batch.findings.len());
        // a second drain with unchanged facts is quiet
        assert!(stream.drain_new(&facts).is_empty());
    }

    #[test]
    fn recently_silent_member_is_caught_inside_the_window() {
        // every element served in an early round, then element 5 went
        // mute while its peers kept voting — the whole-timeline default
        // cannot see it (its all-time reply counter is nonzero), but a
        // decay window judges members on the window's traffic alone
        let mut dump = String::new();
        for e in [4u64, 5, 6, 7] {
            dump.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":\"element.replies\",\"labels\":{{\"element\":{e}}},\"value\":6}}\n"
            ));
        }
        let mut seq = 0;
        for e in [4u64, 5, 6, 7] {
            dump.push_str(&event(
                seq,
                100 + seq,
                1,
                Fact::VoteReply {
                    request: 1,
                    sender: e,
                },
            ));
            seq += 1;
        }
        // a later round: 4, 6, 7 reply, 5 does not
        for e in [4u64, 6, 7] {
            dump.push_str(&event(
                seq,
                500_000 + seq,
                1,
                Fact::VoteReply {
                    request: 2,
                    sender: e,
                },
            ));
            seq += 1;
        }
        // whole-timeline default: element 5 has served, nothing to flag
        let report = Auditor::new(topo()).audit(&dump).unwrap();
        assert!(report.blamed_elements().is_empty());
        // windowed: 5 emitted nothing across the window's voted traffic
        let config = AuditConfig {
            decay_window_us: Some(300_000),
            ..AuditConfig::default()
        };
        let report = Auditor::with_config(topo(), config.clone())
            .audit(&dump)
            .unwrap();
        assert_eq!(report.blamed_elements(), vec![5]);
        let silent = report
            .findings
            .iter()
            .find(|f| f.kind == "silent" && f.element == Some(5))
            .expect("recently-silent finding");
        assert!(silent.detail.contains("decay window"), "{}", silent.detail);
        assert!(report.health[&5] < 100);
        // a member admitted *inside* the window is exempt until the
        // window slides past its admission (a joiner still onboarding
        // must not be expelled by its own healer)
        let mut joiner = dump.clone();
        joiner.push_str(&event(
            seq,
            400_000,
            1_000_000,
            Fact::GmAdmitted {
                domain: 1,
                element: 5,
                replaced: 9,
                epoch: 1,
            },
        ));
        let report = Auditor::with_config(topo(), config).audit(&joiner).unwrap();
        assert!(
            report.blamed_elements().is_empty(),
            "freshly admitted member is exempt: {:?}",
            report.findings
        );
    }

    #[test]
    fn transient_evidence_decays_inside_the_window() {
        // element 5 dissents twice early, then behaves; a late round
        // pushes the timeline "now" far past the blips
        let mut dump = String::new();
        dump.push_str(&event(
            0,
            10,
            1,
            Fact::VoteDissent {
                request: 1,
                sender: 5,
            },
        ));
        dump.push_str(&event(
            1,
            20,
            1,
            Fact::VoteDissent {
                request: 2,
                sender: 5,
            },
        ));
        dump.push_str(&event(2, 10_000, 1, Fact::VoteBegin { request: 9 }));

        // default config: no decay, historical verdict preserved exactly
        let whole = Auditor::new(topo()).audit(&dump).unwrap();
        assert_eq!(whole.blamed_elements(), vec![5]);
        assert_eq!(whole.findings[0].count, 2);
        assert!(whole.health[&5] < 100);

        // a 1ms window anchored at now=10_000us: both blips aged out
        let config = AuditConfig {
            decay_window_us: Some(1_000),
            ..AuditConfig::default()
        };
        let windowed = Auditor::with_config(topo(), config.clone())
            .audit(&dump)
            .unwrap();
        assert!(
            windowed.blamed_elements().is_empty(),
            "decayed blips still blamed: {}",
            windowed.render()
        );
        assert_eq!(windowed.health[&5], 100, "health recovers after decay");

        // …but an expulsion is structural: the blame survives the window
        dump.push_str(&event(
            3,
            10_050,
            1_000_000,
            Fact::GmExpelled {
                domain: 1,
                element: 5,
            },
        ));
        dump.push_str(&event(4, 20_000, 1, Fact::VoteBegin { request: 10 }));
        let expelled = Auditor::with_config(topo(), config).audit(&dump).unwrap();
        assert_eq!(expelled.blamed_elements(), vec![5]);
        let f = expelled
            .findings
            .iter()
            .find(|f| f.kind == "expelled")
            .expect("expulsion finding survives decay");
        assert!(f.detail.contains("aged out"));
        assert!(expelled.health[&5] < 100);
    }

    #[test]
    fn stall_blips_decay_but_default_is_whole_timeline() {
        let c = AuditConfig::default();
        let late = c.stall_budget_us + 1;
        let mut dump = String::new();
        dump.push_str(&event(0, 50, 1, Fact::VoteBegin { request: 1 }));
        dump.push_str(&event(1, 100, 1, Fact::VoteDecided { request: 1 }));
        dump.push_str(&event(
            2,
            100 + late,
            1,
            Fact::VoteReply {
                request: 1,
                sender: 6,
            },
        ));
        // much later traffic moves "now" past the blip
        let far = 100 * late;
        dump.push_str(&event(3, far, 1, Fact::VoteBegin { request: 2 }));
        let whole = Auditor::new(topo()).audit(&dump).unwrap();
        assert_eq!(whole.blamed_elements(), vec![6], "default keeps the stall");
        let windowed = Auditor::with_config(
            topo(),
            AuditConfig {
                decay_window_us: Some(late),
                ..AuditConfig::default()
            },
        )
        .audit(&dump)
        .unwrap();
        assert!(
            windowed.blamed_elements().is_empty(),
            "stall blip aged out: {}",
            windowed.render()
        );
    }

    #[test]
    fn tap_loss_is_reported_as_degraded() {
        let mut dump = String::new();
        dump.push_str(
            "{\"type\":\"counter\",\"name\":\"obs.tap_dropped\",\"labels\":{},\"value\":3}\n",
        );
        dump.push_str(&event(0, 10, 1, Fact::VoteBegin { request: 1 }));
        let report = Auditor::new(topo()).audit(&dump).unwrap();
        let f = report
            .findings
            .iter()
            .find(|f| f.kind == "degraded")
            .expect("tap loss surfaces as a finding");
        assert_eq!(f.severity, Severity::Info);
        assert_eq!(f.count, 3);
        assert_eq!(f.element, None);
        assert!(f.detail.contains("overflowed the streaming-audit tap"));
        assert!(
            report.blamed_elements().is_empty(),
            "info implicates nobody"
        );
        // a clean dump carries no such finding
        let clean = Auditor::new(topo())
            .audit(&event(0, 10, 1, Fact::VoteBegin { request: 1 }))
            .unwrap();
        assert!(clean.findings.iter().all(|f| f.kind != "degraded"));
    }

    #[test]
    fn rejuvenation_retirement_is_info_not_blame() {
        let dump = event(
            0,
            500,
            1_000_000,
            Fact::GmRetired {
                domain: 1,
                element: 6,
            },
        );
        let report = Auditor::new(topo()).audit(&dump).unwrap();
        let f = report
            .findings
            .iter()
            .find(|f| f.kind == "retired")
            .expect("retirement is visible in the report");
        assert_eq!(f.severity, Severity::Info);
        assert_eq!(f.element, Some(6));
        assert!(report.blamed_elements().is_empty());
        assert_eq!(report.health[&6], 100, "rejuvenation costs no health");
    }

    #[test]
    fn departed_culprit_stays_blamed_and_replacement_starts_clean() {
        // domain 1 roster history: 7 silent while 4 and 5 served two
        // voted rounds, expelled at 200us; element 9 admitted into the
        // vacated slot at 400us, after which the domain served nothing
        let mut t = topo();
        t.elements.insert(
            9,
            ElementInfo {
                domain: 1,
                index: 3,
                scope: 1_000_009,
            },
        );
        t.retired.insert(7);
        let mut dump = String::new();
        for e in [4u64, 5, 6] {
            dump.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":\"element.replies\",\"labels\":{{\"element\":{e}}},\"value\":2}}\n"
            ));
        }
        dump.push_str(&event(
            0,
            100,
            1,
            Fact::VoteReply {
                request: 1,
                sender: 4,
            },
        ));
        dump.push_str(&event(
            1,
            105,
            1,
            Fact::VoteReply {
                request: 1,
                sender: 5,
            },
        ));
        dump.push_str(&event(
            2,
            200,
            1_000_000,
            Fact::GmExpelled {
                domain: 1,
                element: 7,
            },
        ));
        dump.push_str(&event(
            3,
            400,
            1_000_000,
            Fact::GmAdmitted {
                domain: 1,
                element: 9,
                replaced: 7,
                epoch: 1,
            },
        ));
        let report = Auditor::new(t).audit(&dump).unwrap();
        // the culprit's tenure silence survives its replacement
        assert_eq!(report.blamed_elements(), vec![7]);
        let f = report
            .findings
            .iter()
            .find(|f| f.kind == "silent" && f.element == Some(7))
            .expect("tenure silence recorded");
        assert_eq!(f.count, 2);
        assert!(f.detail.contains("before its departure at 200us"));
        assert!(report.health[&7] < 100);
        // the joiner inherits nothing from the condemned slot
        assert!(report.findings.iter().any(|f| f.kind == "quiet-joiner"
            && f.element == Some(9)
            && f.severity == Severity::Info));
        assert_eq!(report.health[&9], 100, "fresh joiner starts at 100");
    }

    #[test]
    fn metrics_facts_from_dump_and_registry_agree() {
        use itdos_obs::{LabelValue, Registry};
        let mut registry = Registry::new();
        registry.add("element.replies", &[("element", LabelValue::U64(4))], 3);
        registry.add("element.replies", &[("element", LabelValue::U64(5))], 9);
        registry.add("other.counter", &[], 1);
        for v in [10u64, 2_000_000] {
            registry.observe("bft.order_us", &[("replica", LabelValue::U64(0))], v);
            registry.observe("net.latency_us", &[], v);
        }
        let from_registry = MetricsFacts::from_registry(&registry);
        let mut text = String::new();
        itdos_obs::jsonl::dump_registry(&mut text, &registry);
        let from_dump = MetricsFacts::from_dump(&itdos_obs::jsonl::parse_dump(&text).unwrap());
        assert_eq!(from_registry, from_dump);
        assert_eq!(from_registry.replies[&5], 9);
        assert_eq!(from_registry.phases.len(), 1, "only ordering phases kept");
    }

    #[test]
    fn reports_are_deterministic_and_render_blame() {
        let mut dump = String::new();
        dump.push_str(&event(
            0,
            10,
            1,
            Fact::VoteDissent {
                request: 1,
                sender: 5,
            },
        ));
        let auditor = Auditor::new(topo());
        let a = auditor.audit(&dump).unwrap();
        let b = auditor.audit(&dump).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        assert!(a.render().contains("blame: elements [5]"));
        assert!(a.render().contains("== forensic audit =="));
    }
}
