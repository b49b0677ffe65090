//! The deterministic analyzer pipeline — incremental by construction.
//!
//! Every detector is an *incremental state machine*
//! ([`DivergenceState`], [`ParticipationState`], [`LivenessState`]): it
//! folds one event at a time via `observe` — through the borrowed
//! [`EventView`], so a live flight [`Event`] and a parsed [`EventRecord`]
//! are read where they lie — and can surface its current [`Finding`]s at
//! any point. [`crate::Stream`] drives these states live inside a running
//! system, and [`crate::Auditor`] replays a finished dump through the
//! same `Stream` — which is how the streaming == batch equivalence
//! guarantee is structural rather than aspirational.
//!
//! States defer every topology lookup (scope → element, domain
//! membership, view primaries) to finding time, so an element admitted
//! mid-run by replica replacement is resolved against the *final*
//! topology in both modes. Facts that live in the metrics registry
//! rather than the event stream (reply counters, phase histograms) are
//! abstracted as [`MetricsFacts`], constructible identically from a
//! parsed dump or a live registry.
//!
//! The states are pure functions of their input and iterate only ordered
//! structures, so the pipeline's output is byte-stable for identical
//! dumps.

use std::collections::{BTreeMap, BTreeSet};

use itdos_obs::fact::{self, Fact};
use itdos_obs::flight::Event;
use itdos_obs::jsonl::{Dump, EventRecord};
use itdos_obs::metrics::label_u64;
use itdos_obs::Registry;

use crate::topology::Topology;

/// A borrowed view of one flight event — everything the detectors read.
/// Both a live [`Event`] off the subscription tap and an [`EventRecord`]
/// parsed from a dump implement it, so streaming and batch replay share
/// one code path without converting either form into the other.
pub trait EventView {
    /// Global sequence number within the emitting recorder.
    fn seq(&self) -> u64;
    /// Timestamp (µs, injected clock).
    fn at_us(&self) -> u64;
    /// Emitting process's scope.
    fn scope(&self) -> u64;
    /// The fact the event records; `None` for one outside the table.
    fn fact(&self) -> Option<Fact<'_>>;
}

impl EventView for Event {
    fn seq(&self) -> u64 {
        self.seq
    }

    fn at_us(&self) -> u64 {
        self.at_micros
    }

    fn scope(&self) -> u64 {
        self.scope
    }

    fn fact(&self) -> Option<Fact<'_>> {
        Event::fact(self)
    }
}

impl EventView for EventRecord {
    fn seq(&self) -> u64 {
        self.seq
    }

    fn at_us(&self) -> u64 {
        self.at_us
    }

    fn scope(&self) -> u64 {
        self.scope
    }

    fn fact(&self) -> Option<Fact<'_>> {
        EventRecord::fact(self)
    }
}

/// Latency budgets and thresholds the detectors judge against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditConfig {
    /// A voted reply landing this long (µs) after its round's decision is
    /// a stall round for the sender.
    pub stall_budget_us: u64,
    /// Stall rounds needed before a sender is blamed as a straggler.
    pub min_stall_rounds: u64,
    /// View-change attempts by one replica before it counts as a storm.
    pub view_change_storm: u64,
    /// State fetches by one replica before it counts as a transfer loop.
    pub state_fetch_loop: u64,
    /// p99 budget (µs) for the BFT ordering-phase histograms.
    pub phase_budget_us: u64,
    /// Sim-time decay window (µs) for *rate-style* evidence: dissent
    /// rounds, stall rounds, view-change storms, and state-fetch loops
    /// only count occurrences within the trailing window, so a transient
    /// blip stops docking health once it ages out (what a threshold
    /// controller needs to avoid expelling every replica eventually).
    /// Structural facts — fault proofs, accusations, expulsions,
    /// silence — never decay. `None` (the default) disables decay and
    /// preserves the historical whole-timeline verdicts exactly.
    pub decay_window_us: Option<u64>,
}

impl Default for AuditConfig {
    fn default() -> AuditConfig {
        AuditConfig {
            stall_budget_us: 50_000,
            min_stall_rounds: 1,
            view_change_storm: 4,
            state_fetch_loop: 3,
            phase_budget_us: 1_000_000,
            decay_window_us: None,
        }
    }
}

/// Sums a `timestamp → occurrences` evidence series over the configured
/// decay window: everything when `window` is `None`, otherwise only the
/// occurrences within the trailing `window` µs ending at `now_us`. Both
/// the streaming and the batch pass call this with `now_us` = the latest
/// event timestamp, so decay is a deterministic function of the merged
/// timeline, never of a wall clock.
fn windowed_total(times: &BTreeMap<u64, u64>, window: Option<u64>, now_us: u64) -> u64 {
    match window {
        None => times.values().sum(),
        Some(w) => times
            .range(now_us.saturating_sub(w)..)
            .map(|(_, &n)| n)
            .sum(),
    }
}

/// Counts one occurrence at `at_us` in `key`'s timestamped series; true,
/// since a count always changes the state.
fn tick(series: &mut BTreeMap<u64, BTreeMap<u64, u64>>, key: u64, at_us: u64) -> bool {
    *series.entry(key).or_default().entry(at_us).or_insert(0) += 1;
    true
}

/// How strongly a finding implicates its subject.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Context worth reporting; implicates nobody.
    Info,
    /// Suspicious but below the evidence bar for blame.
    Warn,
    /// The subject element is concluded faulty.
    Blame,
}

impl Severity {
    /// Fixed-width display tag.
    pub fn tag(self) -> &'static str {
        match self {
            Severity::Info => "INFO ",
            Severity::Warn => "WARN ",
            Severity::Blame => "BLAME",
        }
    }
}

/// One conclusion drawn from the timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Name of the analyzer that produced it.
    pub analyzer: &'static str,
    /// Evidence strength.
    pub severity: Severity,
    /// Short machine-readable kind (`divergence`, `silent`, `stall`, …).
    pub kind: &'static str,
    /// Implicated element, when the finding localizes to one.
    pub element: Option<u64>,
    /// The element's domain, when known.
    pub domain: Option<u64>,
    /// Number of independent pieces of evidence (rounds, events).
    pub count: u64,
    /// Human-readable explanation, deterministic for identical dumps.
    pub detail: String,
}

impl Finding {
    /// Everything but the prose.
    pub(crate) fn head(&self) -> Head {
        Head {
            analyzer: self.analyzer,
            severity: self.severity,
            kind: self.kind,
            element: self.element,
            domain: self.domain,
            count: self.count,
        }
    }
}

/// A [`Finding`] without its `detail`: what an analyzer concludes before
/// any prose is formatted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Head {
    pub(crate) analyzer: &'static str,
    pub(crate) severity: Severity,
    pub(crate) kind: &'static str,
    pub(crate) element: Option<u64>,
    pub(crate) domain: Option<u64>,
    pub(crate) count: u64,
}

/// The key a stream surfaces a finding under, `(analyzer, kind,
/// element)`: a finding whose evidence count merely grows keeps its key
/// and is not surfaced again.
pub(crate) type Key = (&'static str, &'static str, Option<u64>);

impl Head {
    pub(crate) fn key(&self) -> Key {
        (self.analyzer, self.kind, self.element)
    }

    pub(crate) fn with_detail(self, detail: String) -> Finding {
        Finding {
            analyzer: self.analyzer,
            severity: self.severity,
            kind: self.kind,
            element: self.element,
            domain: self.domain,
            count: self.count,
            detail,
        }
    }
}

/// Where the analyzers put what they conclude. Each analyzer's rules are
/// written once, against this trait: a finding arrives as its [`Head`]
/// plus its `detail` as a closure, so a sink that needs no prose (health
/// scoring, or surfacing a key already surfaced) formats none.
pub(crate) trait Sink {
    /// Receives one finding.
    fn emit(&mut self, head: Head, detail: impl FnOnce() -> String);
}

/// The full findings, prose included.
impl Sink for Vec<Finding> {
    fn emit(&mut self, head: Head, detail: impl FnOnce() -> String) {
        self.push(head.with_detail(detail()));
    }
}

/// One ordering-phase histogram the liveness detector judges against its
/// p99 budget.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseFact {
    /// Histogram series name ([`fact::PREPARE_US`], [`fact::COMMIT_US`]
    /// or [`fact::ORDER_US`]).
    pub name: &'static str,
    /// The `replica` label, when the series carries one.
    pub replica: Option<u64>,
    /// Observation count.
    pub count: u64,
    /// 99th-percentile estimate (µs).
    pub p99: u64,
}

/// The registry-resident facts the detectors need beyond the event
/// timeline. Both constructors iterate deterministically ordered sources
/// (a dump's line order mirrors the registry's `BTreeMap` order), so a
/// live streaming audit and a post-hoc dump audit of the same run read
/// identical facts — the other half of the equivalence guarantee.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsFacts {
    /// [`fact::ELEMENT_REPLIES`] counter per element (first series wins).
    pub replies: BTreeMap<u64, u64>,
    /// Ordering-phase histogram summaries, in series order.
    pub phases: Vec<PhaseFact>,
    /// Events lost at the bounded subscription tap ([`fact::TAP_DROPPED`],
    /// summed across processes). Nonzero means the live streaming audit
    /// saw fewer events than the flight ring recorded — the verdicts may
    /// be degraded, and the report says so instead of diverging silently.
    pub tap_dropped: u64,
}

const PHASE_NAMES: [&str; 3] = [fact::PREPARE_US, fact::COMMIT_US, fact::ORDER_US];

impl MetricsFacts {
    /// Reads the facts back from a parsed dump (the batch path).
    pub fn from_dump(dump: &Dump) -> MetricsFacts {
        let mut facts = MetricsFacts::default();
        for c in &dump.counters {
            if c.name == fact::ELEMENT_REPLIES {
                if let Some(element) = label_u64(&c.labels, fact::ELEMENT) {
                    facts.replies.entry(element).or_insert(c.value);
                }
            }
            if c.name == fact::TAP_DROPPED {
                facts.tap_dropped += c.value;
            }
        }
        for h in &dump.histograms {
            if let Some(&name) = PHASE_NAMES.iter().find(|&&name| name == h.name) {
                facts.phases.push(PhaseFact {
                    name,
                    replica: label_u64(&h.labels, fact::REPLICA),
                    count: h.count,
                    p99: h.p99,
                });
            }
        }
        facts
    }

    /// Reads the facts from a live registry (the streaming path).
    pub fn from_registry(registry: &Registry) -> MetricsFacts {
        let mut facts = MetricsFacts::default();
        for (key, value) in registry.counters() {
            if key.name == fact::ELEMENT_REPLIES {
                if let Some(element) = label_u64(&key.labels, fact::ELEMENT) {
                    facts.replies.entry(element).or_insert(value);
                }
            }
            if key.name == fact::TAP_DROPPED {
                facts.tap_dropped += value;
            }
        }
        for (key, h) in registry.histograms() {
            if PHASE_NAMES.contains(&key.name) {
                facts.phases.push(PhaseFact {
                    name: key.name,
                    replica: label_u64(&key.labels, fact::REPLICA),
                    count: h.count(),
                    p99: h.percentile(99),
                });
            }
        }
        facts
    }
}

/// Health-score penalty per evidence unit for a finding kind. Applied as
/// `weight × min(count, 3)` and clamped so health stays in `0..=100`
/// (the formula documented in DESIGN.md §12).
pub(crate) fn penalty_weight(kind: &str, severity: Severity) -> i64 {
    match kind {
        "divergence" => 30,
        "expelled" => 40,
        "accused" => 25,
        "silent" => 60,
        "stall" => 20,
        "equivocation" => 50,
        "accusation" => 10,
        "view-change-storm" => 5,
        "state-transfer-loop" => 5,
        _ => match severity {
            Severity::Blame => 25,
            Severity::Warn => 5,
            Severity::Info => 0,
        },
    }
}

fn domain_of(topology: &Topology, element: u64) -> Option<u64> {
    topology.elements.get(&element).map(|info| info.domain)
}

/// The `Finding::analyzer` name of each detector.
const DIVERGENCE: &str = "divergence";
const PARTICIPATION: &str = "participation";
const LIVENESS: &str = "liveness";

/// Divergence localization: correlates voter dissents (`vote.dissent`,
/// `vote.late_dissent`), client fault proofs (`client.accused`),
/// element-level accusations (`element.accuse`), and GM expulsions
/// (`gm.expelled`) into per-element blame.
#[derive(Clone, Debug, Default)]
pub struct DivergenceState {
    /// Dissent occurrences per element, timestamped so the decay window
    /// can expire stale rounds: element → `at_us` → count.
    dissent_rounds: BTreeMap<u64, BTreeMap<u64, u64>>,
    proofs: BTreeMap<u64, u64>,
    accusers: BTreeMap<u64, BTreeSet<u64>>,
    expelled: BTreeSet<u64>,
    /// Elements the GM retired proactively (`gm.retired`, the healing
    /// controller's rejuvenation path) — reported as Info, never blame.
    retired: BTreeSet<u64>,
}

impl DivergenceState {
    /// Folds one fact recorded at `at_us` in; true when it changed the
    /// state (i.e. the current findings may differ from before).
    pub fn observe(&mut self, fact: Fact<'_>, at_us: u64) -> bool {
        match fact {
            Fact::VoteDissent { sender, .. } | Fact::VoteLateDissent { sender, .. } => {
                tick(&mut self.dissent_rounds, sender, at_us)
            }
            Fact::ClientAccused { accused, .. } => {
                *self.proofs.entry(accused).or_insert(0) += 1;
                true
            }
            Fact::ElementAccuse { accuser, accused } => {
                self.accusers.entry(accused).or_default().insert(accuser)
            }
            Fact::GmExpelled { element, .. } => self.expelled.insert(element),
            Fact::GmRetired { element, .. } => self.retired.insert(element),
            _ => false,
        }
    }

    /// Findings implied by everything observed so far, handed to `out`.
    /// `now_us` is the latest event timestamp of the timeline; with a
    /// decay window configured, dissent rounds older than the window no
    /// longer count.
    pub(crate) fn findings(
        &self,
        topology: &Topology,
        config: &AuditConfig,
        now_us: u64,
        out: &mut impl Sink,
    ) {
        for (&element, times) in &self.dissent_rounds {
            let rounds = windowed_total(times, config.decay_window_us, now_us);
            if rounds == 0 {
                continue; // every dissent round aged out of the window
            }
            let head = Head {
                analyzer: DIVERGENCE,
                severity: Severity::Blame,
                kind: "divergence",
                element: Some(element),
                domain: domain_of(topology, element),
                count: rounds,
            };
            out.emit(head, || {
                let n_proofs = self.proofs.get(&element).copied().unwrap_or(0);
                let fate = if self.expelled.contains(&element) {
                    "expelled by GM"
                } else {
                    "not expelled"
                };
                format!(
                    "replies diverged from the voted value in {rounds} round(s); \
                     {n_proofs} signed fault proof(s); {fate}"
                )
            });
        }
        for &element in &self.expelled {
            // an expulsion is structural: it must keep debiting health
            // even after the dissent evidence behind it has decayed away,
            // or a culprit could out-wait the window and score clean
            let dissent = self.dissent_rounds.get(&element);
            if dissent
                .is_some_and(|times| windowed_total(times, config.decay_window_us, now_us) > 0)
            {
                continue; // the divergence finding above already covers it
            }
            let head = Head {
                analyzer: DIVERGENCE,
                severity: Severity::Blame,
                kind: "expelled",
                element: Some(element),
                domain: domain_of(topology, element),
                count: 1,
            };
            out.emit(head, || {
                if dissent.is_some() {
                    "expelled by the GM; the dissent evidence has aged out of \
                     the decay window"
                        .to_string()
                } else {
                    "expelled by the GM without recorded value dissent \
                     (laggard / queue-GC path)"
                        .to_string()
                }
            });
        }
        for &element in &self.retired {
            let head = Head {
                analyzer: DIVERGENCE,
                severity: Severity::Info,
                kind: "retired",
                element: Some(element),
                domain: domain_of(topology, element),
                count: 1,
            };
            out.emit(head, || {
                "proactively retired by the GM (rejuvenation); \
                 no fault implied"
                    .to_string()
            });
        }
        for (&accused, who) in &self.accusers {
            let f = domain_of(topology, accused)
                .and_then(|d| topology.domain_f.get(&d).copied())
                .unwrap_or(0);
            let distinct = who.len() as u64;
            let (severity, kind) = if distinct > f {
                (Severity::Blame, "accused")
            } else {
                (Severity::Warn, "accusation")
            };
            let head = Head {
                analyzer: DIVERGENCE,
                severity,
                kind,
                element: Some(accused),
                domain: domain_of(topology, accused),
                count: distinct,
            };
            out.emit(head, || {
                format!("accused by {distinct} distinct peer(s) (f+1 = {})", f + 1)
            });
        }
    }
}

/// Participation check: a server-domain element whose domain served
/// requests but which never emitted a reply is silent. Honest replicas
/// all reply, so a clean run cannot trip this.
///
/// An element admitted mid-run by replica replacement (DESIGN.md §14)
/// could not have replied before it existed, so its pre-admission window
/// is benign: its silence is judged only against the voted rounds its
/// domain served *after* the GM's `gm.admitted` event for it.
///
/// Reply counters
/// come from [`MetricsFacts`] at finding time; the event stream only
/// contributes admission timestamps and voted-reply timestamps (kept per
/// sender so domain membership can be resolved against the *final*
/// topology, exactly as the batch pass does).
#[derive(Clone, Debug, Default)]
pub struct ParticipationState {
    /// Earliest `gm.admitted` timestamp per admitted element (every GM
    /// element records the event; the first one marks the admission).
    admitted_at: BTreeMap<u64, u64>,
    /// Earliest `gm.expelled` / `gm.retired` timestamp per element — the
    /// end of its service tenure. A departed element is judged only on
    /// the voted traffic its domain served *while it was a member*.
    departed_at: BTreeMap<u64, u64>,
    /// `vote.reply` timestamps per sender: `at_us` → occurrences.
    reply_times: BTreeMap<u64, BTreeMap<u64, u64>>,
}

impl ParticipationState {
    /// Folds one fact recorded at `at_us` in; true when it changed the
    /// state.
    pub fn observe(&mut self, fact: Fact<'_>, at_us: u64) -> bool {
        let earliest = |at: &mut u64| {
            *at = (*at).min(at_us);
            true
        };
        match fact {
            Fact::GmAdmitted { element, .. } => {
                earliest(self.admitted_at.entry(element).or_insert(at_us))
            }
            Fact::GmExpelled { element, .. } | Fact::GmRetired { element, .. } => {
                earliest(self.departed_at.entry(element).or_insert(at_us))
            }
            Fact::VoteReply { sender, .. } => tick(&mut self.reply_times, sender, at_us),
            _ => false,
        }
    }

    /// Findings implied by everything observed so far plus the reply
    /// counters in `facts`, handed to `out`.
    pub(crate) fn findings(
        &self,
        topology: &Topology,
        config: &AuditConfig,
        facts: &MetricsFacts,
        now_us: u64,
        out: &mut impl Sink,
    ) {
        for domain in topology.server_domains() {
            // judge the full historical roster, not just the live slots:
            // a culprit's silence record must survive its expulsion and
            // replacement (retired ids stay accountable for their tenure)
            let roster = || topology.domain_roster(domain);
            let replies = |element: u64| facts.replies.get(&element).copied().unwrap_or(0);
            let busiest = roster().map(replies).max().unwrap_or(0);
            if busiest == 0 {
                continue; // the domain saw no traffic; silence proves nothing
            }
            // voted replies by any roster member within a tenure window;
            // a departure recorded before the admission leaves it empty
            let served = |from: u64, until: Option<u64>| -> u64 {
                let upper = match until {
                    Some(u) if u < from => return 0,
                    Some(u) => std::ops::Bound::Excluded(u),
                    None => std::ops::Bound::Unbounded,
                };
                roster()
                    .filter_map(|m| self.reply_times.get(&m))
                    .flat_map(|times| times.range((std::ops::Bound::Included(from), upper)))
                    .map(|(_, &n)| n)
                    .sum()
            };
            let silent = |element: u64, count: u64| Head {
                analyzer: PARTICIPATION,
                severity: Severity::Blame,
                kind: "silent",
                element: Some(element),
                domain: Some(domain),
                count,
            };
            for element in roster() {
                let admitted = self.admitted_at.get(&element).copied();
                let departed = self.departed_at.get(&element).copied();
                if replies(element) != 0 {
                    // the element has served at some point. With a decay
                    // window configured, a member that *stopped* serving
                    // is still catchable: zero own replies across the
                    // window's voted traffic, provided it was a member
                    // for the whole window (a fresh joiner still
                    // onboarding is exempt until the window slides past
                    // its admission)
                    let Some(window) = config.decay_window_us else {
                        continue;
                    };
                    if departed.is_some() {
                        continue;
                    }
                    let window_start = now_us.saturating_sub(window);
                    if admitted.is_some_and(|at| at > window_start) {
                        continue;
                    }
                    let own_recent: u64 = self
                        .reply_times
                        .get(&element)
                        .map(|times| times.range(window_start..).map(|(_, &n)| n).sum())
                        .unwrap_or(0);
                    if own_recent != 0 {
                        continue;
                    }
                    let peer_recent = served(window_start, None);
                    if peer_recent == 0 {
                        continue;
                    }
                    out.emit(silent(element, peer_recent), || {
                        format!(
                            "emitted 0 replies across {peer_recent} voted peer reply(ies) \
                             within the trailing {window}us decay window"
                        )
                    });
                    continue;
                }
                match (admitted, departed) {
                    (Some(admitted), None) => {
                        // voted replies by domain peers after this
                        // admission: only that traffic can convict the
                        // newcomer
                        let post = served(admitted, None);
                        if post == 0 {
                            let head = Head {
                                analyzer: PARTICIPATION,
                                severity: Severity::Info,
                                kind: "quiet-joiner",
                                element: Some(element),
                                domain: Some(domain),
                                count: 0,
                            };
                            out.emit(head, || {
                                format!(
                                    "admitted at {admitted}us; the domain served no voted \
                                     round afterwards, so its silence is benign"
                                )
                            });
                            continue;
                        }
                        out.emit(silent(element, post), || {
                            format!(
                                "emitted 0 replies across {post} voted peer reply(ies) \
                                 after its admission at {admitted}us"
                            )
                        });
                    }
                    (admitted, Some(departed)) => {
                        // expelled or retired mid-run: convictable only
                        // on the voted traffic during its tenure
                        let tenure = served(admitted.unwrap_or(0), Some(departed));
                        if tenure == 0 {
                            continue; // the domain served nothing on its watch
                        }
                        out.emit(silent(element, tenure), || {
                            format!(
                                "emitted 0 replies across {tenure} voted peer reply(ies) \
                                 before its departure at {departed}us"
                            )
                        });
                    }
                    (None, None) => {
                        out.emit(silent(element, busiest), || {
                            format!("emitted 0 replies while a domain peer emitted {busiest}")
                        });
                    }
                }
            }
        }
    }
}

/// Liveness forensics: primary equivocation, straggler stalls against
/// the per-round voting decision, view-change storms, state-transfer
/// loops, and ordering-phase latency budgets.
///
/// The stall tracker is a
/// genuine streaming state machine (decision markers consumed in
/// timeline order); equivocation slots and storm counters are kept per
/// *scope* and resolved to elements/primaries only at finding time so
/// mid-run topology changes land identically in both modes. Phase-budget
/// checks read [`MetricsFacts`] at finding time.
#[derive(Clone, Debug, Default)]
pub struct LivenessState {
    /// Contradictory pre-prepare reports: refuser scope → (view, seq).
    equivocation_slots: BTreeMap<u64, BTreeSet<(u64, u64)>>,
    /// Decision time of the round currently open per (scope, request).
    decided: BTreeMap<(u64, u64), u64>,
    /// Past-budget reply rounds per sender: `at_us` → occurrences, so a
    /// decay window can expire stale stalls.
    stall_rounds: BTreeMap<u64, BTreeMap<u64, u64>>,
    /// `bft.view_change` occurrences per scope: `at_us` → count.
    view_changes: BTreeMap<u64, BTreeMap<u64, u64>>,
    /// `bft.state_fetch` occurrences per scope: `at_us` → count.
    fetches: BTreeMap<u64, BTreeMap<u64, u64>>,
}

impl LivenessState {
    /// Folds one fact `scope` recorded at `at_us` in against `config`'s
    /// budgets; true when it changed what the findings could report.
    pub fn observe(
        &mut self,
        fact: Fact<'_>,
        at_us: u64,
        scope: u64,
        config: &AuditConfig,
    ) -> bool {
        match fact {
            Fact::BftEquivocation { view, seq, .. } => {
                let slots = self.equivocation_slots.entry(scope).or_default();
                slots.insert((view, seq))
            }
            Fact::BftViewChange { .. } => tick(&mut self.view_changes, scope, at_us),
            Fact::BftStateFetch { .. } => tick(&mut self.fetches, scope, at_us),
            // walk the timeline in order, tracking the decision time of
            // the round currently open per (scope, request); `vote.begin`
            // resets the slot so a new round with a recycled request id
            // is never judged against a stale decision
            Fact::VoteBegin { request } => {
                self.decided.remove(&(scope, request));
                false
            }
            Fact::VoteDecided { request } => {
                self.decided.insert((scope, request), at_us);
                false
            }
            Fact::VoteReply { request, sender } => {
                let Some(&at_decided) = self.decided.get(&(scope, request)) else {
                    return false;
                };
                if at_us.saturating_sub(at_decided) <= config.stall_budget_us {
                    return false;
                }
                tick(&mut self.stall_rounds, sender, at_us)
            }
            _ => false,
        }
    }

    /// Findings implied by everything observed so far plus the phase
    /// histograms in `facts`, handed to `out`. `now_us` is the latest
    /// event timestamp of the timeline, the anchor for the decay window.
    pub(crate) fn findings(
        &self,
        topology: &Topology,
        config: &AuditConfig,
        facts: &MetricsFacts,
        now_us: u64,
        out: &mut impl Sink,
    ) {
        self.equivocations(topology, out);
        self.stalls(topology, config, now_us, out);
        self.storms_and_loops(topology, config, now_us, out);
        self.phase_budgets(config, facts, out);
    }

    fn equivocations(&self, topology: &Topology, out: &mut impl Sink) {
        // a `bft.equivocation` event is recorded by the replica that saw
        // the contradictory pre-prepare; the culprit is the primary of
        // that view in the refuser's domain. Several refusers may report
        // the same (view, seq), so dedup per primary.
        let mut contradicted: BTreeMap<u64, BTreeSet<(u64, u64)>> = BTreeMap::new();
        for (&scope, slots) in &self.equivocation_slots {
            let Some(refuser) = topology.element_of_scope(scope) else {
                continue;
            };
            let Some(domain) = domain_of(topology, refuser) else {
                continue;
            };
            for &(view, seq) in slots {
                let Some(primary) = topology.primary_of(domain, view) else {
                    continue;
                };
                contradicted.entry(primary).or_default().insert((view, seq));
            }
        }
        for (&primary, slots) in &contradicted {
            let Some(&(view, seq)) = slots.first() else {
                continue;
            };
            let head = Head {
                analyzer: LIVENESS,
                severity: Severity::Blame,
                kind: "equivocation",
                element: Some(primary),
                domain: domain_of(topology, primary),
                count: slots.len() as u64,
            };
            out.emit(head, || {
                format!(
                    "sent contradictory pre-prepares for {} slot(s), first at view {view} seq {seq}",
                    slots.len()
                )
            });
        }
    }

    fn stalls(&self, topology: &Topology, config: &AuditConfig, now_us: u64, out: &mut impl Sink) {
        for (&element, times) in &self.stall_rounds {
            let rounds = windowed_total(times, config.decay_window_us, now_us);
            if rounds == 0 || rounds < config.min_stall_rounds {
                continue;
            }
            let head = Head {
                analyzer: LIVENESS,
                severity: Severity::Blame,
                kind: "stall",
                element: Some(element),
                domain: domain_of(topology, element),
                count: rounds,
            };
            out.emit(head, || {
                format!(
                    "voted replies landed more than {}us after the decision in {rounds} round(s)",
                    config.stall_budget_us
                )
            });
        }
    }

    fn storms_and_loops(
        &self,
        topology: &Topology,
        config: &AuditConfig,
        now_us: u64,
        out: &mut impl Sink,
    ) {
        let mut view_changes: BTreeMap<u64, u64> = BTreeMap::new();
        let mut fetches: BTreeMap<u64, u64> = BTreeMap::new();
        for (per_scope, per_element) in [
            (&self.view_changes, &mut view_changes),
            (&self.fetches, &mut fetches),
        ] {
            for (&scope, times) in per_scope {
                if let Some(element) = topology.element_of_scope(scope) {
                    *per_element.entry(element).or_insert(0) +=
                        windowed_total(times, config.decay_window_us, now_us);
                }
            }
        }
        for (&element, &n) in &view_changes {
            if n >= config.view_change_storm {
                let head = Head {
                    analyzer: LIVENESS,
                    severity: Severity::Warn,
                    kind: "view-change-storm",
                    element: Some(element),
                    domain: domain_of(topology, element),
                    count: n,
                };
                out.emit(head, || {
                    format!(
                        "attempted {n} view changes (threshold {})",
                        config.view_change_storm
                    )
                });
            }
        }
        for (&element, &n) in &fetches {
            if n >= config.state_fetch_loop {
                let head = Head {
                    analyzer: LIVENESS,
                    severity: Severity::Warn,
                    kind: "state-transfer-loop",
                    element: Some(element),
                    domain: domain_of(topology, element),
                    count: n,
                };
                out.emit(head, || {
                    format!(
                        "requested state transfer {n} times (threshold {})",
                        config.state_fetch_loop
                    )
                });
            }
        }
    }

    fn phase_budgets(&self, config: &AuditConfig, facts: &MetricsFacts, out: &mut impl Sink) {
        for h in &facts.phases {
            if h.count == 0 || h.p99 <= config.phase_budget_us {
                continue;
            }
            let head = Head {
                analyzer: LIVENESS,
                severity: Severity::Warn,
                kind: "phase-budget",
                element: None,
                domain: None,
                count: h.count,
            };
            out.emit(head, || {
                let replica = h
                    .replica
                    .map(|r| format!(" (replica index {r})"))
                    .unwrap_or_default();
                format!(
                    "{}{replica}: p99 {}us exceeds the {}us budget",
                    h.name, h.p99, config.phase_budget_us
                )
            });
        }
    }
}
