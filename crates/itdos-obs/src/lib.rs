//! # itdos-obs — deterministic observability for the ITDOS stack
//!
//! The paper's evaluation lives on per-phase visibility: connection
//! establishment (`open_request → keys to server → keys to client →
//! invocation → reply`, Fig. 3), voting rounds, and PBFT ordering cost.
//! This crate is the cross-cutting layer that measures them without
//! breaking the two invariants the rest of the workspace is built on:
//!
//! * **Determinism** — this crate is itself held to the L2 determinism
//!   rule (`clippy.toml`). It never reads a wall clock or iterates
//!   a `HashMap`; time arrives only through the injected [`Clock`] trait
//!   ([`ManualClock`] mirrored from `SimTime` in simulation), and all
//!   storage is `BTreeMap`/`VecDeque`, so two identical seeded runs emit
//!   byte-identical dumps.
//! * **Zero cost when off** — every instrumentation hook goes through the
//!   cloneable [`Obs`] handle. With no sink installed each hook is a
//!   branch on an `Option` and returns; label slices are built on the
//!   caller's stack, so the disabled path allocates nothing.
//!
//! Three facilities share one [`Recorder`]:
//!
//! 1. a metrics [`Registry`] — counters, gauges, and log₂-bucketed
//!    latency [`Histogram`]s with p50/p99/max summaries;
//! 2. a [`FlightRecorder`] — a bounded ring of the last N protocol
//!    events for post-mortem dumps after a crash or fault drill;
//! 3. span-style phase timing — [`Obs::span_begin`]/[`Obs::span_end`]
//!    pairs keyed by `(name, scope, id)` that land in a histogram. The
//!    scope is carried by the handle (see [`Obs::scoped`]): every process
//!    sharing one recorder gets its own span namespace, so two replicas
//!    timing the same sequence number — or two clients opening the same
//!    target — cannot clobber each other's in-flight spans.
//!
//! [`Obs::dump_jsonl`] exports everything as JSON lines (consumed by
//! `itdos-audit`); [`Obs::render_report`] formats a human
//! summary (printed by `examples/intrusion_drill.rs`).

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

pub mod clock;
pub mod flight;
pub mod jsonl;
pub mod metrics;
pub mod profile;

pub use clock::{Clock, ManualClock};
pub use flight::{Event, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use metrics::{Histogram, Label, LabelValue, Registry, SeriesKey, HISTOGRAM_BUCKETS};
pub use profile::Profile;

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Upper bound on concurrently open spans. A span whose operation is
/// abandoned (a refused connection, a key that never assembles) would
/// otherwise pin its map entry forever; at the bound the oldest open span
/// is evicted, so sustained fault drills cannot grow the recorder
/// unboundedly.
pub const MAX_OPEN_SPANS: usize = 1024;

/// Declarative observability configuration: whether the layer is on and
/// how much flight-recorder history to retain. Deployment builders take
/// one of these instead of separate boolean/capacity knobs.
///
/// # Examples
///
/// ```
/// use itdos_obs::ObsConfig;
///
/// assert!(!ObsConfig::off().enabled);
/// assert!(ObsConfig::standard().enabled);
/// assert!(ObsConfig::forensic().flight_capacity.unwrap() > 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Install an enabled [`Obs`] recorder. Off means every hook is free.
    pub enabled: bool,
    /// Flight-recorder ring capacity override; `None` keeps
    /// [`DEFAULT_FLIGHT_CAPACITY`]. Must be fixed up front — resizing
    /// after events were recorded evicts the oldest.
    pub flight_capacity: Option<usize>,
}

impl ObsConfig {
    /// Observability disabled (the default): all hooks are no-ops.
    pub fn off() -> ObsConfig {
        ObsConfig {
            enabled: false,
            flight_capacity: None,
        }
    }

    /// Metrics, spans, and the default-sized flight recorder.
    pub fn standard() -> ObsConfig {
        ObsConfig {
            enabled: true,
            flight_capacity: None,
        }
    }

    /// Forensic-audit profile: a flight recorder large enough (32 Ki
    /// events) to keep a whole drill's timeline for offline blame
    /// analysis.
    pub fn forensic() -> ObsConfig {
        ObsConfig {
            enabled: true,
            flight_capacity: Some(1 << 15),
        }
    }

    /// Overrides the flight-recorder capacity.
    pub fn with_flight_capacity(mut self, events: usize) -> ObsConfig {
        self.flight_capacity = Some(events);
        self
    }
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig::off()
    }
}

/// Default per-subscription buffer bound (see [`Obs::subscribe`]).
pub const DEFAULT_TAP_CAPACITY: usize = 4096;

/// One live flight-event subscription: a bounded copy queue filled as
/// events are recorded and emptied by [`Obs::drain_subscription`].
struct Subscriber {
    buf: VecDeque<Event>,
    capacity: usize,
    /// One past the last sequence number offered to this subscriber.
    delivered: u64,
    /// Events this subscription's bounded buffer had to discard.
    dropped: u64,
}

impl Subscriber {
    fn push(&mut self, event: Event) {
        while self.buf.len() >= self.capacity.max(1) {
            self.buf.pop_front();
            self.dropped = self.dropped.saturating_add(1);
        }
        self.buf.push_back(event);
    }
}

/// The sink behind an enabled [`Obs`] handle.
pub struct Recorder {
    clock: Arc<dyn Clock>,
    registry: Registry,
    flight: FlightRecorder,
    /// Open spans: `(name, scope, id)` → start time (µs).
    spans: BTreeMap<(&'static str, u64, u64), u64>,
    /// Live flight-event subscriptions by id.
    subs: BTreeMap<u64, Subscriber>,
    next_sub: u64,
    /// Last values mirrored into the `obs.flight_dropped` /
    /// `obs.tap_dropped` counters, so the series only appear (and only
    /// change) when loss actually happens.
    flight_dropped_mirror: u64,
    tap_dropped_mirror: u64,
    /// Largest per-subscription buffer occupancy ever reached, and the
    /// last values mirrored into the `obs.flight_hwm` / `obs.tap_hwm`
    /// gauges (change-only, like the drop counters above).
    tap_high_water: u64,
    flight_hwm_mirror: u64,
    tap_hwm_mirror: u64,
}

impl Recorder {
    /// A recorder reading time from `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Recorder {
        Recorder {
            clock,
            registry: Registry::new(),
            flight: FlightRecorder::default(),
            spans: BTreeMap::new(),
            subs: BTreeMap::new(),
            next_sub: 0,
            flight_dropped_mirror: 0,
            tap_dropped_mirror: 0,
            tap_high_water: 0,
            flight_hwm_mirror: 0,
            tap_hwm_mirror: 0,
        }
    }

    /// Mirrors flight/tap loss counters into the registry whenever they
    /// moved. Ring-overwrite loss was previously silent; now a truncated
    /// forensic record announces itself in every dump and report.
    fn mirror_drops(&mut self) {
        let flight = self.flight.evicted_unconsumed();
        if flight != self.flight_dropped_mirror {
            self.registry.counter_set("obs.flight_dropped", &[], flight);
            self.flight_dropped_mirror = flight;
        }
        let tap: u64 = self.subs.values().map(|s| s.dropped).sum();
        if tap != self.tap_dropped_mirror {
            self.registry.counter_set("obs.tap_dropped", &[], tap);
            self.tap_dropped_mirror = tap;
        }
        self.mirror_high_water();
    }

    /// Mirrors the flight-ring and tap-buffer high-water marks into the
    /// `obs.flight_hwm` / `obs.tap_hwm` gauges whenever a new peak is
    /// reached, so capacity tuning reads the occupancy a run actually
    /// needed straight out of `metrics_report()`.
    fn mirror_high_water(&mut self) {
        let flight = self.flight.high_water_mark() as u64;
        if flight != self.flight_hwm_mirror {
            self.registry
                .gauge_set("obs.flight_hwm", &[], flight as i64);
            self.flight_hwm_mirror = flight;
        }
        if self.tap_high_water != self.tap_hwm_mirror {
            self.registry
                .gauge_set("obs.tap_hwm", &[], self.tap_high_water as i64);
            self.tap_hwm_mirror = self.tap_high_water;
        }
    }

    /// Recomputes the ring's consumed watermark as the slowest
    /// subscriber's delivery point (no subscribers → nothing consumed).
    fn update_watermark(&mut self) {
        if let Some(min) = self.subs.values().map(|s| s.delivered).min() {
            self.flight.mark_consumed(min);
        }
    }
}

/// Cloneable instrumentation handle; the disabled default is a no-op.
///
/// All components of one system share one underlying [`Recorder`] via
/// `Arc<Mutex<_>>`, so a single dump covers the whole protocol stack and
/// instrumented state machines stay `Send` (the workspace's API contract
/// for `Replica`). In simulation everything runs on one thread, so the
/// lock is never contended; every hook takes it through `Obs::with`.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Mutex<Recorder>>>,
    /// Span namespace of this handle (see [`Obs::scoped`]). Counters,
    /// gauges, histograms, and events are unaffected — those are shared
    /// series distinguished by labels.
    scope: u64,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.inner.is_some() {
            f.write_str("Obs(enabled)")
        } else {
            f.write_str("Obs(disabled)")
        }
    }
}

impl Obs {
    /// A handle with no sink: every hook is a no-op.
    pub fn disabled() -> Obs {
        Obs {
            inner: None,
            scope: 0,
        }
    }

    /// An enabled handle reading time from `clock`.
    fn with_clock(clock: Arc<dyn Clock>) -> Obs {
        Obs {
            inner: Some(Arc::new(Mutex::new(Recorder::new(clock)))),
            scope: 0,
        }
    }

    /// A handle sharing this recorder whose spans live in their own
    /// namespace. Install one per instrumented process (replica, element,
    /// client): all processes dump into one registry, but a span opened by
    /// one cannot be clobbered or closed by an identically-keyed span in
    /// another — e.g. every replica of every group times sequence number 1.
    pub fn scoped(&self, scope: u64) -> Obs {
        Obs {
            inner: self.inner.clone(),
            scope,
        }
    }

    /// An enabled handle plus the [`ManualClock`] that drives it —
    /// the deterministic configuration used with the simulator.
    pub fn manual() -> (Obs, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        (Obs::with_clock(clock.clone()), clock)
    }

    /// True when a sink is installed.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f` on the recorder under its lock: `None` when disabled (or
    /// the lock is poisoned). Every hook goes through here, so no guard
    /// outlives one call and no two locks are ever held at once.
    #[inline]
    fn with<T>(&self, f: impl FnOnce(&mut Recorder) -> T) -> Option<T> {
        let mut rec = self.inner.as_ref()?.lock().ok()?;
        Some(f(&mut rec))
    }

    /// Adds `delta` to a counter.
    #[inline]
    pub fn add(&self, name: &'static str, labels: &[Label], delta: u64) {
        self.with(|rec| rec.registry.add(name, labels, delta));
    }

    /// Adds 1 to a counter.
    #[inline]
    pub fn incr(&self, name: &'static str, labels: &[Label]) {
        self.add(name, labels, 1);
    }

    /// Overwrites a counter (for bridges mirroring external counters).
    #[inline]
    pub fn counter_set(&self, name: &'static str, labels: &[Label], value: u64) {
        self.with(|rec| rec.registry.counter_set(name, labels, value));
    }

    /// Sets a gauge.
    #[inline]
    pub fn gauge(&self, name: &'static str, labels: &[Label], value: i64) {
        self.with(|rec| rec.registry.gauge_set(name, labels, value));
    }

    /// Records a histogram observation.
    #[inline]
    pub fn observe(&self, name: &'static str, labels: &[Label], value: u64) {
        self.with(|rec| rec.registry.observe(name, labels, value));
    }

    /// Records a flight-recorder event stamped with the injected clock
    /// and tagged with this handle's scope, so a merged dump attributes
    /// every event to the process that emitted it.
    #[inline]
    pub fn event(&self, kind: &'static str, labels: &[Label]) {
        self.with(|rec| {
            let now = rec.clock.now_micros();
            let scope = self.scope;
            let seq = rec.flight.record(now, scope, kind, labels);
            if !rec.subs.is_empty() {
                let event = Event {
                    seq,
                    at_micros: now,
                    scope,
                    kind,
                    labels: flight::Labels::from(labels),
                };
                let mut peak = rec.tap_high_water;
                for sub in rec.subs.values_mut() {
                    sub.push(event.clone());
                    sub.delivered = sub.delivered.max(seq.saturating_add(1));
                    peak = peak.max(sub.buf.len() as u64);
                }
                rec.tap_high_water = peak;
                // every live subscriber now holds (or knowingly dropped) a
                // copy: evicting this event from the ring later is no longer
                // silent loss — tap overflow is accounted separately
                rec.flight.mark_consumed(seq.saturating_add(1));
            }
            rec.mirror_drops();
        });
    }

    /// Opens a span keyed by `(name, id)` in this handle's scope.
    /// Re-opening an in-flight span restarts it. At [`MAX_OPEN_SPANS`]
    /// open entries the oldest is evicted (its eventual `span_end`
    /// becomes a no-op) so abandoned operations cannot grow the map
    /// without bound.
    #[inline]
    pub fn span_begin(&self, name: &'static str, id: u64) {
        self.with(|rec| {
            let now = rec.clock.now_micros();
            let key = (name, self.scope, id);
            if rec.spans.len() >= MAX_OPEN_SPANS && !rec.spans.contains_key(&key) {
                // evict the oldest open span (smallest start time; key order
                // breaks ties, so eviction is deterministic)
                if let Some(oldest) = rec
                    .spans
                    .iter()
                    .min_by_key(|&(k, &t)| (t, *k))
                    .map(|(k, _)| *k)
                {
                    rec.spans.remove(&oldest);
                }
            }
            rec.spans.insert(key, now);
        });
    }

    /// Closes a span and records its duration (microseconds) in the
    /// histogram `name` with `labels`. A close without a matching open is
    /// ignored.
    #[inline]
    pub fn span_end(&self, name: &'static str, id: u64, labels: &[Label]) {
        self.with(|rec| {
            let Some(started) = rec.spans.remove(&(name, self.scope, id)) else {
                return;
            };
            let elapsed = rec.clock.now_micros().saturating_sub(started);
            rec.registry.observe(name, labels, elapsed);
        });
    }

    /// Abandons a span without recording anything.
    #[inline]
    pub fn span_cancel(&self, name: &'static str, id: u64) {
        self.with(|rec| rec.spans.remove(&(name, self.scope, id)));
    }

    /// Resizes the flight-recorder ring.
    pub fn set_flight_capacity(&self, capacity: usize) {
        self.with(|rec| {
            rec.flight.set_capacity(capacity);
            rec.mirror_drops();
        });
    }

    /// Opens a live subscription to the flight-event stream: every event
    /// recorded from now on is copied into a bounded per-subscription
    /// buffer read back with [`Obs::drain_subscription`]. This is the tap
    /// the streaming auditor rides — it sees events as they happen instead
    /// of re-parsing a JSONL dump after the run. A `capacity` of 0 uses
    /// [`DEFAULT_TAP_CAPACITY`]. Returns `None` when disabled.
    pub fn subscribe(&self, capacity: usize) -> Option<u64> {
        self.with(|rec| {
            let id = rec.next_sub;
            rec.next_sub = rec.next_sub.saturating_add(1);
            let delivered = rec.flight.total_recorded();
            rec.subs.insert(
                id,
                Subscriber {
                    buf: VecDeque::new(),
                    capacity: if capacity == 0 {
                        DEFAULT_TAP_CAPACITY
                    } else {
                        capacity
                    },
                    delivered,
                    dropped: 0,
                },
            );
            // a new subscriber starts at the present: everything already
            // recorded counts as consumed from its point of view
            rec.update_watermark();
            id
        })
    }

    /// Empties a subscription's buffer, advancing the ring's consumed
    /// watermark past everything delivered. Unknown ids (or a disabled
    /// handle) return an empty vec.
    pub fn drain_subscription(&self, id: u64) -> Vec<Event> {
        let mut events = Vec::new();
        self.drain_subscription_into(id, &mut events);
        events
    }

    /// [`Obs::drain_subscription`] into `events`, appended: a caller that
    /// keeps its buffer drains without allocating once it is warm.
    pub fn drain_subscription_into(&self, id: u64, events: &mut Vec<Event>) {
        self.with(|rec| {
            let total = rec.flight.total_recorded();
            let Some(sub) = rec.subs.get_mut(&id) else {
                return;
            };
            events.extend(sub.buf.drain(..));
            // even when the buffer overflowed, everything up to the present
            // was offered to this subscriber — it is no longer "unconsumed"
            sub.delivered = sub.delivered.max(total);
            rec.update_watermark();
        });
    }

    /// Reads the registry under a closure (None when disabled).
    pub fn with_registry<T>(&self, f: impl FnOnce(&Registry) -> T) -> Option<T> {
        self.with(|rec| f(&rec.registry))
    }

    /// Reads the flight recorder under a closure (None when disabled).
    pub fn with_flight<T>(&self, f: impl FnOnce(&FlightRecorder) -> T) -> Option<T> {
        self.with(|rec| f(&rec.flight))
    }

    /// Convenience counter read (0 when disabled or absent).
    pub fn counter_value(&self, name: &'static str, labels: &[Label]) -> u64 {
        self.with_registry(|reg| reg.counter(name, labels))
            .unwrap_or(0)
    }

    /// Clears metrics, events, and open spans; the clock keeps running.
    /// Subscriptions stay registered but their buffers and drop counts
    /// restart with the rest of the recorder.
    pub fn reset(&self) {
        self.with(|rec| {
            rec.registry.clear();
            rec.flight.clear();
            rec.spans.clear();
            let total = rec.flight.total_recorded();
            for sub in rec.subs.values_mut() {
                sub.buf.clear();
                sub.dropped = 0;
                sub.delivered = total;
            }
            rec.flight_dropped_mirror = 0;
            rec.tap_dropped_mirror = 0;
            rec.tap_high_water = 0;
            rec.flight_hwm_mirror = 0;
            rec.tap_hwm_mirror = 0;
        });
    }

    /// Serializes the whole recorder — counters, gauges, histogram
    /// summaries, then retained events — as JSON lines. Empty string when
    /// disabled. Byte-identical across identical seeded runs.
    pub fn dump_jsonl(&self) -> String {
        self.with(|rec| {
            let mut out = String::new();
            jsonl::dump_registry(&mut out, &rec.registry);
            jsonl::dump_events(&mut out, rec.flight.events());
            out
        })
        .unwrap_or_default()
    }

    /// Human-readable per-phase report: histograms with p50/p99/max,
    /// then counters and gauges. Empty string when disabled.
    pub fn render_report(&self) -> String {
        self.with(|rec| {
            let mut out = String::new();
            if rec.registry.histograms().next().is_some() {
                out.push_str("phase timings (us):\n");
                for (key, h) in rec.registry.histograms() {
                    let _ = write!(out, "  {:<28}", format_series(key));
                    let _ = writeln!(
                        out,
                        " count={:<5} p50={:<8} p99={:<8} max={}",
                        h.count(),
                        h.percentile(50),
                        h.percentile(99),
                        h.max()
                    );
                }
            }
            if rec.registry.counters().next().is_some() {
                out.push_str("counters:\n");
                for (key, v) in rec.registry.counters() {
                    let _ = writeln!(out, "  {:<40} {v}", format_series(key));
                }
            }
            if rec.registry.gauges().next().is_some() {
                out.push_str("gauges:\n");
                for (key, v) in rec.registry.gauges() {
                    let _ = writeln!(out, "  {:<40} {v}", format_series(key));
                }
            }
            let _ = writeln!(
                out,
                "flight recorder: {} retained of {} events ({} evicted unconsumed)",
                rec.flight.len(),
                rec.flight.total_recorded(),
                rec.flight.evicted_unconsumed()
            );
            out
        })
        .unwrap_or_default()
    }
}

fn format_series(key: &SeriesKey) -> String {
    let mut s = String::from(key.name);
    if !key.labels.is_empty() {
        s.push('{');
        for (i, (k, v)) in key.labels.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = match v {
                LabelValue::Str(sv) => write!(s, "{k}={sv}"),
                LabelValue::U64(n) => write!(s, "{k}={n}"),
            };
        }
        s.push('}');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        obs.incr("c", &[]);
        obs.observe("h", &[], 5);
        obs.event("e", &[]);
        obs.span_begin("s", 1);
        obs.span_end("s", 1, &[]);
        assert!(!obs.is_enabled());
        assert_eq!(obs.dump_jsonl(), "");
        assert_eq!(obs.render_report(), "");
        assert_eq!(obs.counter_value("c", &[]), 0);
    }

    #[test]
    fn spans_measure_clock_deltas() {
        let (obs, clock) = Obs::manual();
        clock.set(100);
        obs.span_begin("phase", 7);
        clock.set(350);
        obs.span_end("phase", 7, &[("id", LabelValue::U64(7))]);
        let h = obs
            .with_registry(|r| r.histogram("phase", &[("id", LabelValue::U64(7))]).cloned())
            .flatten()
            .expect("histogram recorded");
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 250);
        // unmatched end and cancelled spans record nothing
        obs.span_end("phase", 8, &[]);
        obs.span_begin("phase", 9);
        obs.span_cancel("phase", 9);
        obs.span_end("phase", 9, &[]);
        let count = obs
            .with_registry(|r| r.histograms().map(|(_, h)| h.count()).sum::<u64>())
            .unwrap_or(0);
        assert_eq!(count, 1);
    }

    #[test]
    fn scoped_handles_do_not_clobber_each_others_spans() {
        // two "replicas" timing the same (name, id) against one recorder:
        // each must observe its own start time, not the other's
        let (obs, clock) = Obs::manual();
        let r0 = obs.scoped(100);
        let r1 = obs.scoped(101);
        clock.set(10);
        r0.span_begin("bft.order_us", 1);
        clock.set(40);
        r1.span_begin("bft.order_us", 1);
        clock.set(50);
        r0.span_end("bft.order_us", 1, &[("replica", LabelValue::U64(0))]);
        clock.set(90);
        r1.span_end("bft.order_us", 1, &[("replica", LabelValue::U64(1))]);
        let durations: Vec<u64> = obs
            .with_registry(|r| {
                [0u64, 1]
                    .iter()
                    .map(|&i| {
                        r.histogram("bft.order_us", &[("replica", LabelValue::U64(i))])
                            .expect("both replicas recorded")
                            .sum()
                    })
                    .collect()
            })
            .unwrap();
        assert_eq!(durations, vec![40, 50], "each span kept its own start");
        // a scoped cancel does not touch the sibling's open span
        r0.span_begin("phase", 2);
        r1.span_begin("phase", 2);
        r0.span_cancel("phase", 2);
        clock.set(100);
        r1.span_end("phase", 2, &[("replica", LabelValue::U64(1))]);
        let count = obs
            .with_registry(|r| {
                r.histogram("phase", &[("replica", LabelValue::U64(1))])
                    .map(|h| h.count())
            })
            .flatten()
            .unwrap_or(0);
        assert_eq!(count, 1, "sibling span survived the scoped cancel");
    }

    #[test]
    fn open_span_map_is_bounded() {
        let (obs, clock) = Obs::manual();
        // abandon far more spans than the cap (never ended)
        for i in 0..(MAX_OPEN_SPANS as u64 + 50) {
            clock.set(i);
            obs.span_begin("leaky", i);
        }
        let open = obs
            .inner
            .as_ref()
            .map(|r| r.lock().unwrap().spans.len())
            .unwrap();
        assert_eq!(open, MAX_OPEN_SPANS, "oldest spans evicted at the cap");
        // the oldest (evicted) span's end is a silent no-op; a recent one
        // still records
        clock.set(10_000);
        obs.span_end("leaky", 0, &[]);
        obs.span_end("leaky", MAX_OPEN_SPANS as u64 + 49, &[]);
        let count = obs
            .with_registry(|r| r.histogram("leaky", &[]).map(|h| h.count()))
            .flatten()
            .unwrap_or(0);
        assert_eq!(count, 1);
    }

    #[test]
    fn subscription_taps_events_and_tracks_loss() {
        let (obs, clock) = Obs::manual();
        obs.set_flight_capacity(4);
        // events recorded before subscribing are not replayed
        obs.event("early", &[]);
        let sub = obs.subscribe(8).expect("enabled");
        for i in 0..3u64 {
            clock.set(i * 10);
            obs.event("tick", &[("i", LabelValue::U64(i))]);
        }
        let drained = obs.drain_subscription(sub);
        assert_eq!(drained.len(), 3);
        assert_eq!(drained[0].kind, "tick");
        assert_eq!(drained[2].labels, vec![("i", LabelValue::U64(2))]);
        assert!(obs.drain_subscription(sub).is_empty(), "drain empties");
        // a drained subscriber keeps ring evictions from counting as loss
        for i in 0..6u64 {
            obs.event("more", &[("i", LabelValue::U64(i))]);
        }
        assert_eq!(obs.counter_value("obs.flight_dropped", &[]), 0);
        assert_eq!(obs.drain_subscription(sub).len(), 6);
        // close the subscription; the watermark is then the slowest
        // remaining subscriber's (none)
        {
            let mut rec = obs.inner.as_ref().expect("enabled").lock().expect("lock");
            rec.subs.remove(&sub);
            rec.update_watermark();
        }
        // with no subscribers, wrapping the ring is silent loss: 9 events
        // into a capacity-4 ring evict the 4 consumed stragglers plus 5
        // post-unsubscribe events nobody ever saw
        for i in 0..9u64 {
            obs.event("lost", &[("i", LabelValue::U64(i))]);
        }
        assert_eq!(obs.counter_value("obs.flight_dropped", &[]), 5);
        assert!(obs.render_report().contains("5 evicted unconsumed"));
        // unknown subscription ids and disabled handles are inert
        assert!(obs.drain_subscription(999).is_empty());
        assert_eq!(Obs::disabled().subscribe(8), None);
    }

    #[test]
    fn subscription_buffer_is_bounded() {
        let (obs, _clock) = Obs::manual();
        let sub = obs.subscribe(2).expect("enabled");
        for i in 0..5u64 {
            obs.event("e", &[("i", LabelValue::U64(i))]);
        }
        let drained = obs.drain_subscription(sub);
        assert_eq!(drained.len(), 2, "oldest copies discarded at the bound");
        assert_eq!(drained[0].labels, vec![("i", LabelValue::U64(3))]);
        assert_eq!(obs.counter_value("obs.tap_dropped", &[]), 3);
    }

    #[test]
    fn wide_events_round_trip_through_ring_tap_and_dump() {
        use flight::INLINE_LABELS;
        const KEYS: [&str; INLINE_LABELS + 2] = ["a", "b", "c", "d", "e", "f", "g"];
        let labels = |n: usize| -> Vec<Label> {
            (0..n)
                .map(|i| match i % 2 {
                    0 => (KEYS[i], LabelValue::U64(i as u64 * 1_000)),
                    _ => (KEYS[i], LabelValue::Str("v")),
                })
                .collect()
        };
        let (obs, clock) = Obs::manual();
        let sub = obs.subscribe(8).expect("enabled");
        // inline, exactly full, and spilled past the inline capacity
        let widths = [0, 1, INLINE_LABELS, INLINE_LABELS + 1, INLINE_LABELS + 2];
        for (i, &n) in widths.iter().enumerate() {
            clock.set(i as u64);
            obs.event("wide", &labels(n));
        }
        let ring: Vec<Event> = obs.with_flight(|f| f.events().cloned().collect()).unwrap();
        let tapped = obs.drain_subscription(sub);
        assert_eq!(ring, tapped, "the tap holds exactly what the ring holds");
        let dump = jsonl::parse_dump(&obs.dump_jsonl()).expect("dump parses");
        assert_eq!(dump.events.len(), widths.len());
        for ((event, record), &n) in ring.iter().zip(&dump.events).zip(&widths) {
            assert_eq!(event.labels, labels(n), "{n} labels");
            let owned: Vec<(String, jsonl::LabelOwned)> = labels(n)
                .into_iter()
                .map(|(k, v)| {
                    let v = match v {
                        LabelValue::U64(x) => jsonl::LabelOwned::U64(x),
                        LabelValue::Str(x) => jsonl::LabelOwned::Str(x.to_string()),
                    };
                    (k.to_string(), v)
                })
                .collect();
            assert_eq!(record.labels, owned, "{n} labels dumped in call-site order");
        }
        let wide = &ring[widths.len() - 1];
        assert_eq!(wide.label_u64("g"), Some(6_000));
        assert_eq!(
            format!("{:?}", wide.labels),
            format!("{:?}", labels(INLINE_LABELS + 2))
        );
    }

    #[test]
    fn high_water_gauges_track_ring_and_tap_peaks() {
        let (obs, _clock) = Obs::manual();
        obs.set_flight_capacity(4);
        let hwm = |name| obs.with_registry(|r| r.gauge(name, &[])).flatten();
        obs.event("e", &[]);
        obs.event("e", &[]);
        assert_eq!(hwm("obs.flight_hwm"), Some(2));
        // wraparound pins the ring peak at the capacity
        for _ in 0..6 {
            obs.event("e", &[]);
        }
        assert_eq!(hwm("obs.flight_hwm"), Some(4));
        // the tap peak follows the fullest subscription buffer
        let sub = obs.subscribe(8).expect("enabled");
        obs.event("e", &[]);
        obs.event("e", &[]);
        obs.event("e", &[]);
        assert_eq!(hwm("obs.tap_hwm"), Some(3));
        obs.drain_subscription(sub);
        obs.event("e", &[]);
        // draining does not lower the historical peak
        assert_eq!(hwm("obs.tap_hwm"), Some(3));
        assert!(obs.render_report().contains("obs.flight_hwm"));
        obs.reset();
        assert_eq!(hwm("obs.flight_hwm"), None, "reset clears the gauges");
    }

    #[test]
    fn dump_is_valid_jsonl_and_shared_across_clones() {
        let (obs, clock) = Obs::manual();
        let clone = obs.clone();
        clone.incr("net.messages", &[("label", LabelValue::Str("x"))]);
        clock.set(42);
        clone.event("bft.view_change", &[("view", LabelValue::U64(1))]);
        let dump = obs.dump_jsonl();
        assert!(dump.contains("\"at_us\":42"));
        // counter + event + the obs.flight_hwm gauge the event mirrored
        assert_eq!(jsonl::validate(&dump), Ok(3));
        assert!(!obs.render_report().is_empty());
    }
}
