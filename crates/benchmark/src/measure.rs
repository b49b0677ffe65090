//! One benchmark run: epochs until the time budget is spent, pooled into
//! the end-to-end metrics (untraced) or the per-layer metrics (traced).
//!
//! Epoch seeds are `S, S, S+1, S+2, …`: the first epoch runs twice, which
//! is the self-check that sim-clock and allocation counts repeat exactly
//! for a seed, at no extra cost — both copies' host timings are pooled.
//! Sim-clock and count metrics come from the first `det_epochs` distinct
//! seeds only; those epochs always run, so the metrics do not depend on
//! how many further epochs the host fitted into the budget.

use std::time::Instant;

use crate::calib;
use crate::layers;
use crate::spans::Spans;
use crate::stats;
use crate::workload::{run_epoch, Epoch, Shape, Workload};

/// Set-up-only repeats (zero-wave epochs) after every epoch, so
/// `setup_s` is a median worth the name even when few epochs fit. They
/// are spread over the run on purpose: a block of them at process start
/// reads 1.25 ms in one process and 1.78 ms in the next (the host is
/// still ramping up), which no median within the block can repair.
const SETUP_REPEATS: usize = 4;

/// Host timings are summarised per block of at least this many ops and
/// the run reports the lower quartile over blocks. The shared host slows
/// down in bursts of 1-40 s (per-epoch medians of one 60 s
/// `connect_storm` run alternate between ~1300 and ~1800 µs): a pooled
/// p90 or a mean moves with the share of the run the bursts covered,
/// the quietest quarter of the blocks only once they cover three
/// quarters of it. 100 ops leave ten samples beyond a block's p90.
const HOST_BLOCK: usize = 100;

/// Share of a traced run's budget spent on untraced epochs (the figure
/// the layers are reconciled against); the rest goes to the traced epoch
/// and the layer replays.
const TRACED_UNTRACED_SHARE: f64 = 0.4;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// The only source of randomness.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub traced: bool,
    /// Shrink epochs to a few waves (smoke test).
    pub tiny: bool,
}

/// What a run produced.
#[derive(Debug)]
pub struct Run {
    /// The configuration that produced it.
    pub config: RunConfig,
    /// No op failed and every self-check held.
    pub correct: bool,
    /// Ops attempted over all epochs.
    pub attempted: u64,
    /// Ops with a wrong value, an exception, or no completion within the
    /// step budget.
    pub failed: u64,
    /// Every `end_to_end` metric (untraced) or every `per_layer` metric
    /// (traced) of `BENCHMARK.json`.
    pub metrics: Vec<Metric>,
    /// Informational extras that carry no bound.
    pub info: Vec<Metric>,
    /// Failure reasons and the reconciliation line, for the operator.
    pub notes: Vec<String>,
    /// Spans of the traced epoch and the layer replays.
    pub spans: Spans,
}

/// The untraced epochs of a run, pooled.
#[derive(Debug, Default)]
pub struct Pool {
    /// Every untraced epoch, in run order.
    pub epochs: Vec<Epoch>,
    /// Whether `epochs[0]` is the twin of `epochs[1]` (same seed), run
    /// for the exact-repeat check and no part of the deterministic set.
    pub twin: bool,
    /// `(set-up host ns, reference-work ns right after it)`: one per
    /// epoch, each followed by its repeats.
    pub setups: Vec<(f64, f64)>,
}

impl Pool {
    /// Host ns per op, pooled over all epochs, ascending. `first_waves`
    /// keeps only each epoch's leading waves.
    pub fn host_ns_sorted(&self, first_waves: Option<usize>) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .epochs
            .iter()
            .flat_map(|e| {
                let take = first_waves.unwrap_or(e.op_host_ns.len());
                e.op_host_ns.iter().take(take).copied()
            })
            .collect();
        stats::sort(&mut all);
        all
    }

    /// The run cut into blocks of whole epochs, consecutive epochs sharing
    /// a block until it holds [`HOST_BLOCK`] ops. Whole epochs, so that
    /// every block sees the same mix of history (on `sustained_history`
    /// an op costs three times more at the end of an epoch than at its
    /// start).
    fn host_blocks(&self) -> Vec<Block> {
        let mut blocks = Vec::new();
        let mut ops: Vec<f64> = Vec::new();
        let mut refs: Vec<f64> = Vec::new();
        for (index, epoch) in self.epochs.iter().enumerate() {
            ops.extend(&epoch.op_host_ns);
            refs.extend(&epoch.ref_ns);
            let last = index + 1 == self.epochs.len();
            if ops.len() < HOST_BLOCK && !(last && blocks.is_empty()) {
                continue; // a short tail is dropped, never a whole run
            }
            if ops.is_empty() {
                continue;
            }
            stats::sort(&mut ops);
            blocks.push(Block {
                p50_ns: stats::quantile(&ops, 0.5),
                p90_ns: stats::quantile(&ops, 0.9),
                mean_ns: stats::mean(&ops),
                speed: speed(stats::median(&refs)),
            });
            ops.clear();
            refs.clear();
        }
        blocks
    }

    /// Ops that completed correctly, over all epochs.
    pub fn ok_ops(&self) -> u64 {
        self.epochs.iter().map(Epoch::ok_ops).sum()
    }

    fn det(&self, shape: &Shape) -> &[Epoch] {
        let from = usize::from(self.twin);
        let to = (from + shape.det_epochs).min(self.epochs.len());
        &self.epochs[from..to]
    }
}

/// Host ns per op of one block of consecutive ops, and how fast the host
/// was running while it ran.
struct Block {
    p50_ns: f64,
    p90_ns: f64,
    mean_ns: f64,
    /// See [`speed`].
    speed: f64,
}

/// Host speed relative to nominal, from what the reference work took:
/// below 1 while the host is slow. A host timing times this is the
/// timing in reference units.
fn speed(reference_ns: f64) -> f64 {
    if reference_ns > 0.0 {
        calib::NOMINAL_NS / reference_ns
    } else {
        1.0
    }
}

fn same_counts(a: &Epoch, b: &Epoch) -> bool {
    a.sim_latency_us == b.sim_latency_us
        && a.sim_window_us == b.sim_window_us
        && a.wave_msgs == b.wave_msgs
        && a.wire_bytes == b.wire_bytes
        && a.allocs == b.allocs
        && a.alloc_bytes == b.alloc_bytes
        && a.failed == b.failed
}

/// Runs untraced epochs for `seconds` (at least `min_epochs`).
fn pool_epochs(cfg: &RunConfig, shape: &Shape, seconds: f64, twin: bool) -> Pool {
    let clock = Instant::now();
    let mut pool = Pool {
        twin,
        ..Pool::default()
    };
    let min_epochs = shape.det_epochs + usize::from(twin);
    let mut spans = Spans::off();
    let setup_only = Shape { waves: 0, ..*shape };
    loop {
        let index = pool.epochs.len();
        let seed = cfg.seed + index.saturating_sub(usize::from(twin)) as u64;
        let began = clock.elapsed().as_secs_f64();
        let epoch = run_epoch(cfg.workload, shape, seed, false, &mut spans);
        let took = clock.elapsed().as_secs_f64() - began;
        pool.setups
            .push((epoch.setup_ns as f64, epoch.setup_ref_ns));
        pool.epochs.push(epoch);
        for repeat in 0..if cfg.tiny { 0 } else { SETUP_REPEATS } {
            let again = run_epoch(
                cfg.workload,
                &setup_only,
                seed + repeat as u64,
                false,
                &mut spans,
            );
            pool.setups
                .push((again.setup_ns as f64, again.setup_ref_ns));
        }
        // start another epoch only if at least half of it fits
        if pool.epochs.len() >= min_epochs && clock.elapsed().as_secs_f64() + took / 2.0 >= seconds
        {
            break;
        }
    }
    pool
}

/// `VmHWM` of this process in MiB; 0 where `/proc` is unavailable. `run`
/// starts a process per run, so the watermark is one workload's.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs one workload once.
pub fn run(cfg: RunConfig) -> Run {
    let shape = cfg.workload.shape(cfg.tiny);
    if cfg.traced {
        run_traced(cfg, &shape)
    } else {
        run_untraced(cfg, &shape)
    }
}

fn collect_notes(epochs: &[Epoch], notes: &mut Vec<String>) {
    for (index, epoch) in epochs.iter().enumerate() {
        if let Some(why) = &epoch.failure {
            notes.push(format!("epoch {index}: {why}"));
        }
    }
}

fn run_untraced(cfg: RunConfig, shape: &Shape) -> Run {
    let pool = pool_epochs(&cfg, shape, cfg.seconds, true);
    let host = pool.host_ns_sorted(None);
    let blocks = pool.host_blocks();
    // the quietest quarter of the run: once scaled to reference units,
    // what the host adds to a block is one-sided, it only ever slows
    let quiet = |pick: fn(&Block) -> f64| {
        let mut v: Vec<f64> = blocks.iter().map(pick).collect();
        stats::sort(&mut v);
        stats::quantile(&v, 0.25)
    };
    let setups = |pick: fn(&(f64, f64)) -> f64| {
        stats::median(&pool.setups.iter().map(pick).collect::<Vec<_>>())
    };

    let det = pool.det(shape);
    let det_ops: u64 = det.iter().map(Epoch::ok_ops).sum();
    let per_det_op = |total: u64| total as f64 / det_ops.max(1) as f64;
    let mut sim: Vec<f64> = det
        .iter()
        .flat_map(|e| e.sim_latency_us.iter().map(|&us| us as f64))
        .collect();
    stats::sort(&mut sim);
    let sim_window_us: u64 = det.iter().map(|e| e.sim_window_us).sum();

    let metrics = vec![
        // host figures are in reference units (see `calib`)
        Metric::new("setup_s", setups(|s| s.0 * speed(s.1)) / 1e9, "s"),
        Metric::new("op_host_us_p50", quiet(|b| b.p50_ns * b.speed) / 1e3, "us"),
        Metric::new("op_host_us_p90", quiet(|b| b.p90_ns * b.speed) / 1e3, "us"),
        Metric::new(
            "ops_per_host_s",
            1e9 / quiet(|b| b.mean_ns * b.speed).max(1.0),
            "1/s",
        ),
        // the sim clock ticks in whole µs and its jitter is uniform, so a
        // median or a percentile reads the same integer on every seed;
        // the mean and the mean of the slowest 1 % keep their digits
        Metric::new("sim_latency_us_mean", stats::mean(&sim), "us"),
        Metric::new(
            "sim_latency_us_worst1pct",
            stats::mean(&sim[sim.len() - sim.len().div_ceil(100)..]),
            "us",
        ),
        Metric::new(
            "sim_ops_per_s",
            det_ops as f64 / (sim_window_us.max(1) as f64 / 1e6),
            "1/s",
        ),
        Metric::new(
            "msgs_per_op",
            per_det_op(det.iter().map(Epoch::msgs).sum()),
            "count",
        ),
        Metric::new(
            "wire_bytes_per_op",
            per_det_op(det.iter().map(|e| e.wire_bytes).sum()),
            "B",
        ),
        Metric::new(
            "allocs_per_op",
            per_det_op(det.iter().map(|e| e.allocs).sum()),
            "count",
        ),
        Metric::new("peak_rss_mib", peak_rss_mib(), "MiB"),
    ];

    let attempted: u64 = pool.epochs.iter().map(|e| e.attempted).sum();
    let failed: u64 = pool.epochs.iter().map(|e| e.failed).sum();
    let mut info = vec![
        // the same figures as the host clock read them, unscaled
        Metric::new(
            "host_speed",
            stats::median(&blocks.iter().map(|b| b.speed).collect::<Vec<_>>()),
            "ratio",
        ),
        Metric::new("setup_raw_s", setups(|s| s.0) / 1e9, "s"),
        Metric::new("op_host_raw_us_p50", quiet(|b| b.p50_ns) / 1e3, "us"),
        Metric::new("op_host_raw_us_p90", quiet(|b| b.p90_ns) / 1e3, "us"),
        Metric::new(
            "ops_per_host_raw_s",
            1e9 / quiet(|b| b.mean_ns).max(1.0),
            "1/s",
        ),
        // p99 of host time on a shared 2-core box does not repeat within
        // a tenth, so it is printed with its sample count, unbounded
        Metric::new(
            "op_host_raw_us_p99",
            stats::quantile(&host, 0.99) / 1e3,
            "us",
        ),
        Metric::new("op_host_samples", host.len() as f64, "count"),
        Metric::new("epochs", pool.epochs.len() as f64, "count"),
        Metric::new(
            "failed_ops",
            failed as f64 / attempted.max(1) as f64,
            "fraction",
        ),
    ];
    info.push(Metric::new(
        "sim_latency_us_p50",
        stats::quantile(&sim, 0.5),
        "us",
    ));
    info.push(Metric::new(
        "sim_latency_us_p99",
        stats::quantile(&sim, 0.99),
        "us",
    ));

    let mut notes = Vec::new();
    collect_notes(&pool.epochs, &mut notes);
    // two same-seed epochs must agree on every sim-clock and count figure
    let repeats = same_counts(&pool.epochs[0], &pool.epochs[1]);
    if !repeats {
        notes.push("two same-seed epochs disagreed on sim-clock or allocation counts".into());
    }
    Run {
        config: cfg,
        correct: failed == 0 && repeats,
        attempted,
        failed,
        metrics,
        info,
        notes,
        spans: Spans::off(),
    }
}

fn run_traced(cfg: RunConfig, shape: &Shape) -> Run {
    let clock = Instant::now();
    let pool = pool_epochs(&cfg, shape, cfg.seconds * TRACED_UNTRACED_SHARE, false);

    // the traced epoch: forensic obs on, spans around every call the
    // runner makes; bounded so the flight ring keeps every trace anchor
    let traced_shape = Shape {
        waves: shape.waves.min(layers::TRACED_WAVES),
        ..*shape
    };
    let mut spans = Spans::on();
    let traced = run_epoch(cfg.workload, &traced_shape, cfg.seed, true, &mut spans);

    let left = (cfg.seconds - clock.elapsed().as_secs_f64()).max(0.0);
    let attribution = layers::attribute(&cfg, &traced_shape, &pool, &traced, left, &mut spans);

    let attempted: u64 = pool.epochs.iter().map(|e| e.attempted).sum::<u64>() + traced.attempted;
    let failed: u64 = pool.epochs.iter().map(|e| e.failed).sum::<u64>() + traced.failed;
    let mut notes = Vec::new();
    collect_notes(&pool.epochs, &mut notes);
    if let Some(why) = &traced.failure {
        notes.push(format!("traced epoch: {why}"));
    }
    notes.push(attribution.reconciliation);
    Run {
        config: cfg,
        correct: failed == 0,
        attempted,
        failed,
        metrics: attribution.metrics,
        info: Vec::new(),
        notes,
        spans,
    }
}
