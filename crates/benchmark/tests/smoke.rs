//! Smoke test: every workload at tiny size emits every metric named in
//! `BENCHMARK.json`, fails no op, and repeats its deterministic metrics
//! exactly for a seed. Rides tier-1 `cargo test`.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use itdos_benchmark::measure::{run, Run, RunConfig};
use itdos_benchmark::spec::{MetricSpec, Spec, DETERMINISTIC};
use itdos_benchmark::workload::Workload;

// allocation counts are part of what must repeat, so the test binary
// counts them exactly as the benchmark binary does
#[global_allocator]
static ALLOCATOR: itdos_benchmark::alloc::Counting = itdos_benchmark::alloc::Counting;

/// The allocation counters are process-wide and `cargo test` runs tests
/// on parallel threads: every test holds this while it runs.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // a failed test poisons the lock; the `()` inside cannot be invalid
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tiny(workload: Workload, traced: bool) -> Run {
    run(RunConfig {
        workload,
        seed: 5,
        seconds: 0.0,
        traced,
        tiny: true,
    })
}

fn assert_emits(run: &Run, declared: &[MetricSpec]) {
    let name = run.config.workload.name();
    assert_eq!(run.failed, 0, "{name}: failed ops; notes {:?}", run.notes);
    assert!(run.correct, "{name}: incorrect; notes {:?}", run.notes);
    assert!(run.attempted >= 1, "{name}: nothing attempted");
    let emitted: BTreeMap<&str, &str> = run.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(emitted.len(), run.metrics.len(), "{name}: a metric twice");
    let want: BTreeMap<&str, &str> = declared
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(emitted, want, "{name}: metrics differ from BENCHMARK.json");
    for m in &run.metrics {
        assert!(m.value.is_finite(), "{name} {}: {}", m.name, m.value);
        assert!(
            !m.name.is_empty()
                && m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}: bad metric name {:?}",
            m.name
        );
    }
}

#[test]
fn benchmark_json_lists_the_six_workloads() {
    let _serial = serial();
    let spec = Spec::embedded();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, names);
    assert!(spec.end_to_end.len() <= 16 && spec.per_layer.len() <= 128);
    assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
    for m in &spec.end_to_end {
        let bound = m.bound.expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
    for name in DETERMINISTIC {
        assert!(spec.end_to_end.iter().any(|m| m.name == name), "{name}");
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric_and_repeats() {
    let _serial = serial();
    let spec = Spec::embedded();
    for workload in Workload::ALL {
        let first = tiny(workload, false);
        assert_emits(&first, &spec.end_to_end);
        for m in &first.metrics {
            assert!(
                m.value > 0.0,
                "{} {} must never be 0",
                workload.name(),
                m.name
            );
        }
        let second = tiny(workload, false);
        for name in DETERMINISTIC {
            let value = |r: &Run| r.metrics.iter().find(|m| m.name == name).map(|m| m.value);
            assert_eq!(
                value(&first),
                value(&second),
                "{} {name} must repeat exactly for a seed",
                workload.name()
            );
        }
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    let _serial = serial();
    let spec = Spec::embedded();
    for workload in Workload::ALL {
        let traced = tiny(workload, true);
        assert_emits(&traced, &spec.per_layer);
        assert!(
            traced
                .notes
                .iter()
                .any(|n| n.starts_with("reconciliation:")),
            "{}: no reconciliation line",
            workload.name()
        );
        let spans = traced.spans.recorded();
        for expected in ["build", "op", "submit", "replay.crypto.seal"] {
            assert!(
                spans.iter().any(|s| s.name == expected),
                "{}: no `{expected}` span",
                workload.name()
            );
        }
    }
}
