//! `check A.json B.json`: compares two result sets with the bounds stored
//! in `BENCHMARK.json`, one row per workload × end-to-end metric.
//!
//! * **ok** — B's median is no worse than A's by more than the bound;
//! * **regressed** — it is worse by more than the bound, or B failed
//!   ops, or a deterministic metric differs between equal seeds;
//! * **unresolved** — the run-to-run spread of either side is wider than
//!   the bound, so "unchanged" cannot be claimed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::spec::{Spec, DETERMINISTIC};
use crate::stats;

/// One run of a result set, as `check` needs it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// The run's seed.
    pub seed: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
}

/// Reads the untraced runs of a result set written by `run --out`.
pub fn parse_result_set(text: &str) -> Result<Vec<RunRecord>, String> {
    let doc = Json::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("result set: no `runs` array")?;
    let mut records = Vec::new();
    for run in runs {
        if run.get("traced") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("result set: run without `workload`")?
            .to_string();
        let number = |key: &str| {
            run.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("result set: run without `{key}`"))
        };
        let mut metrics = BTreeMap::new();
        for (name, metric) in run
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("result set: run without `metrics`")?
        {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                metrics.insert(name.clone(), value);
            }
        }
        records.push(RunRecord {
            workload,
            seed: number("seed")? as u64,
            failed: number("failed")? as u64,
            metrics,
        });
    }
    Ok(records)
}

/// Verdict on one workload × metric row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Within the bound, and the spread lets us say so.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// Spread wider than the bound.
    Unresolved,
}

/// The comparison of two result sets.
#[derive(Debug)]
pub struct Comparison {
    /// One line per row, ready to print.
    pub report: String,
    /// Rows that regressed.
    pub regressed: usize,
    /// Rows whose spread is wider than their bound.
    pub unresolved: usize,
}

fn values(runs: &[&RunRecord], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Compares baseline `a` with candidate `b` under `spec`'s bounds.
pub fn compare(spec: &Spec, a: &[RunRecord], b: &[RunRecord]) -> Comparison {
    let mut report = String::new();
    let (mut regressed, mut unresolved) = (0, 0);
    for workload in &spec.workloads {
        let runs_a: Vec<&RunRecord> = a.iter().filter(|r| &r.workload == workload).collect();
        let runs_b: Vec<&RunRecord> = b.iter().filter(|r| &r.workload == workload).collect();
        if runs_a.is_empty() || runs_b.is_empty() {
            let _ = writeln!(report, "{workload} * missing from one side: unresolved");
            unresolved += 1;
            continue;
        }
        let failed: u64 = runs_b.iter().map(|r| r.failed).sum();
        if failed > 0 {
            let _ = writeln!(report, "{workload} failed_ops {failed} > 0: regressed");
            regressed += 1;
        }
        for metric in &spec.end_to_end {
            let (va, vb) = (values(&runs_a, &metric.name), values(&runs_b, &metric.name));
            if va.is_empty() || vb.is_empty() {
                let _ = writeln!(report, "{workload} {} missing: unresolved", metric.name);
                unresolved += 1;
                continue;
            }
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let bound = metric.bound.unwrap_or(0.0);
            let worse = match (ma == 0.0, metric.lower_is_better) {
                (true, _) => 0.0,
                (false, true) => (mb - ma) / ma.abs(),
                (false, false) => (ma - mb) / ma.abs(),
            };
            let spread = stats::quartile_spread(&va).max(stats::quartile_spread(&vb));
            let mut verdict = if worse > bound {
                Verdict::Regressed
            } else if spread > bound {
                Verdict::Unresolved
            } else {
                Verdict::Ok
            };
            // equal seeds must agree exactly on the deterministic metrics
            let mut differs = None;
            if DETERMINISTIC.contains(&metric.name.as_str()) {
                for ra in &runs_a {
                    for rb in runs_b.iter().filter(|rb| rb.seed == ra.seed) {
                        if ra.metrics.get(&metric.name) != rb.metrics.get(&metric.name) {
                            differs = Some(ra.seed);
                        }
                    }
                }
            }
            if differs.is_some() {
                verdict = Verdict::Regressed;
            }
            match verdict {
                Verdict::Ok => {}
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
            }
            let _ = writeln!(
                report,
                "{workload} {} {ma} -> {mb} {} ({:+.2}% worse, bound {:.0}%, spread {:.2}%): {}{}",
                metric.name,
                metric.unit,
                worse * 100.0,
                bound * 100.0,
                spread * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
                differs.map_or(String::new(), |seed| format!(
                    " (deterministic metric differs at seed {seed})"
                )),
            );
        }
    }
    let _ = writeln!(
        report,
        "check: {regressed} regressed, {unresolved} unresolved"
    );
    Comparison {
        report,
        regressed,
        unresolved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MetricSpec;

    fn spec() -> Spec {
        Spec {
            run_seconds: 1,
            workloads: vec!["w".into()],
            end_to_end: vec![
                MetricSpec {
                    name: "op_host_us_p50".into(),
                    unit: "us".into(),
                    lower_is_better: true,
                    bound: Some(0.1),
                },
                MetricSpec {
                    name: "msgs_per_op".into(),
                    unit: "count".into(),
                    lower_is_better: true,
                    bound: Some(0.01),
                },
            ],
            per_layer: Vec::new(),
        }
    }

    fn run(seed: u64, host: f64, msgs: f64) -> RunRecord {
        RunRecord {
            workload: "w".into(),
            seed,
            failed: 0,
            metrics: [
                ("op_host_us_p50".to_string(), host),
                ("msgs_per_op".to_string(), msgs),
            ]
            .into(),
        }
    }

    #[test]
    fn same_set_is_ok_and_a_slowdown_regresses() {
        let a = vec![run(1, 100.0, 57.0), run(2, 101.0, 57.5)];
        assert_eq!(compare(&spec(), &a, &a).regressed, 0);
        let slow = vec![run(1, 120.0, 57.0), run(2, 121.0, 57.5)];
        let cmp = compare(&spec(), &a, &slow);
        assert_eq!(cmp.regressed, 1, "{}", cmp.report);
    }

    #[test]
    fn wide_spread_is_unresolved_and_count_drift_regresses() {
        let noisy: Vec<RunRecord> = [100.0, 140.0, 90.0, 150.0, 95.0]
            .iter()
            .enumerate()
            .map(|(i, &h)| run(i as u64, h, 57.0))
            .collect();
        assert!(compare(&spec(), &noisy, &noisy).unresolved >= 1);
        // same seed, different message count: not a tolerance question
        let a = vec![run(1, 100.0, 57.0)];
        let b = vec![run(1, 100.0, 57.1)];
        let cmp = compare(&spec(), &a, &b);
        assert_eq!(cmp.regressed, 1, "{}", cmp.report);
    }

    #[test]
    fn parses_what_run_writes() {
        let text = r#"{"runs": [{"workload": "w", "seed": 3, "traced": false, "correct": true, "attempted": 5, "failed": 0, "metrics": {"msgs_per_op": {"value": 57.5, "unit": "count"}}}, {"workload": "w", "seed": 3, "traced": true, "failed": 0, "metrics": {}}]}"#;
        let runs = parse_result_set(text).expect("parses");
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].metrics["msgs_per_op"], 57.5);
    }
}
