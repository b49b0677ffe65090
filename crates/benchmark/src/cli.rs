//! Command line of the benchmark binary.
//!
//! ```text
//! itdos-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one run; the last stdout line is the result as one JSON object
//! itdos-benchmark run [--workload W] [--seed S] [--seconds N] [--repeat R]
//!                     [--traced] [--out FILE]
//!     every workload (or one), R seeds each, one child process a run;
//!     prints every metric as `workload metric value unit` and writes a
//!     result set
//! itdos-benchmark check A.json B.json
//!     compares two result sets with BENCHMARK.json's bounds
//! ```

use std::path::{Path, PathBuf};

use crate::check;
use crate::json::Json;
use crate::measure::{self, Metric, Run, RunConfig};
use crate::spec::Spec;
use crate::workload::Workload;

/// Where spans and default result sets go (git-ignored), relative to
/// the repository root the benchmark is run from.
const OUT_DIR: &str = "crates/benchmark/out";

const USAGE: &str = "usage:
  itdos-benchmark --workload W --seed N --seconds S --trace 0|1
  itdos-benchmark run [--workload W] [--seed S] [--seconds N] [--repeat R] [--traced] [--out FILE]
  itdos-benchmark check A.json B.json";

/// Parsed `--flag value` options.
#[derive(Debug, Default)]
struct Options {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    repeat: Option<u64>,
    trace: Option<bool>,
    out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--traced" {
            options.trace = Some(true);
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                options.workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => options.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(bad());
                }
                options.seconds = Some(seconds);
            }
            "--repeat" => options.repeat = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                options.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--out" => options.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(options)
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The contract's result object: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
fn result_line(run: &Run) -> String {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(run.correct)),
        ("attempted".into(), Json::Num(run.attempted as f64)),
        ("failed".into(), Json::Num(run.failed as f64)),
        ("metrics".into(), metrics_json(&run.metrics)),
    ])
    .render()
}

fn print_table(run: &Run) {
    let name = run.config.workload.name();
    for m in run.metrics.iter().chain(&run.info) {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    for note in &run.notes {
        eprintln!("{name}: {note}");
    }
}

/// Refuses the repository's committed `BENCH_*.json` snapshots: this
/// runner never overwrites evidence other tools own.
fn refuse_root_snapshot(path: &Path) -> Result<(), String> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    let parent = path.parent().map(|p| p.as_os_str().to_os_string());
    let at_root = parent.is_none_or(|p| p.is_empty() || p == "." || p == "./");
    if at_root && name.starts_with("BENCH_") && name.ends_with(".json") {
        return Err(format!(
            "refusing to write {}: root BENCH_*.json snapshots are not this benchmark's to touch",
            path.display()
        ));
    }
    Ok(())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    refuse_root_snapshot(path)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes the traced run's spans; a read-only checkout only loses them.
fn write_spans(run: &Run) {
    if run.spans.recorded().is_empty() {
        return;
    }
    let path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", run.config.workload.name()));
    match write_file(&path, &run.spans.to_jsonl()) {
        Ok(()) => eprintln!(
            "{}: {} spans -> {}",
            run.config.workload.name(),
            run.spans.recorded().len(),
            path.display()
        ),
        Err(why) => eprintln!("spans not written: {why}"),
    }
}

fn one_run(options: &Options, spec: &Spec) -> Result<i32, String> {
    let workload = options.workload.ok_or("--workload is required")?;
    let run = measure::run(RunConfig {
        workload,
        seed: options.seed.unwrap_or(1),
        seconds: options.seconds.unwrap_or(spec.run_seconds as f64),
        traced: options.trace.unwrap_or(false),
        tiny: false,
    });
    print_table(&run);
    write_spans(&run);
    println!("{}", result_line(&run));
    Ok(0)
}

fn run_set(options: &Options, spec: &Spec) -> Result<i32, String> {
    let traced = options.trace.unwrap_or(false);
    let seed = options.seed.unwrap_or(1);
    let out = options.out.clone().unwrap_or_else(|| {
        let suffix = if traced { "-traced" } else { "" };
        Path::new(OUT_DIR).join(format!("results-seed{seed}{suffix}.json"))
    });
    refuse_root_snapshot(&out)?;
    let workloads = options.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let seconds = options.seconds.unwrap_or(spec.run_seconds as f64);
    let mut runs = Vec::new();
    let mut all_correct = true;
    for workload in workloads {
        for repeat in 0..options.repeat.unwrap_or(1) {
            let (correct, record) = child_run(workload, seed + repeat, seconds, traced)?;
            all_correct &= correct;
            runs.push(record);
        }
    }
    let doc = Json::Obj(vec![
        ("benchmark".into(), Json::Str("itdos".into())),
        ("runs".into(), Json::Arr(runs)),
    ]);
    let mut text = doc.render();
    text.push('\n');
    write_file(&out, &text)?;
    eprintln!("wrote {}", out.display());
    Ok(i32::from(!all_correct))
}

/// One run in a process of its own, as the driver would start it: peak
/// RSS is then that workload's alone (a process that has run
/// `bulk_closed` keeps 90-140 MiB of freed heap for whatever comes
/// next), and a workload that blows up takes only itself down. Waits for
/// the child, echoes its table, and returns `(correct, run record)`.
fn child_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(bool, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, result) = match stdout.trim_end().rsplit_once('\n') {
        Some((table, result)) if output.status.success() => (table, result),
        _ => {
            return Err(format!(
                "{} run ended with {}",
                workload.name(),
                output.status
            ))
        }
    };
    println!("{table}");
    let result = Json::parse(result)?;
    // the table carries the informational metrics too: `workload name value unit`
    let metrics = table
        .lines()
        .filter_map(|line| {
            let mut fields = line.split(' ');
            let (_, name, value, unit) = (
                fields.next()?,
                fields.next()?,
                fields.next()?,
                fields.next()?,
            );
            Some((
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value.parse().ok()?)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            ))
        })
        .collect();
    let field = |key: &str| result.get(key).cloned().unwrap_or(Json::Null);
    let record = Json::Obj(vec![
        ("workload".into(), Json::Str(workload.name().into())),
        ("seed".into(), Json::Num(seed as f64)),
        ("traced".into(), Json::Bool(traced)),
        ("correct".into(), field("correct")),
        ("attempted".into(), field("attempted")),
        ("failed".into(), field("failed")),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    Ok((result.get("correct") == Some(&Json::Bool(true)), record))
}

fn check_sets(paths: &[String], spec: &Spec) -> Result<i32, String> {
    let [a, b] = paths else {
        return Err("check needs exactly two result sets".into());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| check::parse_result_set(&text).map_err(|e| format!("{path}: {e}")))
    };
    let comparison = check::compare(spec, &read(a)?, &read(b)?);
    print!("{}", comparison.report);
    Ok(i32::from(comparison.regressed > 0))
}

/// Runs the command line; returns the process exit code (0 ok, 1 a run
/// was incorrect or a metric regressed, 2 usage or I/O error).
pub fn main(args: &[String]) -> i32 {
    let spec = Spec::embedded();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_options(&args[1..]).and_then(|o| run_set(&o, &spec)),
        Some("check") => check_sets(&args[1..], &spec),
        Some(flag) if flag.starts_with("--") && flag != "--help" => {
            parse_options(args).and_then(|o| one_run(&o, &spec))
        }
        _ => Err(USAGE.into()),
    };
    outcome.unwrap_or_else(|why| {
        eprintln!("{why}");
        2
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_bench_snapshots_are_refused() {
        assert!(refuse_root_snapshot(Path::new("BENCH_heal.json")).is_err());
        assert!(refuse_root_snapshot(Path::new("./BENCH_prof.json")).is_err());
        assert!(refuse_root_snapshot(Path::new("crates/benchmark/out/BENCH_x.json")).is_ok());
        assert!(refuse_root_snapshot(Path::new("results.json")).is_ok());
    }

    #[test]
    fn contract_flags_parse() {
        let args: Vec<String> = "--workload small_closed --seed 7 --seconds 15 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let o = parse_options(&args).expect("parses");
        assert_eq!(o.workload, Some(Workload::SmallClosed));
        assert_eq!(
            (o.seed, o.seconds, o.trace),
            (Some(7), Some(15.0), Some(true))
        );
        assert!(parse_options(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_options(&["--trace".into(), "2".into()]).is_err());
    }
}
