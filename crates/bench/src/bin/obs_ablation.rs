//! Streaming-audit overhead ablation (DESIGN.md §15): host wall-clock
//! cost per invocation with the recorder on, under three audit
//! treatments of the same seeded faulty workload:
//!
//! - `audit_off`  — flight recorder runs, no audit at all;
//! - `batch`      — no in-system audit; one post-hoc batch audit of the
//!   final dump, amortised over the invocations;
//! - `streaming`  — the in-system incremental audit pumps on every
//!   `settle()`, exactly as a production deployment runs.
//!
//! ```text
//! obs_ablation [--smoke] [OUT.json]    writes BENCH_obs.json by default;
//!                                      --smoke writes only to an explicit OUT.json
//! ```
//!
//! The binary exits nonzero unless streaming stays within the 2× bound
//! of the audit-off baseline **in simulated time** — always-on auditing
//! must be cheap enough to leave on. Sim-time is deterministic (same
//! seed, same schedule, every run), so the gate cannot flake; the host
//! wall-clock numbers are still measured (best of several repetitions)
//! and reported, but only as information.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use itdos::fault::Behavior;
use itdos_audit::Auditor;
use itdos_bench::{deploy, measure_invocation, DeployOptions};

/// The three audit treatments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    AuditOff,
    Batch,
    Streaming,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::AuditOff => "audit_off",
            Mode::Batch => "batch",
            Mode::Streaming => "streaming",
        }
    }
}

struct Row {
    mode: Mode,
    invoke_ns: u64,
    /// Deterministic simulated time consumed by the measured
    /// invocations — identical on every repetition, so the 2× bound
    /// gates on this, not on host nanoseconds.
    sim_us: u64,
    findings: u64,
}

/// One timed run: `invocations` counter calls against the seeded faulty
/// deployment, plus (batch mode) the post-hoc audit, best of `reps`.
fn run(mode: Mode, invocations: usize, reps: u32) -> Row {
    let options = DeployOptions {
        fault: Some(Behavior::CorruptValue),
        observability: true,
        streaming_audit: mode == Mode::Streaming,
        seed: 11,
        ..DeployOptions::default()
    };
    let mut best_ns = u64::MAX;
    let mut sim_us = 0u64;
    let mut findings = 0u64;
    for _ in 0..reps {
        let mut system = deploy(&options);
        let start = Instant::now();
        let mut rep_sim_us = 0u64;
        for i in 0..invocations as i64 {
            rep_sim_us += measure_invocation(&mut system, i + 1).latency.as_micros();
        }
        sim_us = rep_sim_us; // deterministic: identical on every rep
        findings = match mode {
            Mode::AuditOff => 0,
            Mode::Batch => {
                // the post-hoc audit is part of what this mode costs
                let dump = system.audit_jsonl();
                let auditor = Auditor::from_dump_text(&dump).expect("dump carries topology");
                let report = auditor.audit(&dump).expect("dump parses");
                report.findings.len() as u64
            }
            Mode::Streaming => system
                .live_audit_report()
                .map(|r| r.findings.len() as u64)
                .unwrap_or(0),
        };
        let ns = start.elapsed().as_nanos() as u64 / invocations as u64;
        best_ns = best_ns.min(ns);
    }
    Row {
        mode,
        invoke_ns: best_ns,
        sim_us,
        findings,
    }
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut out_path = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                eprintln!("usage: obs_ablation [--smoke] [OUT.json]  (default BENCH_obs.json; --smoke writes only to an explicit path)");
                return ExitCode::from(2);
            }
            path => out_path = Some(path.to_string()),
        }
    }

    let (invocations, reps) = if smoke { (8, 2) } else { (32, 3) };
    // one throwaway pass warms the page cache and code paths
    run(Mode::AuditOff, 2, 1);

    let rows: Vec<Row> = [Mode::AuditOff, Mode::Batch, Mode::Streaming]
        .into_iter()
        .map(|mode| run(mode, invocations, reps))
        .collect();
    for row in &rows {
        println!(
            "{:<10} {:>9} ns/invocation (wall, info)  {:>8} sim_us  ({} finding(s))",
            row.mode.name(),
            row.invoke_ns,
            row.sim_us,
            row.findings
        );
    }

    let off_ns = rows[0].invoke_ns.max(1);
    let streaming_ns = rows[2].invoke_ns;
    let wall_ratio = streaming_ns as f64 / off_ns as f64;
    let off_sim = rows[0].sim_us.max(1);
    let sim_ratio = rows[2].sim_us as f64 / off_sim as f64;
    println!("streaming/audit_off: {sim_ratio:.2}x sim (bound 2.00x), {wall_ratio:.2}x wall (informational)");

    // both audit treatments must actually see the intrusion
    for row in &rows[1..] {
        if row.findings == 0 {
            eprintln!(
                "FAIL: {} audited a faulty run but found nothing",
                row.mode.name()
            );
            return ExitCode::from(1);
        }
    }
    // the gate runs on deterministic sim-time: a noisy host cannot flake
    // it, and a real streaming-audit slowdown cannot hide behind one
    if sim_ratio > 2.0 {
        eprintln!("FAIL: streaming audit sim-time overhead {sim_ratio:.2}x exceeds the 2x bound");
        return ExitCode::from(1);
    }

    let mut json = String::from("{\n  \"bench\": \"obs_ablation\",\n");
    let _ = writeln!(json, "  \"invocations\": {invocations},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"streaming_vs_audit_off_sim\": {sim_ratio:.2},");
    let _ = writeln!(json, "  \"streaming_vs_audit_off\": {wall_ratio:.2},");
    let _ = writeln!(json, "  \"bound\": 2.0,");
    let _ = writeln!(json, "  \"modes\": [");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"invoke_ns\": {}, \"sim_us\": {}, \"findings\": {} }}{}",
            row.mode.name(),
            row.invoke_ns,
            row.sim_us,
            row.findings,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    itdos_bench::write_snapshot(out_path, "BENCH_obs.json", smoke, &json)
}
