//! Deterministic whole-stack profiler (DESIGN.md §16): runs a seeded
//! counter workload under forensic observability, folds every causal
//! invocation trace into [`itdos_obs::Profile`]'s cost tree, and emits
//! it in three formats — the human report on stdout, a flamegraph-ready
//! folded-stack file, and a `BENCH_prof.json` the `exp_report
//! --bench-compare` gate understands.
//!
//! ```text
//! profile [--smoke] [--json OUT.json] [--folded OUT.folded]
//! ```
//!
//! Without `--json` a full run writes `BENCH_prof.json`; a `--smoke` run
//! writes only where it is told to.
//!
//! The binary runs the workload **twice with the same seed** and exits
//! nonzero unless both the JSON profile and the folded-stack text come
//! back byte-identical — the profiler itself must be deterministic
//! before its numbers are worth gating on. It also enforces the
//! attribution floor: at least 90% of end-to-end invocation latency
//! (`attributed_permille >= 900`) must land on named hops, and no
//! submitted invocation may fall off the forensic flight ring.

use std::fmt::Write as _;
use std::process::ExitCode;

use itdos_bench::{deploy, measure_invocation, DeployOptions};
use itdos_obs::Profile;

/// One seeded profiling run: a warm-up invocation plus `invocations`
/// measured counter calls, returning the folded cost tree and its three
/// renderings.
fn run(invocations: usize) -> (Profile, String, String, String) {
    let mut system = deploy(&DeployOptions {
        observability: true,
        forensic: true,
        seed: 17,
        ..DeployOptions::default()
    });
    for i in 0..invocations as i64 {
        measure_invocation(&mut system, i + 1);
    }
    let profile = system.profile().expect("observability is on");
    let report = system.profile_report();
    let json = system.profile_jsonl();
    let folded = system.profile_folded();
    (profile, report, json, folded)
}

/// The `BENCH_prof.json` document: the gated aggregates plus per-hop
/// detail, shaped for `compare::classify`'s `profile` schema.
fn bench_json(profile: &Profile) -> String {
    let mut out = String::from("{\n  \"bench\": \"profile\",\n");
    let _ = writeln!(out, "  \"invocations\": {},", profile.invocations());
    let _ = writeln!(out, "  \"untraced\": {},", profile.untraced());
    let _ = writeln!(out, "  \"total_us\": {},", profile.total_us());
    let _ = writeln!(out, "  \"attributed_us\": {},", profile.attributed_us());
    let _ = writeln!(out, "  \"residual_us\": {},", profile.residual_us());
    let _ = writeln!(
        out,
        "  \"attributed_permille\": {},",
        profile.attributed_permille()
    );
    out.push_str("  \"hops\": [\n");
    let hops: Vec<_> = profile.hops().filter(|(_, h)| h.count() > 0).collect();
    for (i, (stage, h)) in hops.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"stage\": \"{stage}\", \"count\": {}, \"sum_us\": {}, \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {} }}{}",
            h.count(),
            h.sum(),
            h.percentile(50),
            h.percentile(99),
            h.max(),
            if i + 1 < hops.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut json_path = None;
    let mut folded_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--json" => match args.next() {
                Some(p) => json_path = Some(p),
                None => {
                    eprintln!("--json needs a path");
                    return ExitCode::from(2);
                }
            },
            "--folded" => match args.next() {
                Some(p) => folded_path = Some(p),
                None => {
                    eprintln!("--folded needs a path");
                    return ExitCode::from(2);
                }
            },
            _ => {
                eprintln!("usage: profile [--smoke] [--json OUT.json] [--folded OUT.folded]  (--json defaults to BENCH_prof.json; --smoke writes only to explicit paths)");
                return ExitCode::from(2);
            }
        }
    }

    let invocations = if smoke { 8 } else { 64 };
    let (profile, report, json, folded) = run(invocations);
    let (_, _, json2, folded2) = run(invocations);
    print!("{report}");

    if json != json2 || folded != folded2 {
        eprintln!("FAIL: two identical seeded runs produced different profiles");
        return ExitCode::from(1);
    }
    println!(
        "run-twice: byte-identical (json {} B, folded {} B)",
        json.len(),
        folded.len()
    );
    if profile.untraced() > 0 {
        eprintln!(
            "FAIL: {} invocation(s) fell off the forensic flight ring",
            profile.untraced()
        );
        return ExitCode::from(1);
    }
    let pm = profile.attributed_permille();
    if pm < 900 {
        eprintln!(
            "FAIL: only {}.{}% of latency attributed (floor 90.0%)",
            pm / 10,
            pm % 10
        );
        return ExitCode::from(1);
    }

    if let Some(path) = folded_path {
        if let Err(err) = std::fs::write(&path, &folded) {
            eprintln!("FAIL: cannot write {path}: {err}");
            return ExitCode::from(1);
        }
        println!("wrote {path}");
    }
    itdos_bench::write_snapshot(json_path, "BENCH_prof.json", smoke, &bench_json(&profile))
}
