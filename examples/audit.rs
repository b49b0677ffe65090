//! Forensic audit CLI: replays `itdos-obs` JSONL dumps through
//! `itdos-audit` and prints the report.
//!
//! ```text
//! audit [--expect-blame] FILE...   audit one or more per-process dumps
//! audit --stream [--assert-equivalence] FILE...
//!                                  replay events incrementally, printing
//!                                  findings as they surface
//! ```
//!
//! Run with: `cargo run -p itdos --example audit -- FILE...`
//!
//! Each FILE is one process's dump (as written by `System::audit_jsonl`
//! or the `intrusion_drill` example); with several files the event
//! streams are merged into a single causally ordered timeline. The
//! topology is read from the `{"type":"topology",…}` lines embedded in
//! the dumps — no out-of-band configuration. The report is computed
//! twice and asserted byte-identical, so every CLI run doubles as a
//! determinism self-check.
//!
//! `--stream` feeds the merged timeline through the incremental
//! [`itdos_audit::Stream`] one event at a time — the same pipeline a
//! live system runs — annotating each finding with the recorder
//! sequence at which enough evidence had accumulated to surface it.
//! `--assert-equivalence` then re-audits the same bytes through the
//! batch path and exits nonzero unless both reports render
//! byte-identically.
//!
//! `--expect-blame` exits nonzero unless the blame set is non-empty;
//! CI runs the drill dump through it as a self-validating smoke.

use std::process::ExitCode;

use itdos_audit::{merge_dumps, Auditor, MetricsFacts};

fn usage() -> ExitCode {
    eprintln!("usage: audit [--expect-blame] FILE...");
    eprintln!("       audit --stream [--assert-equivalence] FILE...");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut expect_blame = false;
    let mut stream_mode = false;
    let mut assert_equivalence = false;
    let mut files: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--expect-blame" => expect_blame = true,
            "--stream" => stream_mode = true,
            "--assert-equivalence" => assert_equivalence = true,
            "--help" | "-h" => return usage(),
            _ => files.push(arg),
        }
    }
    if assert_equivalence && !stream_mode {
        eprintln!("audit: --assert-equivalence requires --stream");
        return usage();
    }
    if files.is_empty() {
        return usage();
    }

    let mut texts = Vec::with_capacity(files.len());
    for path in &files {
        match std::fs::read_to_string(path) {
            Ok(text) => texts.push(text),
            Err(err) => {
                eprintln!("audit: cannot read {path}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();

    // the topology rides inside the dump; any of the files may carry it,
    // so probe them in order
    let auditor = match refs.iter().find_map(|t| Auditor::from_dump_text(t).ok()) {
        Some(auditor) => auditor,
        None => {
            eprintln!("audit: no dump carries topology records (was it written by audit_jsonl?)");
            return ExitCode::FAILURE;
        }
    };

    if stream_mode {
        return stream(&auditor, &refs, assert_equivalence);
    }

    let report = match auditor.audit_streams(&refs) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("audit: malformed dump: {err}");
            return ExitCode::FAILURE;
        }
    };
    let rendered = report.render();
    let again = auditor
        .audit_streams(&refs)
        .expect("a dump that parsed once parses twice");
    assert_eq!(
        rendered,
        again.render(),
        "audit is deterministic: two passes over the same bytes diverged"
    );
    print!("{rendered}");

    if expect_blame && report.blamed_elements().is_empty() {
        eprintln!("audit: --expect-blame but the blame set is empty");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Replays the merged event timeline through the incremental pipeline,
/// printing each finding at the recorder sequence where it surfaced,
/// then the final report. With `assert_equivalence` the same bytes are
/// re-audited through the batch path and the two renders compared.
fn stream(auditor: &Auditor, refs: &[&str], assert_equivalence: bool) -> ExitCode {
    // the timeline `Auditor::audit_streams` audits, replayed event by event
    let combined = match merge_dumps(refs) {
        Ok(dump) => dump,
        Err(err) => {
            eprintln!("audit: malformed dump: {err}");
            return ExitCode::FAILURE;
        }
    };

    let mut live = auditor.stream();
    println!("== streaming audit ==");
    for event in &combined.events {
        for finding in live.observe(event) {
            print_surfaced(event.seq, &finding);
        }
    }
    let facts = MetricsFacts::from_dump(&combined);
    let last_seq = combined.events.last().map(|e| e.seq).unwrap_or(0);
    for finding in live.drain_new(&facts) {
        // metric-derived findings surface only once the registry is read
        print_surfaced(last_seq, &finding);
    }
    let report = live.report(&facts);
    println!();
    print!("{}", report.render());

    if assert_equivalence {
        let batch = match auditor.audit_streams(refs) {
            Ok(report) => report,
            Err(err) => {
                eprintln!("audit: malformed dump: {err}");
                return ExitCode::FAILURE;
            }
        };
        if report.render() != batch.render() {
            eprintln!("audit: STREAMING/BATCH DIVERGENCE");
            if facts.tap_dropped > 0 {
                // name the known benign cause instead of leaving the
                // operator to diff renders: a saturated subscription tap
                // drops evidence the batch replay still has
                eprintln!(
                    "audit: the live tap dropped {} event(s) (obs.tap_dropped) — the streaming \
                     verdict ran on less evidence than the batch replay; raise the tap capacity",
                    facts.tap_dropped
                );
            }
            eprintln!("--- streaming ---\n{}", report.render());
            eprintln!("--- batch ---\n{}", batch.render());
            return ExitCode::FAILURE;
        }
        println!(
            "equivalence: streaming == batch ({} finding(s), {} byte(s))",
            report.findings.len(),
            report.render().len()
        );
    }
    ExitCode::SUCCESS
}

fn print_surfaced(seq: u64, finding: &itdos_audit::Finding) {
    let mut line = format!(
        "[seq {:>6}] [{}] {}/{}",
        seq,
        finding.severity.tag(),
        finding.analyzer,
        finding.kind
    );
    if let Some(e) = finding.element {
        line.push_str(&format!(" element {e}"));
    }
    if let Some(d) = finding.domain {
        line.push_str(&format!(" (domain {d})"));
    }
    println!("{line}: {}", finding.detail);
}
