//! Runs `itdos-lint` over the live workspace as part of the test suite,
//! so an invariant regression (a new registry dependency, a clock read in
//! replica code, an unwrap in a message handler, a variable-time MAC
//! compare, an unchecked hostile length, a hand-built wire reader, a lock
//! inversion) fails `cargo test` — not just the standalone CLI.
//!
//! Beyond the live-tree run, each of the dataflow passes (L5 hostile
//! arithmetic, L6 wire symmetry, L7 lock order) is pinned here with one
//! positive and one negative fixture, so a refactor that silently blinds
//! a pass fails this gate even while the (clean) live tree keeps passing.

use itdos_lint::source::SourceFile;
use itdos_lint::{hostile_arith, lock_order, wire_symmetry};
use std::collections::BTreeMap;
use std::path::Path;

fn workspace_root() -> &'static Path {
    // tests/ lives directly under the workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests crate sits inside the workspace")
}

/// Reads the checked-in waiver budget (same file CI gates on).
fn waiver_budget() -> usize {
    let path = workspace_root().join("lint-waivers.budget");
    std::fs::read_to_string(&path)
        .expect("lint-waivers.budget exists at the workspace root")
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .expect("budget file has a count line")
        .parse()
        .expect("budget line is an integer")
}

/// The linter finds zero unwaived violations in the tree as committed.
#[test]
fn workspace_has_no_unwaived_findings() {
    let report = itdos_lint::run_workspace(workspace_root()).expect("lint walk succeeds");
    let active: Vec<String> = report.active().map(|f| f.to_string()).collect();
    assert!(
        active.is_empty(),
        "unwaived itdos-lint findings:\n\n{}",
        active.join("\n\n")
    );
}

/// Waivers in the live tree are all justified (the parser refuses bare
/// `allow(...)` without `-- reason`, so any recorded waiver carries one)
/// and their count stays within the checked-in `lint-waivers.budget` —
/// the same number CI enforces via `itdos-lint --budget`, so silently
/// accumulating waivers shows up in review as a budget edit.
#[test]
fn live_waivers_are_justified_and_within_budget() {
    let report = itdos_lint::run_workspace(workspace_root()).expect("lint walk succeeds");
    let waived: Vec<_> = report.findings.iter().filter(|f| !f.is_active()).collect();
    for f in &waived {
        let just = f.waiver.as_deref().unwrap_or("");
        assert!(
            just.len() >= 10,
            "waiver at {}:{} has a trivial justification: {just:?}",
            f.path,
            f.line
        );
    }
    let budget = waiver_budget();
    assert!(
        waived.len() <= budget,
        "waiver count crept up to {} (> budget {}); fix a finding or raise \
         lint-waivers.budget with review",
        waived.len(),
        budget
    );
}

/// All seven rule classes are wired into the workspace run (guards
/// against a refactor dropping a rule from the dispatch).
#[test]
fn all_rule_classes_are_exercised() {
    let report = itdos_lint::run_workspace(workspace_root()).expect("lint walk succeeds");
    let per_rule = report.per_rule();
    assert_eq!(per_rule.len(), 7, "seven rule classes");
}

// ---- L5 hostile arithmetic ------------------------------------------------

/// Positive: a decode path that indexes and does unchecked `+` on an
/// attacker-supplied length is flagged.
#[test]
fn l5_fixture_unchecked_length_arithmetic_fires() {
    let src = "fn decode_frame(bytes: &[u8], len: usize) -> u8 {\n    bytes[len + 4]\n}";
    let findings = hostile_arith::check_hostile_arith("x/src/wire.rs", &SourceFile::scan(src));
    assert!(
        !findings.is_empty(),
        "tainted index + unchecked add must fire"
    );
    assert!(findings.iter().all(|f| f.is_active()));
}

/// Negative: the same shape with `checked_add` and `.get()` is clean.
#[test]
fn l5_fixture_checked_length_arithmetic_is_clean() {
    let src = "fn decode_frame(bytes: &[u8], len: usize) -> Option<u8> {\n    let end = len.checked_add(4)?;\n    bytes.get(end).copied()\n}";
    let findings = hostile_arith::check_hostile_arith("x/src/wire.rs", &SourceFile::scan(src));
    assert!(findings.is_empty(), "{findings:#?}");
}

// ---- L6 wire symmetry -----------------------------------------------------

/// A codec pair built by hand on a reader and a writer.
const L6_HAND_BUILT_PAIR: &str = "\
fn encode_frame(x: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(x).finish()
}
fn decode_frame(bytes: &[u8]) -> Result<u64, WireError> {
    let mut r = Reader::new(bytes);
    r.u64()
}
";

fn l6_findings(path: &str, src: &str) -> Vec<itdos_lint::findings::Finding> {
    let mut files = BTreeMap::new();
    files.insert(
        path.to_string(),
        ("itdos-bft".to_string(), SourceFile::scan(src)),
    );
    wire_symmetry::check_with_manifest(&[], wire_symmetry::WIRE_LAWS, &files)
}

/// Positive: a reader or writer constructed in a wire-bearing crate
/// outside `wire.rs` is flagged — that decode escapes the shared
/// `expect_end`, and nothing keeps the two halves symmetric.
#[test]
fn l6_fixture_stray_reader_fires() {
    let findings = l6_findings("crates/x/src/element.rs", L6_HAND_BUILT_PAIR);
    let hits: Vec<_> = findings
        .iter()
        .map(|f| (f.line, &f.message[..13]))
        .collect();
    assert_eq!(hits, [(2, "`Writer::new`"), (6, "`Reader::new`")]);
}

/// Negative: the same pair is the codec's own business inside `wire.rs`,
/// and a test building hostile input may construct either end anywhere.
#[test]
fn l6_fixture_symmetric_pair_is_clean() {
    let findings = l6_findings("crates/x/src/wire.rs", L6_HAND_BUILT_PAIR);
    assert!(findings.is_empty(), "{findings:#?}");
    let in_test = format!("#[cfg(test)]\nmod tests {{\n{L6_HAND_BUILT_PAIR}}}\n");
    let findings = l6_findings("crates/x/src/element.rs", &in_test);
    assert!(findings.is_empty(), "{findings:#?}");
}

// ---- L7 lock order ----------------------------------------------------------

/// Positive: two functions acquiring the same two locks in opposite
/// orders flag both sites; a send under a live guard flags its own.
#[test]
fn l7_fixture_inversion_and_send_under_lock_fire() {
    let src = "\
fn f(&self) {
    let a = self.peers.lock().ok();
    let b = self.queue.lock().ok();
}
fn g(&self) {
    let b = self.queue.lock().ok();
    let a = self.peers.lock().ok();
    self.sock.send(&[1]);
}
";
    let (direct, edges) = lock_order::scan_file("x/src/node.rs", &SourceFile::scan(src));
    assert!(
        direct.iter().any(|f| f.message.contains("send")),
        "{direct:#?}"
    );
    let inversions = lock_order::order_findings(&edges);
    assert_eq!(inversions.len(), 2, "{inversions:#?}");
}

/// Negative: consistent ordering with the guard dropped before the send
/// is clean.
#[test]
fn l7_fixture_ordered_locks_are_clean() {
    let src = "\
fn f(&self) {
    let a = self.peers.lock().ok();
    let b = self.queue.lock().ok();
}
fn g(&self) {
    {
        let a = self.peers.lock().ok();
        let b = self.queue.lock().ok();
    }
    self.sock.send(&[1]);
}
";
    let (direct, edges) = lock_order::scan_file("x/src/node.rs", &SourceFile::scan(src));
    assert!(direct.is_empty(), "{direct:#?}");
    assert!(lock_order::order_findings(&edges).is_empty());
}
