//! # itdos-lint — workspace invariant checker
//!
//! ITDOS only works if every replica is a deterministic state machine and
//! every message handler is total: nondeterminism silently breaks middleware
//! voting across heterogeneous replicas, a panicking handler turns Byzantine
//! input into an availability attack, a variable-time MAC comparison leaks a
//! timing oracle, and a registry dependency breaks the offline tier-1 build.
//! None of those invariants is visible to `rustc`, so this crate enforces
//! them statically over the whole workspace:
//!
//! * **L1 hermeticity** — every `[dependencies]`-style entry in every
//!   `Cargo.toml` resolves to a workspace path crate ([`manifest`]).
//! * **L2 determinism** — replica-deterministic crates contain no clock
//!   reads, OS entropy, environment reads, or RandomState iteration
//!   ([`rules::check_determinism`]).
//! * **L3 panic-freedom** — protocol message-handling crates contain no
//!   `unwrap`/`expect`/`panic!`/`unreachable!` outside test code
//!   ([`rules::check_panic_freedom`]).
//! * **L4 constant-time crypto** — `itdos-crypto` never compares MAC/digest/
//!   key material with `==`/`!=` ([`rules::check_ct_crypto`]).
//! * **L5 hostile arithmetic** — Byzantine-facing decode paths never index,
//!   narrow-cast, or do unchecked arithmetic on attacker-controlled lengths;
//!   a token-level taint pass tracks decode inputs through bindings
//!   ([`hostile_arith::check_hostile_arith`]).
//! * **L6 wire symmetry** — compact-wire types are symmetric by
//!   construction; no reader or writer is built outside a `wire.rs`, every
//!   `Wire` type is named in the law harness, and the hand-written GIOP/CDR
//!   pairs are registered in a round-trip test
//!   ([`wire_symmetry::check_wire_symmetry`]).
//! * **L7 lock order** — nested lock acquisitions follow one global order
//!   and no lock is held across a send/recv call
//!   ([`lock_order::scan_file`]).
//!
//! Any finding can be waived **in place** with a justified comment:
//!
//! ```text
//! let first = self.quorum.first().unwrap(); // itdos-lint: allow(panic-freedom) -- quorum is non-empty by construction (checked 4 lines up)
//! ```
//!
//! Run it with `cargo run -p itdos-lint` (human output) or
//! `cargo run -p itdos-lint -- --json` (JSON lines). Exit code 0 means no
//! unwaived findings. The integration suite runs the same check over the
//! live workspace (`tests/tests/lint_gate.rs`), so CI fails when an
//! invariant regresses.

pub mod findings;
pub mod hostile_arith;
pub mod lock_order;
pub mod manifest;
pub mod rules;
pub mod source;
pub mod tokens;
pub mod wire_symmetry;

use findings::{Finding, Rule};
use source::SourceFile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Result of linting a workspace.
#[derive(Debug)]
pub struct Report {
    /// Every finding, waived or not, ordered by path then line.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Findings that count against the exit code.
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.is_active())
    }

    /// Count of active (unwaived) findings.
    pub fn active_count(&self) -> usize {
        self.active().count()
    }

    /// Count of waived findings.
    pub fn waived_count(&self) -> usize {
        self.findings.len() - self.active_count()
    }

    /// Per-rule (active, waived) counts in [`Rule::ALL`] order.
    pub fn per_rule(&self) -> Vec<(Rule, usize, usize)> {
        Rule::ALL
            .iter()
            .map(|&rule| {
                let active = self
                    .findings
                    .iter()
                    .filter(|f| f.rule == rule && f.is_active())
                    .count();
                let waived = self
                    .findings
                    .iter()
                    .filter(|f| f.rule == rule && !f.is_active())
                    .count();
                (rule, active, waived)
            })
            .collect()
    }
}

/// Walks the workspace at `root` and applies every rule.
///
/// Directories named `target`, `.git`, or starting with `.` are skipped.
/// Files are visited in sorted order so output (and JSON) is byte-stable
/// across machines — the linter holds itself to its own determinism rule.
pub fn run_workspace(root: &Path) -> std::io::Result<Report> {
    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml"))?;
    let ws_paths = manifest::workspace_path_deps(&root_manifest);

    let mut manifests = Vec::new();
    let mut sources = Vec::new();
    collect_files(root, root, &mut manifests, &mut sources)?;

    let mut findings = Vec::new();
    for path in &manifests {
        let text = std::fs::read_to_string(path)?;
        findings.extend(manifest::check_manifest(&rel(root, path), &text, &ws_paths));
    }

    // every .rs file, keyed by workspace-relative path; the crate name is
    // empty for files outside a crate's src/ tree (integration tests stay
    // visible for L6 round-trip lookups but out of scope for per-crate
    // rules and pair discovery)
    let mut files: BTreeMap<String, (String, SourceFile)> = BTreeMap::new();
    let mut lock_edges = Vec::new();

    for path in &sources {
        let crate_name = owning_crate(root, path).unwrap_or_default();
        let in_src = !crate_name.is_empty() && under_src(root, path);
        let text = std::fs::read_to_string(path)?;
        let file = SourceFile::scan(&text);
        let rp = rel(root, path);

        if in_src {
            if rules::DETERMINISTIC_CRATES.contains(&crate_name.as_str()) {
                findings.extend(rules::check_determinism(&rp, &file));
            }
            // the compact-wire reader every one of those handlers decodes
            // through lives in `xbytes`
            if rules::PANIC_FREE_CRATES.contains(&crate_name.as_str())
                || (crate_name == "xbytes" && rp.ends_with("/wire.rs"))
            {
                findings.extend(rules::check_panic_freedom(&rp, &file));
            }
            if rules::CT_CRATES.contains(&crate_name.as_str()) {
                findings.extend(rules::check_ct_crypto(&rp, &file));
            }
            if hostile_arith::in_scope(&crate_name, &rp) {
                findings.extend(hostile_arith::check_hostile_arith(&rp, &file));
            }
            // L7 runs over every crate's src tree: the acquisition graph is
            // global by definition
            let (lock_findings, edges) = lock_order::scan_file(&rp, &file);
            findings.extend(lock_findings);
            lock_edges.extend(edges);
        }

        let key = if in_src { crate_name } else { String::new() };
        files.insert(rp, (key, file));
    }

    findings.extend(lock_order::order_findings(&lock_edges));
    findings.extend(wire_symmetry::check_wire_symmetry(&files));

    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    findings.dedup();
    Ok(Report { findings })
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Recursively collects Cargo.toml and .rs files in sorted order.
fn collect_files(
    root: &Path,
    dir: &Path,
    manifests: &mut Vec<PathBuf>,
    sources: &mut Vec<PathBuf>,
) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_files(root, &path, manifests, sources)?;
        } else if name == "Cargo.toml" {
            manifests.push(path);
        } else if name.ends_with(".rs") {
            sources.push(path);
        }
    }
    Ok(())
}

/// Name of the package owning `path`: reads the nearest ancestor
/// `Cargo.toml` that has a `[package]` section.
fn owning_crate(root: &Path, path: &Path) -> Option<String> {
    let mut dir = path.parent()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if let Some(name) = package_name(&text) {
                    return Some(name);
                }
            }
            // a virtual manifest (workspace root): stop — files directly
            // under it (e.g. examples/) belong to no package here
            return None;
        }
        if dir == root {
            return None;
        }
        dir = dir.parent()?;
    }
}

/// Extracts `name = "..."` from a manifest's `[package]` section.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_package = t == "[package]";
            continue;
        }
        if in_package {
            if let Some((k, v)) = t.split_once('=') {
                if k.trim() == "name" {
                    return Some(v.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// True when `path` sits under the owning crate's `src/` directory.
fn under_src(root: &Path, path: &Path) -> bool {
    let mut dir = path.parent();
    let mut saw_src = false;
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() {
            return saw_src;
        }
        if d.file_name().is_some_and(|n| n == "src") {
            saw_src = true;
        }
        if d == root {
            break;
        }
        dir = d.parent();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_name_extraction() {
        let m = "[workspace]\nmembers=[]\n[package]\nname = \"itdos-bft\"\nversion = \"0.1\"\n";
        assert_eq!(package_name(m).as_deref(), Some("itdos-bft"));
        assert_eq!(package_name("[workspace]\nmembers=[]\n"), None);
    }

    #[test]
    fn report_counts() {
        let f = |rule, waived: bool| Finding {
            rule,
            path: "p".into(),
            line: 1,
            snippet: "s".into(),
            message: "m".into(),
            waiver: waived.then(|| "ok".into()),
        };
        let report = Report {
            findings: vec![
                f(Rule::Determinism, false),
                f(Rule::Determinism, true),
                f(Rule::PanicFreedom, true),
            ],
        };
        assert_eq!(report.active_count(), 1);
        assert_eq!(report.waived_count(), 2);
        let per = report.per_rule();
        assert_eq!(per[1], (Rule::Determinism, 1, 1));
        assert_eq!(per[2], (Rule::PanicFreedom, 0, 1));
    }

    /// End-to-end over a synthetic workspace: each rule class fires on a
    /// seeded violation and honors a justified waiver.
    #[test]
    fn synthetic_workspace_end_to_end() {
        let dir = std::env::temp_dir().join(format!("itdos-lint-fixture-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let crate_dir = dir.join("crates/itdos-bft/src");
        let crypto_dir = dir.join("crates/itdos-crypto/src");
        std::fs::create_dir_all(&crate_dir).unwrap();
        std::fs::create_dir_all(&crypto_dir).unwrap();
        std::fs::write(
            dir.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/*\"]\n[workspace.dependencies]\nrand = \"0.8\"\nitdos-bft = { path = \"crates/itdos-bft\" }\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("crates/itdos-bft/Cargo.toml"),
            "[package]\nname = \"itdos-bft\"\n[dependencies]\nrand = { workspace = true }\n",
        )
        .unwrap();
        std::fs::write(
            crate_dir.join("lib.rs"),
            "pub fn handle(x: Option<u32>) -> u32 {\n    let t = std::time::SystemTime::now();\n    let _ = t;\n    x.unwrap()\n}\npub fn waived(x: Option<u32>) -> u32 {\n    x.unwrap() // itdos-lint: allow(panic-freedom) -- caller guarantees Some\n}\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("crates/itdos-crypto/Cargo.toml"),
            "[package]\nname = \"itdos-crypto\"\n[dependencies]\n",
        )
        .unwrap();
        std::fs::write(
            crypto_dir.join("lib.rs"),
            "pub fn verify(tag: &[u8], expected: &[u8]) -> bool {\n    tag == expected\n}\n",
        )
        .unwrap();

        let report = run_workspace(&dir).unwrap();
        let active: Vec<&Finding> = report.active().collect();
        // L1: rand in workspace.dependencies + rand inherited in itdos-bft
        assert_eq!(
            active
                .iter()
                .filter(|f| f.rule == Rule::Hermeticity)
                .count(),
            2
        );
        // L2: SystemTime::now
        assert_eq!(
            active
                .iter()
                .filter(|f| f.rule == Rule::Determinism)
                .count(),
            1
        );
        // L3: one active unwrap; the waived one is recorded but inactive
        assert_eq!(
            active
                .iter()
                .filter(|f| f.rule == Rule::PanicFreedom)
                .count(),
            1
        );
        assert_eq!(
            report
                .findings
                .iter()
                .filter(|f| f.rule == Rule::PanicFreedom)
                .count(),
            2
        );
        // L4: tag == expected
        assert_eq!(
            active.iter().filter(|f| f.rule == Rule::CtCrypto).count(),
            1
        );
        // findings are path-sorted for stable output
        let paths: Vec<&str> = report.findings.iter().map(|f| f.path.as_str()).collect();
        let mut sorted = paths.clone();
        sorted.sort();
        assert_eq!(paths, sorted);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
