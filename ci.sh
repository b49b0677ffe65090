#!/usr/bin/env bash
# CI gate for the ITDOS workspace. Everything runs offline — the
# workspace is hermetic (path dependencies only), and a tier-1 test
# (`the_workspace_is_hermetic`) fails on any package fetched from elsewhere.
set -euo pipefail
cd "$(dirname "$0")"

# every cargo step below shares these flags, so nothing builds twice; with
# warnings denied, rustc's own `dead_code` lint fails the build on a
# crate-private helper nothing reaches any more
export RUSTFLAGS="-D warnings"

echo '== cargo fmt --check'
cargo fmt --check

echo '== cargo build --release --offline'
cargo build --release --offline

echo '== cargo test -q --offline'
cargo test -q --offline

echo '== liveness full-size repro (release: 8 clients x 4096 pipelined requests, seeds 1-4)'
# the debug suite runs the 40-wave twin; the full 512 waves only fit in a
# release build. The filter keeps the recorded-but-open cliff 4 test
# (ROADMAP item 1) ignored
cargo test -q --release --offline -p itdos-tests --test liveness -- --ignored healthy

echo '== group kernel sweep (release: 2^20 random pairs against textbook square-and-multiply)'
# Montgomery pow, the generator table, inverse and the Jacobi subgroup test
# must equal the kept reference kernel; the debug suite runs a small sweep
cargo test -q --release --offline -p itdos-crypto --lib -- --ignored kernel_sweep

echo '== cargo clippy (invariants L2-L5 and the waiver rules: clippy.toml, DESIGN.md §8)'
# itdos-benchmark is the host-time yardstick and reads the wall clock by
# design, so the determinism rule (L2) never covered it; it stays out
cargo clippy -q --offline --workspace --all-targets --exclude itdos-benchmark

echo '== lint waivers (every #[expect] / #[allow] counts against lint-waivers.budget)'
# a new waiver must be paid for in the same PR: fix an old one, or raise
# the budget where review sees it
waivers="$(grep -rE '#!?\[(allow|expect)\(|cfg_attr\(.*\b(allow|expect)\(' \
    --include='*.rs' crates tests examples | grep -vc '^crates/benchmark/' || true)"
budget="$(grep -Ev '^[[:space:]]*(#|$)' lint-waivers.budget)"
echo "waivers: $waivers, budget: $budget"
[ "$waivers" -le "$budget" ] || { echo "waiver count grew past lint-waivers.budget"; exit 1; }

echo '== cargo doc (every intra-doc link resolves, and to a public item)'
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps --workspace --keep-going

echo '== forensic audit smoke (drill dump -> audit example)'
# the drill writes its corrupt-replica dump; the audit example must parse
# it, produce a byte-identical report twice, and blame at least one element
drill_dump="$(mktemp)"
drill_b="$(mktemp)"
rep_a="$(mktemp)"
rep_b="$(mktemp)"
heal_a="$(mktemp)"
heal_b="$(mktemp)"
trap 'rm -f "$drill_dump" "$drill_b" "$rep_a" "$rep_b" "$heal_a" "$heal_b"' EXIT
cargo run -q --release --offline -p itdos --example intrusion_drill -- "$drill_dump" "$rep_a" > /dev/null
cargo run -q --release --offline -p itdos --example audit -- --expect-blame "$drill_dump" > /dev/null

echo '== streaming/batch audit equivalence (incremental replay of the drill dump)'
# the same dump replayed one event at a time through the incremental
# pipeline must render byte-identically to the batch report
cargo run -q --release --offline -p itdos --example audit -- --stream --assert-equivalence "$drill_dump" > /dev/null

echo '== drill determinism (run twice, both dumps byte-identical)'
# the corrupt-replica dump and the expel->replace->re-intrude dump must
# both replay exactly: same seed, same admission, same second expulsion,
# byte-identical forensic dumps — and the replacement dump must itself
# audit to a blame set (both intruders)
cargo run -q --release --offline -p itdos --example intrusion_drill -- "$drill_b" "$rep_b" > /dev/null
cmp "$drill_dump" "$drill_b" || { echo 'corrupt-replica drill dump diverged between runs'; exit 1; }
cmp "$rep_a" "$rep_b" || { echo 'replacement drill dump diverged between runs'; exit 1; }
cargo run -q --release --offline -p itdos --example audit -- --expect-blame "$rep_a" > /dev/null

echo '== self-healing campaign smoke (continuous_intrusion --smoke, run-twice byte-identical)'
# the healed run must survive every wave while the baseline exhausts f,
# and every controller decision (expulsion, replacement, rejuvenation)
# must replay deterministically: two runs, byte-identical forensic dumps
cargo run -q --release --offline -p itdos --example continuous_intrusion -- --smoke "$heal_a" > /dev/null
cargo run -q --release --offline -p itdos --example continuous_intrusion -- --smoke "$heal_b" > /dev/null
cmp "$heal_a" "$heal_b" || { echo 'continuous intrusion dump diverged between runs'; exit 1; }

echo '== experiment report (E1-E12 tables of EXPERIMENTS.md)'
# every sweep runs to completion and its in-line result checks hold
cargo run -q --release --offline -p itdos --example experiments > /dev/null

echo '== itdos-benchmark smoke (six workloads, 2 s each: every reply checked, allocation pins)'
./bench_smoke.sh

echo 'CI green'
