#!/usr/bin/env bash
# CI gate for the ITDOS workspace. Everything runs offline — the
# workspace is hermetic (path dependencies only), and itdos-lint
# rejects any manifest entry that would change that.
set -euo pipefail
cd "$(dirname "$0")"

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

echo '== cargo run -p itdos-lint (waiver ledger + budget gate)'
# fails on any active finding, and also if the waiver count grows past
# the checked-in budget — new waivers must be paid for in the same PR
cargo run -q --release --offline -p itdos-lint -- --waivers --budget lint-waivers.budget

echo '== forensic audit smoke (drill dump -> audit example)'
# the drill writes its corrupt-replica dump; the audit example must parse
# it, produce a byte-identical report twice, and blame at least one element
drill_dump="$(mktemp)"
rep_a="$(mktemp)"
rep_b="$(mktemp)"
heal_a="$(mktemp)"
heal_b="$(mktemp)"
trap 'rm -f "$drill_dump" "$rep_a" "$rep_b" "$heal_a" "$heal_b"' EXIT
cargo run -q --release --offline -p itdos --example intrusion_drill -- "$drill_dump" "$rep_a" > /dev/null
cargo run -q --release --offline -p itdos --example audit -- --expect-blame "$drill_dump" > /dev/null

echo '== streaming/batch audit equivalence (incremental replay of the drill dump)'
# the same dump replayed one event at a time through the incremental
# pipeline must render byte-identically to the batch report
cargo run -q --release --offline -p itdos --example audit -- --stream --assert-equivalence "$drill_dump" > /dev/null

echo '== replacement drill determinism (run twice, byte-identical dumps)'
# the expel->replace->re-intrude drill must replay exactly: same seed,
# same admission, same second expulsion, byte-identical forensic dump —
# and that dump must itself audit to a blame set (both intruders)
cargo run -q --release --offline -p itdos --example intrusion_drill -- "$drill_dump" "$rep_b" > /dev/null
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

echo '== itdos-benchmark smoke (six workloads, 2 s each: every reply checked, run-twice self-check, allocation gate)'
# the yardstick BENCHMARK.json declares, run as the driver runs it; the
# last stdout line is the result object, and it must report a correct run
# with no failed op. Every workload runs — the common case, the bulk path,
# the two never-quiesced ones (history drift, pipelined acks), the Group
# Manager's keying path (connect_storm, where the group arithmetic — DPRF
# shares, DLEQ proofs, combination — is exercised) and the healed campaign —
# so a change to one cannot break another unnoticed. Host timings are not
# judged here; allocations are: `allocs_per_op` is a pure function of
# (workload, seed), so small_closed on seed 7 must not exceed its last
# measured value (one buffer per BFT frame, MAC tags written into it and
# read in place), with no margin — the next allocation regression fails here.
allocs_max=398.995
bench_smoke="$(mktemp)"
for workload in small_closed bulk_closed sustained_history pipelined_batch connect_storm intrusion_campaign; do
  cargo run --release --offline --quiet -p itdos-benchmark -- \
    --workload "$workload" --seed 7 --seconds 2 --trace 0 > "$bench_smoke"
  tail -n 1 "$bench_smoke" | grep -q '"correct": true' \
    && tail -n 1 "$bench_smoke" | grep -q '"failed": 0,' \
    || { echo "itdos-benchmark smoke ($workload): result line is not correct/failed-free"; tail -n 1 "$bench_smoke"; exit 1; }
  if [ "$workload" = small_closed ]; then
    allocs="$(tail -n 1 "$bench_smoke" | sed -n 's/.*"allocs_per_op": {"value": \([0-9.e+-]*\).*/\1/p')"
    awk -v got="$allocs" -v max="$allocs_max" 'BEGIN { exit !(got != "" && got + 0 <= max + 0) }' \
      || { echo "allocation gate: small_closed seed 7 allocs_per_op ${allocs:-missing} > $allocs_max"; exit 1; }
  fi
done
rm -f "$bench_smoke"

echo 'CI green'
