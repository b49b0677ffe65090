#!/usr/bin/env bash
# itdos-benchmark smoke and allocation gate; `ci.sh` and the GitHub workflow
# both run this script, so the workload list and the pins live here only.
#
# The yardstick BENCHMARK.json declares, run with its `command`: the last
# stdout line is the result object, and it must report a correct run with no
# failed op. Every workload runs — the common case, the bulk path, the two
# never-quiesced ones (history drift, pipelined acks), the Group Manager's
# keying path (connect_storm, where the group arithmetic — DPRF shares, DLEQ
# proofs, combination — is exercised) and the healed campaign — so a change
# to one cannot break another unnoticed. Host timings are not judged here.
#
# Allocations are: `allocs_per_op` is a pure function of (workload, seed), so
# every workload on seed 7 must not exceed its last measured value, with no
# margin — the next allocation regression fails here, on whichever path it
# lands. What each workload's pin guards:
#   every workload      one buffer per sealed payload (seal and open), an
#                       uncopied decided vote, no per-reply count map, no
#                       per-frame comparator copy; the simulator's event
#                       loop (an event's payload rides in its queue entry,
#                       one reused action buffer, a multicast fans out
#                       without copying its group); the ordering layer (each
#                       replica host drains into a reused output buffer,
#                       log entries are recycled with their vote sets, a
#                       committed batch executes from the log without a
#                       copy, and one result buffer serves the reply cache,
#                       the reply and the host); a sealed frame submitted
#                       for ordering is written into its queue op's
#                       buffer, not encoded on its own first
#   small_closed        the per-message path: one buffer per BFT frame, MAC
#                       tags written into it and read in place
#   bulk_closed         the payload path: a replica's store of held requests
#                       allocates nothing per op
#   pipelined_batch     the primary's batching
#   connect_storm       the Group Manager's keying
#   sustained_history   the never-quiesced queue and its timers
#   intrusion_campaign  expulsion, admission and state transfer (it builds
#                       replacement replicas inside its ops, so a per-`Replica`
#                       allocation shows there); as the one untraced workload
#                       with observability on, also registry updates,
#                       flight-ring records, tap copies and the live audit;
#                       live-audit surfacing (a finding's prose is formatted
#                       only when its key first surfaces, health is scored
#                       once per pump into the map it last filled, the tap
#                       drains into a kept buffer, the healer copies no
#                       membership)
# A change that lowers a count lowers its pin in the same diff.
set -euo pipefail
cd "$(dirname "$0")"

declare -A allocs_max=(
  [small_closed]=225.78766666666667
  [bulk_closed]=237.10416666666666
  [pipelined_batch]=187.87451171875
  [connect_storm]=474.875
  [sustained_history]=224.86433333333332
  [intrusion_campaign]=3164.5625
)

out="$(mktemp)"
trap 'rm -f "$out"' EXIT
for workload in small_closed bulk_closed sustained_history pipelined_batch connect_storm intrusion_campaign; do
  cargo run --release --offline --quiet -p itdos-benchmark -- \
    --workload "$workload" --seed 7 --seconds 2 --trace 0 > "$out"
  result="$(tail -n 1 "$out")"
  grep -q '"correct": true' <<<"$result" && grep -q '"failed": 0,' <<<"$result" \
    || { echo "itdos-benchmark smoke ($workload): result line is not correct/failed-free"; echo "$result"; exit 1; }
  max="${allocs_max[$workload]}"
  allocs="$(sed -n 's/.*"allocs_per_op": {"value": \([0-9.e+-]*\).*/\1/p' <<<"$result")"
  awk -v got="$allocs" -v max="$max" 'BEGIN { exit !(got != "" && got + 0 <= max + 0) }' \
    || { echo "allocation gate: $workload seed 7 allocs_per_op ${allocs:-missing} > $max"; exit 1; }
done
