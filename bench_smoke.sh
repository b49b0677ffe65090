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
# lands: small_closed pins the per-message path (one buffer per BFT frame,
# MAC tags written into it and read in place), bulk_closed the payload path
# (a replica's store of held requests allocates nothing per op),
# pipelined_batch the primary's batching, connect_storm the Group Manager's
# keying, sustained_history the never-quiesced queue and its timers, and
# intrusion_campaign expulsion, admission and state transfer (it builds
# replacement replicas inside its ops, so a per-`Replica` allocation shows
# there). intrusion_campaign is also the one untraced workload with
# observability on, so its pin guards the observability path too: registry
# updates, flight-ring records, tap copies and the live streaming audit
# all allocate nothing per event, and an allocation put back on any of
# them fails here. The pins now also guard one buffer per sealed payload
# and an uncopied decided vote: a seal or open through a second buffer, or
# a voter that copies a decision no late sender can still be checked
# against, fails here. The pins now also guard the reply-count and vote
# paths, so a per-reply count map or a per-frame comparator copy fails
# here. A change that lowers a count lowers its pin in the same diff.
set -euo pipefail
cd "$(dirname "$0")"

declare -A allocs_max=(
  [small_closed]=341.46566666666666
  [bulk_closed]=351.8625
  [pipelined_batch]=240.80419921875
  [connect_storm]=665.763671875
  [sustained_history]=342.262
  [intrusion_campaign]=5118.0625
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
