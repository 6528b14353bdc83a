#!/usr/bin/env bash
#
# Fleet chaos smoke test: qa_router fronting three journaled qassertd
# shards, driven by qa_loadgen, with one shard SIGKILLed mid-run.
#
# Two runs:
#   1. steady state — closed-loop load against a 3-shard fleet; every
#      job must be answered exactly once and the router must drain
#      cleanly on shutdown;
#   2. chaos — open-loop load (arrivals do not slow down for a
#      struggling server, so jobs are genuinely in flight when the fault
#      lands), with shard 1 SIGKILLed after the 40th response. Zero lost
#      jobs and zero duplicate responses are required: the router must
#      fail the dead shard's in-flight work over to its ring successors
#      and never double-answer a failed-over or retried job.
#
# Afterwards every shard journal written during the chaos run —
# including the killed shard's possibly-torn generation-1 journal and
# the respawned generation-2 journal — must replay cleanly, proving the
# kill lost no acknowledged work on the durability side either.
#
# qa_loadgen itself exits non-zero on lost or duplicate responses, so
# the exactly-once assertion is enforced by the tool, not by log
# scraping; the greps below only make the failure mode legible.
#
# Usage: scripts/fleet_smoke.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
ROUTER="$BUILD/tools/qa_router"
LOADGEN="$BUILD/tools/qa_loadgen"
QASSERTD="$BUILD/tools/qassertd"
for bin in "$ROUTER" "$LOADGEN" "$QASSERTD"; do
    if [[ ! -x "$bin" ]]; then
        echo "fleet_smoke: binary not found at $bin" >&2
        exit 2
    fi
done

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

# --- 1. steady state: 3 shards, closed loop ------------------------
"$LOADGEN" \
    --target-cmd "$ROUTER --shards 3 --journal-dir $workdir/steady --shard-cmd $QASSERTD" \
    --mode closed --jobs 150 --concurrency 8 --circuits 24 --seed 7 \
    --label fleet_smoke_steady \
    > "$workdir/steady.json" 2> "$workdir/steady.err" \
    || { echo "fleet_smoke: steady-state run failed" >&2;
         cat "$workdir/steady.err" >&2; exit 1; }
# Exactly-once alone is not enough: a fleet whose shards all died at
# spawn would still "answer" every job with a typed error. Demand that
# every answer was an ok.
grep -q '"ok":150' "$workdir/steady.json" \
    || { echo "fleet_smoke: steady-state run had error responses" >&2;
         cat "$workdir/steady.json" "$workdir/steady.err" >&2; exit 1; }
grep -q "qa_router: done" "$workdir/steady.err" \
    || { echo "fleet_smoke: router did not drain cleanly (steady)" >&2
         cat "$workdir/steady.err" >&2; exit 1; }

# --- 2. chaos: open loop, SIGKILL shard 1 mid-run ------------------
"$LOADGEN" \
    --target-cmd "$ROUTER --shards 3 --journal-dir $workdir/chaos --probe-ms 50 --shard-cmd $QASSERTD" \
    --mode open --rate 400 --burst 8 --jobs 240 --circuits 24 --seed 8 \
    --kill-shard 1 --kill-after 40 \
    --label fleet_smoke_chaos \
    > "$workdir/chaos.json" 2> "$workdir/chaos.err" \
    || { echo "fleet_smoke: chaos run lost or duplicated jobs" >&2;
         cat "$workdir/chaos.err" >&2; exit 1; }
grep -q "SIGKILL shard 1" "$workdir/chaos.err" \
    || { echo "fleet_smoke: the kill never landed" >&2; exit 1; }
grep -q '"lost":0' "$workdir/chaos.json" \
    || { echo "fleet_smoke: lost jobs in chaos run" >&2;
         cat "$workdir/chaos.json" >&2; exit 1; }
grep -q '"ok":240' "$workdir/chaos.json" \
    || { echo "fleet_smoke: chaos run had error responses" >&2;
         cat "$workdir/chaos.json" "$workdir/chaos.err" >&2; exit 1; }
grep -q '"duplicates":0' "$workdir/chaos.json" \
    || { echo "fleet_smoke: duplicate responses in chaos run" >&2;
         cat "$workdir/chaos.json" >&2; exit 1; }
grep -q "qa_router: done" "$workdir/chaos.err" \
    || { echo "fleet_smoke: router did not drain cleanly (chaos)" >&2
         cat "$workdir/chaos.err" >&2; exit 1; }

# --- 3. every chaos-run shard journal replays clean ----------------
journals=("$workdir"/chaos/shard-*.ndjson)
if [[ ${#journals[@]} -lt 3 || ! -e "${journals[0]}" ]]; then
    echo "fleet_smoke: expected >=3 shard journals, found ${#journals[@]}" >&2
    exit 1
fi
for journal in "${journals[@]}"; do
    "$QASSERTD" --replay "$journal" > /dev/null 2> "$workdir/replay.err" \
        || { echo "fleet_smoke: replay of $journal failed" >&2;
             cat "$workdir/replay.err" >&2; exit 1; }
done

echo "fleet_smoke OK: 390 jobs answered exactly once across a shard" \
     "SIGKILL, clean drains, ${#journals[@]} journals replayed intact"
