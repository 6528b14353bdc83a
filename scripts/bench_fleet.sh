#!/usr/bin/env bash
#
# Fleet throughput/latency bench: qa_loadgen against qa_router with 1,
# 2, and 4 shards (closed loop, Zipf-popular Clifford circuits), plus a
# kill-one-shard-under-load chaos run (open loop, shard 1 SIGKILLed
# mid-run). Each run's p50/p90/p99/p999 latencies and jobs/sec land as
# one JSON object in the "runs" array of the record, which goes to
# out.json when given and to stdout otherwise (BENCH_PR7.json holds a
# past record in this format).
#
# Interpreting the numbers: on a single-CPU container all shards share
# one core, so the multi-shard configs measure the overhead of routing,
# health probing, and journaling — not parallel speedup. The host note
# in the output records nproc for exactly this reason.
#
# Usage: scripts/bench_fleet.sh [build-dir] [out.json]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
OUT="${2:-/dev/stdout}"
ROUTER="$BUILD/tools/qa_router"
LOADGEN="$BUILD/tools/qa_loadgen"
QASSERTD="$BUILD/tools/qassertd"
for bin in "$ROUTER" "$LOADGEN" "$QASSERTD"; do
    if [[ ! -x "$bin" ]]; then
        echo "bench_fleet: binary not found at $bin" >&2
        exit 2
    fi
done

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
runs="$workdir/runs.ndjson"

JOBS=400
CIRCUITS=48

for shards in 1 2 4; do
    echo "bench_fleet: closed loop, $shards shard(s), $JOBS jobs" >&2
    "$LOADGEN" \
        --target-cmd "$ROUTER --shards $shards --journal-dir $workdir/j$shards --shard-cmd $QASSERTD" \
        --mode closed --jobs "$JOBS" --concurrency 16 \
        --circuits "$CIRCUITS" --zipf 1.1 --seed 42 \
        --label "closed_${shards}shard" --out "$runs" > /dev/null \
        2> "$workdir/run$shards.err" \
        || { echo "bench_fleet: ${shards}-shard run failed" >&2;
             cat "$workdir/run$shards.err" >&2; exit 1; }
done

echo "bench_fleet: chaos, 4 shards, SIGKILL shard 1 under open load" >&2
"$LOADGEN" \
    --target-cmd "$ROUTER --shards 4 --journal-dir $workdir/jchaos --probe-ms 50 --shard-cmd $QASSERTD" \
    --mode open --rate 400 --burst 8 --jobs "$JOBS" \
    --circuits "$CIRCUITS" --zipf 1.1 --seed 43 \
    --kill-shard 1 --kill-after 60 \
    --label "open_4shard_kill1" --out "$runs" > /dev/null \
    2> "$workdir/chaos.err" \
    || { echo "bench_fleet: chaos run lost or duplicated jobs" >&2;
         cat "$workdir/chaos.err" >&2; exit 1; }

{
    printf '{\n'
    printf '  "bench": "qa_router fleet serving (PR 7)",\n'
    printf '  "date": "%s",\n' "$(date -u +%FT%TZ)"
    printf '  "host": {"nproc": %s, "note": "all shards share these cores; on a single-CPU host the multi-shard configs measure routing/journaling overhead, not parallel speedup"},\n' \
        "$(nproc)"
    printf '  "workload": {"jobs": %s, "circuits": %s, "zipf": 1.1, "body": "Clifford GHZ catalog, stabilizer fast path"},\n' \
        "$JOBS" "$CIRCUITS"
    printf '  "runs": [\n'
    sed 's/^/    /; $!s/$/,/' "$runs"
    printf '  ]\n}\n'
} > "$OUT"

echo "bench_fleet OK: $(wc -l < "$runs") runs -> $OUT" >&2
