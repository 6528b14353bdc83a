#!/usr/bin/env bash
#
# Kill-and-replay smoke test for qassertd's crash-safe journal.
#
# Two runs of the same three-job workload:
#   1. a clean journaled run (shutdown request, graceful drain), whose
#      journal is replayed twice — the two replay outputs must be
#      byte-identical;
#   2. a run that is SIGKILLed after the responses appear, whose journal
#      then gets a deliberately torn final record appended (simulating a
#      crash mid-append) before replay.
#
# The replay of the killed+torn journal must be byte-identical to the
# replay of the clean journal: same requests, same seqs, same payloads —
# proof that neither the kill nor the torn tail loses or perturbs any
# acknowledged job. Replay itself re-verifies every completion record's
# payload hash and exits non-zero on any mismatch.
#
# Then the graceful drain: with its input still open, each of qassertd
# (stdin), qassertd --listen (one TCP connection) and qa_router with two
# local shards is sent the three jobs and a ping, then SIGTERM once the
# pong shows the jobs were read. Each must exit 0 within 5 s, log
# "caught SIGTERM; draining", and have answered every job.
#
# Usage: scripts/chaos_smoke.sh [path/to/qassertd]
# (qa_router is taken from the same directory as qassertd.)
set -euo pipefail
cd "$(dirname "$0")/.."

QASSERTD="${1:-build/tools/qassertd}"
if [[ ! -x "$QASSERTD" ]]; then
    echo "chaos_smoke: qassertd not found at $QASSERTD" >&2
    exit 2
fi

QA_ROUTER="$(dirname "$QASSERTD")/qa_router"
if [[ ! -x "$QA_ROUTER" ]]; then
    echo "chaos_smoke: qa_router not found at $QA_ROUTER" >&2
    exit 2
fi

workdir="$(mktemp -d)"
daemon_pid=""
# The daemon may already be gone at exit; never let the cleanup itself
# fail (set -e applies inside traps too).
trap 'kill -9 $daemon_pid 2>/dev/null || true; rm -rf "$workdir"' EXIT

qasm='OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n'
requests=(
  "{\"id\":\"job-a\",\"qasm\":\"$qasm\",\"shots\":256,\"seed\":11,\"assert_clbits\":[[0]]}"
  "{\"id\":\"job-b\",\"qasm\":\"$qasm\",\"shots\":256,\"seed\":12}"
  "{\"id\":\"job-c\",\"qasm\":\"$qasm\",\"shots\":512,\"seed\":13,\"assert_clbits\":[[1]]}"
)

# --- 1. clean journaled run, replayed twice -------------------------
printf '%s\n' "${requests[@]}" '{"op":"shutdown"}' \
    | "$QASSERTD" --workers 2 --journal "$workdir/clean.ndjson" \
    > "$workdir/clean.out" 2> "$workdir/clean.err"

"$QASSERTD" --replay "$workdir/clean.ndjson" \
    > "$workdir/replay1.out" 2> /dev/null
"$QASSERTD" --replay "$workdir/clean.ndjson" \
    > "$workdir/replay2.out" 2> /dev/null
diff "$workdir/replay1.out" "$workdir/replay2.out" \
    || { echo "chaos_smoke: replay is not deterministic" >&2; exit 1; }

# --- 2. SIGKILL mid-session, then tear the journal tail -------------
# This shell holds the write end of the daemon's stdin FIFO open (no
# EOF), so qassertd is idle but alive when the SIGKILL lands — the
# un-drained path.
mkfifo "$workdir/killed.fifo"
"$QASSERTD" --workers 2 --journal "$workdir/killed.ndjson" \
    < "$workdir/killed.fifo" \
    > "$workdir/killed.out" 2> "$workdir/killed.err" &
daemon_pid=$!
exec 3> "$workdir/killed.fifo"
printf '%s\n' "${requests[@]}" >&3

for _ in $(seq 1 100); do
    [[ $(wc -l < "$workdir/killed.out") -ge ${#requests[@]} ]] && break
    sleep 0.1
done
if [[ $(wc -l < "$workdir/killed.out") -lt ${#requests[@]} ]]; then
    echo "chaos_smoke: daemon never answered all requests" >&2
    exit 1
fi
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
exec 3>&-

# Crash mid-append: a torn final record the scanner must drop.
printf '{"e":"accept","seq":99,"req":{"tr' >> "$workdir/killed.ndjson"

"$QASSERTD" --replay "$workdir/killed.ndjson" \
    > "$workdir/killed_replay.out" 2> "$workdir/killed_replay.err"
grep -q "torn final record" "$workdir/killed_replay.err" \
    || { echo "chaos_smoke: torn tail was not reported" >&2; exit 1; }

# The killed journal replays to the exact bytes of the clean replay.
diff "$workdir/replay1.out" "$workdir/killed_replay.out" \
    || { echo "chaos_smoke: killed-run replay diverged" >&2; exit 1; }

# --- 3. SIGTERM drain with the input still open ---------------------
ping='{"op":"ping","id":"after-jobs"}'

# Poll (5 s max) until file $1 contains the fixed string $2.
wait_for() {
    for _ in $(seq 1 50); do
        grep -qF "$2" "$1" && return 0
        sleep 0.1
    done
    echo "chaos_smoke: never saw $2 in $1" >&2
    return 1
}

# SIGTERM daemon_pid (named $1, stderr in $2): it must exit 0 within
# 5 s after logging its drain.
term_and_check() {
    kill -TERM "$daemon_pid"
    for _ in $(seq 1 50); do
        kill -0 "$daemon_pid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$daemon_pid" 2>/dev/null; then
        echo "chaos_smoke: $1 still running 5 s after SIGTERM" >&2
        exit 1
    fi
    local status=0
    wait "$daemon_pid" || status=$?
    daemon_pid=""
    if [[ "$status" -ne 0 ]]; then
        echo "chaos_smoke: $1 exited $status after SIGTERM" >&2
        cat "$2" >&2
        exit 1
    fi
    grep -q "caught SIGTERM; draining" "$2" \
        || { echo "chaos_smoke: $1 did not log its drain" >&2;
             cat "$2" >&2; exit 1; }
}

# Every job in file $2 (from $1) answered ok.
check_answers() {
    for id in job-a job-b job-c; do
        grep -qF "{\"id\":\"$id\",\"status\":\"ok\"" "$2" \
            || { echo "chaos_smoke: $1 never answered $id" >&2; exit 1; }
    done
}

# Stdin daemons read from a FIFO whose write end this shell holds open.
drain_stdin() {
    local name="$1"
    shift
    local tag="${name// /_}"
    mkfifo "$workdir/$tag.fifo"
    "$@" < "$workdir/$tag.fifo" > "$workdir/$tag.out" \
        2> "$workdir/$tag.err" &
    daemon_pid=$!
    exec 3> "$workdir/$tag.fifo"
    printf '%s\n' "${requests[@]}" "$ping" >&3
    wait_for "$workdir/$tag.out" '"id":"after-jobs"'
    term_and_check "$name" "$workdir/$tag.err"
    exec 3>&-
    check_answers "$name" "$workdir/$tag.out"
}

drain_stdin "qassertd" "$QASSERTD" --workers 2
drain_stdin "qa_router" "$QA_ROUTER" --shards 2 --shard-cmd "$QASSERTD"

# --listen: one connection stays open across the signal. Its answers
# are collected before SIGTERM, because the drain closes connections.
"$QASSERTD" --workers 2 --listen 127.0.0.1:0 \
    --port-file "$workdir/listen.port" 2> "$workdir/listen.err" &
daemon_pid=$!
wait_for "$workdir/listen.err" "listening on"
exec 4<> "/dev/tcp/127.0.0.1/$(cat "$workdir/listen.port")"
printf '%s\n' "${requests[@]}" "$ping" >&4
: > "$workdir/listen.out"
for _ in $(seq 1 $(( ${#requests[@]} + 1 ))); do
    IFS= read -r -t 5 -u 4 reply \
        || { echo "chaos_smoke: qassertd --listen stopped answering" >&2;
             exit 1; }
    printf '%s\n' "$reply" >> "$workdir/listen.out"
done
term_and_check "qassertd --listen" "$workdir/listen.err"
exec 4<&-
check_answers "qassertd --listen" "$workdir/listen.out"

echo "chaos_smoke OK: replay bit-identical across clean run, SIGKILL, and torn tail; SIGTERM drains qassertd, qassertd --listen and qa_router"
