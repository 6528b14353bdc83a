#!/usr/bin/env bash
#
# MPS-backend smoke test: a 30-qubit non-Clifford Trotter chain — far
# past dense reach (2^30 amplitudes), not tableau-simulable — through a
# live qassertd.
#
# Three checks:
#   1. the explain op auto-routes the circuit to the MPS backend and
#      reports the entanglement facts (chi, ent_width, trunc_bound) on
#      the wire;
#   2. a real 256-shot job executes ok on the auto-routed MPS backend,
#      returns 30-bit count keys, and reports zero truncation error at
#      the default chi (the chain's Schmidt rank fits);
#   3. a deliberately starved override (backend=mps with chi=2 against
#      a tight truncation tolerance) is rejected up front with the
#      typed capability error, not a wrong-answer run.
#
# Usage: scripts/mps_smoke.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
QASSERTD="$BUILD/tools/qassertd"
if [[ ! -x "$QASSERTD" ]]; then
    echo "mps_smoke: binary not found at $QASSERTD" >&2
    exit 2
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

# 30-qubit Trotterized transverse-field chain: an rx layer, then two
# rounds of cx/rz/cx nearest-neighbour couplers plus another rx layer,
# then terminal measurement. Non-Clifford, low-entanglement — the MPS
# regime.
n=30
qasm='OPENQASM 2.0;\nqreg q['"$n"'];\ncreg c['"$n"'];\n'
for ((q = 0; q < n; q++)); do
    qasm+='rx(0.3) q['"$q"'];\n'
done
for layer in 1 2; do
    for ((q = 0; q + 1 < n; q++)); do
        qasm+='cx q['"$q"'],q['"$((q + 1))"'];\n'
        qasm+='rz(0.17) q['"$((q + 1))"'];\n'
        qasm+='cx q['"$q"'],q['"$((q + 1))"'];\n'
    done
    for ((q = 0; q < n; q++)); do
        qasm+='rx(0.21) q['"$q"'];\n'
    done
done
for ((q = 0; q < n; q++)); do
    qasm+='measure q['"$q"'] -> c['"$q"'];\n'
done

printf '%s\n' \
    "{\"op\":\"explain\",\"id\":\"why\",\"qasm\":\"$qasm\",\"shots\":256}" \
    "{\"id\":\"run\",\"qasm\":\"$qasm\",\"shots\":256,\"seed\":11}" \
    "{\"id\":\"starved\",\"qasm\":\"$qasm\",\"shots\":256,\"seed\":12,\"backend\":\"mps\",\"mps_chi\":2,\"mps_tol\":1e-12}" \
    '{"op":"shutdown"}' \
    | "$QASSERTD" --workers 2 \
    > "$workdir/daemon.out" 2> "$workdir/daemon.err" \
    || { echo "mps_smoke: qassertd run failed" >&2;
         cat "$workdir/daemon.err" >&2; exit 1; }

# --- 1. explain: auto-route lands on MPS with the facts attached ----
explain_line=$(grep '"id":"why"' "$workdir/daemon.out")
grep -q '"backend":"mps"' <<< "$explain_line" \
    || { echo "mps_smoke: 30q Trotter chain did not route to MPS" >&2;
         echo "$explain_line" >&2; exit 1; }
grep -q '"mps":{"chi":' <<< "$explain_line" \
    || { echo "mps_smoke: explain lacks the mps facts block" >&2;
         echo "$explain_line" >&2; exit 1; }
grep -q '"ent_width":' <<< "$explain_line" \
    || { echo "mps_smoke: explain lacks the entanglement width" >&2;
         echo "$explain_line" >&2; exit 1; }

# --- 2. the job actually executes on MPS at 30 qubits ----------------
run_line=$(grep '"id":"run"' "$workdir/daemon.out")
grep -q '"status":"ok"' <<< "$run_line" \
    || { echo "mps_smoke: 30q run did not complete ok" >&2;
         echo "$run_line" >&2; exit 1; }
grep -q '"backend":"mps"' <<< "$run_line" \
    || { echo "mps_smoke: 30q run did not execute on MPS" >&2;
         echo "$run_line" >&2; exit 1; }
grep -Eq "\"[01]{$n}\":" <<< "$run_line" \
    || { echo "mps_smoke: counts lack $n-bit keys" >&2;
         echo "$run_line" >&2; exit 1; }
grep -q '"truncation_error":0' <<< "$run_line" \
    || { echo "mps_smoke: unexpected truncation at the default chi" >&2;
         echo "$run_line" >&2; exit 1; }

# --- 3. starved explicit override is a typed refusal, not a run ------
starved_line=$(grep '"id":"starved"' "$workdir/daemon.out")
grep -q '"status":"error"' <<< "$starved_line" \
    || { echo "mps_smoke: starved chi=2 override was not refused" >&2;
         echo "$starved_line" >&2; exit 1; }
grep -q '"code":"bad_request"' <<< "$starved_line" \
    || { echo "mps_smoke: refusal is not the typed capability error" >&2;
         echo "$starved_line" >&2; exit 1; }
grep -qi 'trunc' <<< "$starved_line" \
    || { echo "mps_smoke: refusal does not name the truncation bound" >&2;
         echo "$starved_line" >&2; exit 1; }

echo "mps_smoke OK: 30-qubit Trotter chain auto-routed to MPS," \
     "executed 256 shots ok with zero truncation, and the starved" \
     "chi=2 override was refused with the typed capability error"
