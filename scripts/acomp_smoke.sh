#!/usr/bin/env bash
#
# Assertion-compiler smoke test: raw (assertion-free) GHZ circuits
# through `qassertd --auto-assert` and through a qa_router fleet.
#
# Five checks:
#   1. a clean GHZ-5 prep gets an auto-generated stabilizer assertion,
#      lowered to the ancilla-free Pauli parity form, and passes every
#      shot (pass_rate 1, slot_error_rate 0);
#   2. the same circuit with an X fault injected mid-prep is flagged
#      deterministically (pass_rate 0, slot_error_rate 1) — the
#      detection the paper's runtime assertions exist to provide,
#      with no hand-written assertion in the program;
#   3. the explain op under --auto-assert reports the lowering table on
#      the wire (form, zero ancillas, generator count, source anchor);
#   4. the same auto-assert jobs via request-level "auto_assert":true
#      through a 2-shard qa_router are answered exactly once each,
#      with the same verdicts — the compiler composes with the fleet
#      path unchanged;
#   5. a noisy GHZ-3 auto-assert job reports every shot it ran:
#      "shots" and the sum of "counts" equal the 256 requested, while
#      "accepted_shots" (the passing shots) is fewer.
#
# Usage: scripts/acomp_smoke.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
QASSERTD="$BUILD/tools/qassertd"
ROUTER="$BUILD/tools/qa_router"
for bin in "$QASSERTD" "$ROUTER"; do
    if [[ ! -x "$bin" ]]; then
        echo "acomp_smoke: binary not found at $bin" >&2
        exit 2
    fi
done

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

# GHZ-5 prep with terminal measurements and no assertions anywhere —
# the generator has to discover the invariant on its own.
clean='OPENQASM 2.0;\nqreg q[5];\ncreg c[5];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\ncx q[3],q[4];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\nmeasure q[2] -> c[2];\nmeasure q[3] -> c[3];\nmeasure q[4] -> c[4];\n'
# Same prep with an X fault injected after the first entangling layer.
fault='OPENQASM 2.0;\nqreg q[5];\ncreg c[5];\nh q[0];\ncx q[0],q[1];\nx q[1];\ncx q[1],q[2];\ncx q[2],q[3];\ncx q[3],q[4];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\nmeasure q[2] -> c[2];\nmeasure q[3] -> c[3];\nmeasure q[4] -> c[4];\n'

# GHZ-3 under depolarizing noise: some shots flag the generated slot.
ghz3='OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\nmeasure q[2] -> c[2];\n'
depolarizing='{"kind":"depolarizing","p1":0.01,"p2":0.05}'

# --- 1+2+3+5. qassertd --auto-assert: clean pass, fault caught,
# explain, and the noisy job's reply shape
printf '%s\n' \
    "{\"id\":\"clean\",\"qasm\":\"$clean\",\"shots\":512,\"seed\":21}" \
    "{\"id\":\"fault\",\"qasm\":\"$fault\",\"shots\":512,\"seed\":22}" \
    "{\"op\":\"explain\",\"id\":\"why\",\"qasm\":\"$clean\",\"shots\":512}" \
    "{\"id\":\"noisy\",\"qasm\":\"$ghz3\",\"shots\":256,\"seed\":3,\"auto_assert\":true,\"noise\":$depolarizing}" \
    '{"op":"shutdown"}' \
    | "$QASSERTD" --auto-assert --workers 2 \
    > "$workdir/daemon.out" 2> "$workdir/daemon.err" \
    || { echo "acomp_smoke: qassertd --auto-assert run failed" >&2;
         cat "$workdir/daemon.err" >&2; exit 1; }

clean_line=$(grep '"id":"clean"' "$workdir/daemon.out")
grep -q '"pass_rate":1,"slot_error_rate":\[0\]' <<< "$clean_line" \
    || { echo "acomp_smoke: clean GHZ did not pass every shot" >&2;
         echo "$clean_line" >&2; exit 1; }
grep -q '"auto_assert":{"generated":1' <<< "$clean_line" \
    || { echo "acomp_smoke: response lacks the auto_assert block" >&2;
         echo "$clean_line" >&2; exit 1; }
grep -q '"form":"pauli".*"ancillas":0' <<< "$clean_line" \
    || { echo "acomp_smoke: slot not lowered to ancilla-free pauli" >&2;
         echo "$clean_line" >&2; exit 1; }

# A mid-prep X fault anticommutes with the discovered generators, so
# every shot must be flagged — not a statistical catch.
fault_line=$(grep '"id":"fault"' "$workdir/daemon.out")
grep -q '"pass_rate":0,"slot_error_rate":\[1\]' <<< "$fault_line" \
    || { echo "acomp_smoke: injected X fault was not detected" >&2;
         echo "$fault_line" >&2; exit 1; }

explain_line=$(grep '"id":"why"' "$workdir/daemon.out")
grep -q '"auto_assert":{.*"form":"pauli"' <<< "$explain_line" \
    || { echo "acomp_smoke: explain lacks the lowering table" >&2;
         echo "$explain_line" >&2; exit 1; }
grep -q '"source":{"line":' <<< "$explain_line" \
    || { echo "acomp_smoke: explain slot lacks a source anchor" >&2;
         echo "$explain_line" >&2; exit 1; }

# Every shot ran and is reported; only the passing ones are accepted.
noisy_line=$(grep '"id":"noisy"' "$workdir/daemon.out")
grep -q '"status":"ok".*"shots":256,' <<< "$noisy_line" \
    || { echo "acomp_smoke: noisy job does not report its 256 shots" >&2;
         echo "$noisy_line" >&2; exit 1; }
counted=$(grep -o '"counts":{[^}]*}' <<< "$noisy_line" \
          | grep -o ':[0-9]*' | tr -d : | awk '{s += $1} END {print s + 0}')
if [[ "$counted" -ne 256 ]]; then
    echo "acomp_smoke: noisy job's counts sum to $counted, not 256" >&2
    echo "$noisy_line" >&2
    exit 1
fi
accepted=$(grep -o '"accepted_shots":[0-9]*' <<< "$noisy_line" | cut -d: -f2)
if [[ -z "$accepted" || "$accepted" -ge 256 ]]; then
    echo "acomp_smoke: noisy job accepted '$accepted' shots (want < 256)" >&2
    echo "$noisy_line" >&2
    exit 1
fi

# --- 4. exactly-once through a 2-shard router -----------------------
# auto_assert rides in the request JSON here, so plain qassertd shards
# apply the compiler without any daemon-side flag.
jobs=8
{ for i in $(seq 1 "$jobs"); do
      if (( i % 2 )); then q="$clean"; else q="$fault"; fi
      printf '{"id":"r%d","qasm":"%s","shots":256,"seed":%d,"auto_assert":true}\n' \
          "$i" "$q" $((30 + i))
  done
  printf '{"op":"shutdown"}\n'
} | "$ROUTER" --shards 2 --shard-cmd "$QASSERTD" \
    > "$workdir/router.out" 2> "$workdir/router.err" \
    || { echo "acomp_smoke: router run failed" >&2;
         cat "$workdir/router.err" >&2; exit 1; }

for i in $(seq 1 "$jobs"); do
    n=$(grep -c "\"id\":\"r$i\"" "$workdir/router.out" || true)
    if [[ "$n" -ne 1 ]]; then
        echo "acomp_smoke: job r$i answered $n times (want exactly 1)" >&2
        cat "$workdir/router.out" >&2
        exit 1
    fi
done
ok=$(grep -c '"status":"ok"' "$workdir/router.out" || true)
if [[ "$ok" -ne "$jobs" ]]; then
    echo "acomp_smoke: $ok/$jobs router jobs ok" >&2
    cat "$workdir/router.out" >&2
    exit 1
fi
for i in $(seq 1 "$jobs"); do
    line=$(grep "\"id\":\"r$i\"" "$workdir/router.out")
    if (( i % 2 )); then want='"slot_error_rate":[0]'; else want='"slot_error_rate":[1]'; fi
    grep -qF "$want" <<< "$line" \
        || { echo "acomp_smoke: r$i verdict wrong through the router" >&2;
             echo "$line" >&2; exit 1; }
done

echo "acomp_smoke OK: auto-generated Pauli assertion passed clean GHZ," \
     "caught the injected fault every shot, explained its lowering," \
     "ran exactly-once through a 2-shard router, and reported every" \
     "shot of a noisy run"
