#!/usr/bin/env bash
#
# Tier-1 verification: the canonical build + full ctest sweep (plus the
# qassertd kill-and-replay chaos smoke, scripts/chaos_smoke.sh, and the
# fleet chaos smoke, scripts/fleet_smoke.sh, which SIGKILLs one of a
# qa_router's three shards under open-loop load and requires every job
# answered exactly once), then a
# ThreadSanitizer build (QA_ENABLE_TSAN=ON) that runs the shot-engine,
# policy-runner, service-scheduler, backend-subsystem, MPS-backend,
# gate-fusion/kernel, and resilience-chaos tests — the multi-threaded code paths, including
# watchdog reclaim/respawn, zombie joins, and the one shot loop every
# backend and policy shares (JobTest.ShotLoopIsThreadCountDeterministic
# drives a plain job and a multi-variant retry job through it at 1, 2
# and 8 threads) — under TSAN, and an ASan+UBSan build
# (QA_ENABLE_ASAN=ON) that runs the fault-injection, recovery-policy,
# service, backend, MPS, assertion-compiler, and resilience tests, whose
# error paths exercise exception propagation out of worker pools,
# scheduler callbacks, the backend router's incapable-request
# rejections, the compiler's unsupported-assertion diagnostics, and the
# adversarial wire corpus. The release half also runs the
# assertion-compiler smoke (scripts/acomp_smoke.sh): a raw GHZ circuit
# auto-asserted by qassertd --auto-assert must pass clean and flag an
# injected X fault on every shot, including through a 2-shard
# qa_router, and the remote-fleet network chaos smoke
# (scripts/netfleet_smoke.sh): qa_router --connect fronting three
# qassertd --listen TCP shards, one behind the qa_netchaos fault proxy
# (resets, a 5s partition, slow-loris, partial writes), with every job
# answered exactly once and the response digest bit-identical to a
# chaos-free run, and the MPS-backend smoke (scripts/mps_smoke.sh): a
# 30-qubit non-Clifford Trotter chain through qassertd must auto-route
# to the MPS backend, execute ok with zero truncation, and refuse a
# starved chi=2 override with the typed capability error. The TSan
# half additionally runs the fleet transport
# tests (TransportTest + RemoteRouterTest), whose per-connection socket
# reader threads race against router maintenance and teardown.
#
# Usage: scripts/tier1.sh [--skip-tsan] [--skip-asan] [--skip-release]
#
# --skip-release drops the canonical build + ctest sweep, leaving only
# the requested sanitizer halves (CI runs each half as its own job and
# covers the release sweep separately).
set -euo pipefail
cd "$(dirname "$0")/.."

skip_tsan=0
skip_asan=0
skip_release=0
for arg in "$@"; do
    case "$arg" in
      --skip-tsan) skip_tsan=1 ;;
      --skip-asan) skip_asan=1 ;;
      --skip-release) skip_release=1 ;;
      *) echo "unknown option: $arg" >&2; exit 2 ;;
    esac
done

if [[ "$skip_release" -ne 1 ]]; then
    cmake -B build -S .
    cmake --build build -j
    (cd build && ctest --output-on-failure -j)
    scripts/chaos_smoke.sh build/tools/qassertd
    scripts/fleet_smoke.sh build
    scripts/acomp_smoke.sh build
    scripts/netfleet_smoke.sh build
    scripts/mps_smoke.sh build
fi

if [[ "$skip_tsan" -ne 1 ]]; then
    cmake -B build-tsan -S . \
        -DQA_ENABLE_TSAN=ON \
        -DQASSERT_BUILD_BENCHES=OFF \
        -DQASSERT_BUILD_EXAMPLES=OFF
    cmake --build build-tsan -j --target test_engine --target test_policy \
        --target test_serve --target test_backend --target test_resilience \
        --target test_fusion --target test_fleet --target test_mps
    ./build-tsan/tests/test_fusion \
        --gtest_filter='FusionTest.CountsAreBitIdenticalAcrossThreadCounts:FusionTest.KrausNoiseKeepsTheNoisyStreamUnfused'
    ./build-tsan/tests/test_engine \
        --gtest_filter='EngineTest.*:ShotPlanTest.*:ShotPoolTest.*'
    ./build-tsan/tests/test_policy \
        --gtest_filter='PolicyTest.*'
    ./build-tsan/tests/test_serve \
        --gtest_filter='SchedulerTest.*:CacheTest.*:JobTest.*'
    ./build-tsan/tests/test_backend \
        --gtest_filter='BackendDeterminismTest.*:CrossBackendTest.*'
    ./build-tsan/tests/test_mps \
        --gtest_filter='MpsBackendTest.BitIdenticalAcrossThreadCounts:MpsBackendTest.MidCircuitBitIdenticalAcrossThreadCounts:RouterMpsTest.WideTrotterChainExecutesExactly'
    ./build-tsan/tests/test_resilience
    ./build-tsan/tests/test_fleet \
        --gtest_filter='TransportTest.*:RemoteRouterTest.*'
fi

if [[ "$skip_asan" -ne 1 ]]; then
    cmake -B build-asan -S . \
        -DQA_ENABLE_ASAN=ON \
        -DQASSERT_BUILD_BENCHES=OFF \
        -DQASSERT_BUILD_EXAMPLES=OFF
    cmake --build build-asan -j \
        --target test_inject --target test_policy --target test_engine \
        --target test_serve --target test_backend --target test_resilience \
        --target test_fusion --target test_acomp --target test_mps
    ./build-asan/tests/test_fusion
    ./build-asan/tests/test_acomp
    ./build-asan/tests/test_inject
    ./build-asan/tests/test_policy
    ./build-asan/tests/test_engine \
        --gtest_filter='ShotPoolTest.*:EngineTest.Deadline*:EngineTest.StatevectorSampler*'
    ./build-asan/tests/test_serve
    ./build-asan/tests/test_backend
    ./build-asan/tests/test_mps
    ./build-asan/tests/test_resilience
fi

echo "tier-1 OK"
