#!/usr/bin/env bash
# Repo check: the tier-1 gate plus the sanitizer passes.
#
#   scripts/check.sh            # tier-1 build + full ctest, then TSan + ASan/UBSan passes
#   scripts/check.sh --no-tsan  # skip the ThreadSanitizer pass
#   scripts/check.sh --no-asan  # skip the ASan+UBSan pass
#
# Flake gate: right after the tier-1 ctest, the concurrency and chaos suites
# (ctest labels `tsan` and `chaos`) rerun on the tier-1 build with
# `--repeat until-fail:20`, so a test that fails once in twenty runs fails
# the check.
#
# Sanitizer passes:
#   - TSan (-DPARMA_SANITIZE=thread) over the concurrency-sensitive suites
#     (ctest label `tsan`: test_exec, test_serve, test_net, test_chaos_net,
#     test_cluster, test_async, test_fault, test_robust)
#     plus the chaos storms (`chaos` label: test_fault's all-points fault
#     storm, test_robust's corruption-recovery suite, and test_async's
#     cancellation storm), the wire-level chaos suite (`chaos-net` label:
#     socket fault points against the reconnecting client), and the
#     multi-process cluster storm (`chaos-cluster` label: kill -9 a sharded
#     worker mid-storm, assert failover keeps replies bit-identical), each
#     under three distinct PARMA_CHAOS_SEED values.
#   - ASan+UBSan (-DPARMA_SANITIZE=address,undefined) over the same suites,
#     plus the solver suite (ctest label `solver`: test_solver), whose
#     matrix-free Newton operator is index-heavy dense code.
#
# After the tier-1 ctest, smoke-runs the repo benchmark: perfbench/run.py
# for both workloads (recover, serve_tcp), untraced and traced, 2 s each;
# any non-zero exit (a perfbench build break against src/, a failed warm-up
# request, a wrong answer) fails the check.
#
# Also runs, each in --quick mode (non-zero exit fails the check): the
# robust-accuracy bench, which fails unless the robust+masked pipeline stays
# within 2x of the fault-free error at 10% corruption (and plain least
# squares is measurably worse); the net-throughput bench, which fails unless
# loopback TCP serving stays within 2x of in-process req/s; the net-chaos
# bench, which fails unless the reconnecting client holds >= 90% goodput at
# a 5% connection-kill rate; and the cluster-failover bench, which fails
# unless the sharded cluster holds >= 90% goodput while two workers are
# SIGKILLed and supervised back to life. They refresh
# bench_results/robust_accuracy.json, bench_results/net_throughput.json,
# bench_results/net_chaos.json, and bench_results/cluster_failover.json.
#
# The tier-1 ctest includes perfbench's statistics unit test
# (test_perfbench_stats, compiled from perfbench/tests/test_stats.cpp).
#
# Build trees: ./build (tier-1), ./build-tsan, ./build-asan.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="$(nproc 2>/dev/null || echo 2)"
run_tsan=1
run_asan=1
for arg in "$@"; do
  [[ "${arg}" == "--no-tsan" ]] && run_tsan=0
  [[ "${arg}" == "--no-asan" ]] && run_asan=0
done

echo "== headers: self-containment (each public header compiles alone) =="
header_tu="$(mktemp --suffix=.cpp)"
trap 'rm -f "${header_tu}"' EXIT
header_fail=0
for header in src/async/*.hpp src/net/*.hpp src/cluster/*.hpp src/serve/status.hpp \
              src/serve/resilience.hpp src/serve/request.hpp src/linalg/iterative.hpp \
              src/solver/inverse_solver.hpp src/solver/log_conductance.hpp; do
  printf '#include "%s"\n' "${header#src/}" > "${header_tu}"
  if ! c++ -std=c++20 -Wall -Wextra -fsyntax-only -Isrc "${header_tu}"; then
    echo "not self-contained: ${header}"
    header_fail=1
  fi
done
[[ "${header_fail}" == "0" ]] || exit 1

echo "== tier-1: configure + build =="
cmake -B build -S . >/dev/null
cmake --build build -j "${jobs}"

echo "== tier-1: ctest =="
(cd build && ctest --output-on-failure -j "${jobs}")

echo "== flake gate: ctest -L 'tsan|chaos' --repeat until-fail:20 =="
(cd build && ctest -L "tsan|chaos" --output-on-failure -j "${jobs}" --repeat until-fail:20)

echo "== perfbench: smoke runs (recover, serve_tcp; untraced and traced; 2 s each) =="
for workload in recover serve_tcp; do
  for trace in 0 1; do
    echo "-- perfbench --workload ${workload} --trace ${trace}"
    python3 perfbench/run.py --workload "${workload}" --seconds 2 --trace "${trace}"
  done
done

echo "== bench: robust_accuracy --quick (2x dirty-input accuracy gate) =="
./build/bench/robust_accuracy --quick

echo "== bench: net_throughput --quick (2x loopback-transport gate) =="
./build/bench/net_throughput --quick

echo "== bench: net_chaos --quick (90% goodput-under-kill gate) =="
./build/bench/net_chaos --quick

echo "== bench: cluster_failover --quick (90% goodput through worker kills + restarts) =="
./build/bench/cluster_failover --quick

if [[ "${run_tsan}" == "1" ]]; then
  echo "== tsan: configure + build (labels: tsan, chaos) =="
  cmake -B build-tsan -S . -DPARMA_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${jobs}" --target test_exec test_serve test_net test_chaos_net test_cluster cluster_failover test_async test_fault test_robust
  echo "== tsan: ctest -L tsan =="
  (cd build-tsan && ctest -L tsan --output-on-failure -j "${jobs}")
  echo "== tsan: ctest -L chaos (3 seeds) =="
  (cd build-tsan && ctest -L chaos --output-on-failure -j "${jobs}")
  echo "== tsan: ctest -L chaos-net (3 seeds) =="
  (cd build-tsan && ctest -L chaos-net --output-on-failure -j "${jobs}")
  echo "== tsan: ctest -L chaos-cluster (3 seeds) =="
  (cd build-tsan && ctest -L chaos-cluster --output-on-failure -j "${jobs}")
  echo "== tsan: cluster_failover --quick =="
  ./build-tsan/bench/cluster_failover --quick
fi

if [[ "${run_asan}" == "1" ]]; then
  echo "== asan+ubsan: configure + build (labels: tsan, chaos, solver) =="
  cmake -B build-asan -S . -DPARMA_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j "${jobs}" --target test_exec test_serve test_net test_chaos_net test_cluster cluster_failover test_async test_fault test_robust test_solver
  echo "== asan+ubsan: ctest -L tsan =="
  (cd build-asan && ctest -L tsan --output-on-failure -j "${jobs}")
  echo "== asan+ubsan: ctest -L solver =="
  (cd build-asan && ctest -L solver --output-on-failure -j "${jobs}")
  echo "== asan+ubsan: ctest -L chaos (3 seeds) =="
  (cd build-asan && ctest -L chaos --output-on-failure -j "${jobs}")
  echo "== asan+ubsan: ctest -L chaos-net (3 seeds) =="
  (cd build-asan && ctest -L chaos-net --output-on-failure -j "${jobs}")
  echo "== asan+ubsan: ctest -L chaos-cluster (3 seeds) =="
  (cd build-asan && ctest -L chaos-cluster --output-on-failure -j "${jobs}")
  echo "== asan+ubsan: cluster_failover --quick =="
  ./build-asan/bench/cluster_failover --quick
fi

echo "OK"
