#!/usr/bin/env bash
# Seed-sweep driver for the chaos schedule-injection harness.
#
# Runs the conformance, timed, stress, rwlock, and poll suites (which fan
# out over the lock-sharding modes via their registered ctest variants)
# under every strategy for each seed, and repeats the whole
# grid once per lock backend (TAOS_LOCK=tas|mcs|clh) so the MCS/CLH handoff
# seams see every strategy too. On any failure it prints the {seed,
# strategy, backend, point-mask} replay quadruple and the exact environment
# line that reproduces the run, then exits non-zero.
#
# Usage:
#   tools/chaos_sweep.sh <chaos-build-dir> [seed...]
#
# The build dir must be configured with -DTAOS_CHAOS=ON. Default seeds are
# 1..5; TAOS_CHAOS_POINTS (hex mask), TAOS_SWEEP_FILTER (ctest -R regex),
# and TAOS_SWEEP_LOCKS (space-separated backend list) pass through from the
# environment.

set -u

BUILD_DIR="${1:?usage: tools/chaos_sweep.sh <chaos-build-dir> [seed...]}"
shift
SEEDS=("$@")
if [ "${#SEEDS[@]}" -eq 0 ]; then
  SEEDS=(1 2 3 4 5)
fi

FILTER="${TAOS_SWEEP_FILTER:-threads_conformance_test|threads_timed_test|threads_stress_test|rwmutex_test|poll_test}"
POINTS="${TAOS_CHAOS_POINTS:-}"
STRATEGIES=(uniform preempt-after-cas delay-before-park)
read -r -a LOCKS <<< "${TAOS_SWEEP_LOCKS:-tas mcs clh}"

if [ ! -f "${BUILD_DIR}/CTestTestfile.cmake" ]; then
  echo "chaos_sweep: ${BUILD_DIR} is not a configured build directory" >&2
  exit 2
fi

fail=0
for lock in "${LOCKS[@]}"; do
  for seed in "${SEEDS[@]}"; do
    for strategy in "${STRATEGIES[@]}"; do
      echo "=== chaos sweep: lock=${lock} seed=${seed}" \
           "strategy=${strategy} points=${POINTS:-all} ==="
      if ! ( cd "${BUILD_DIR}" &&
             TAOS_LOCK="${lock}" \
             TAOS_CHAOS_SEED="${seed}" \
             TAOS_CHAOS_STRATEGY="${strategy}" \
             ${POINTS:+TAOS_CHAOS_POINTS="${POINTS}"} \
             ctest --output-on-failure -R "${FILTER}" ); then
        echo ""
        echo "chaos sweep FAILED: {lock=${lock}, seed=${seed}," \
             "strategy=${strategy}, points=${POINTS:-all}}"
        echo "replay with:"
        echo "  TAOS_LOCK=${lock} TAOS_CHAOS_SEED=${seed}" \
             "TAOS_CHAOS_STRATEGY=${strategy}" \
             "${POINTS:+TAOS_CHAOS_POINTS=${POINTS}} \\"
        echo "    ctest --test-dir ${BUILD_DIR} --output-on-failure" \
             "-R '${FILTER}'"
        fail=1
      fi
    done
  done
done

if [ "${fail}" -eq 0 ]; then
  echo "chaos sweep: all seeds passed (${#LOCKS[@]} backends x" \
       "${#SEEDS[@]} seeds x ${#STRATEGIES[@]} strategies)"
fi
exit "${fail}"
