#!/usr/bin/env bash
# Seed-sweep driver for the chaos schedule-injection harness.
#
# Runs the conformance, timed, stress, rwlock, and poll suites (which fan
# out over the lock-sharding modes via their registered ctest variants)
# under every strategy for each seed. On any failure it prints the {seed,
# strategy, point-mask} replay triple and the exact environment line that
# reproduces the run, then exits non-zero.
#
# Usage:
#   tools/chaos_sweep.sh <chaos-build-dir> [seed...]
#
# The build dir must be configured with -DTAOS_CHAOS=ON. Default seeds are
# 1..5; TAOS_CHAOS_POINTS (hex mask) and TAOS_SWEEP_FILTER (ctest -R regex)
# pass through from the environment.

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

if [ ! -f "${BUILD_DIR}/CTestTestfile.cmake" ]; then
  echo "chaos_sweep: ${BUILD_DIR} is not a configured build directory" >&2
  exit 2
fi

fail=0
for seed in "${SEEDS[@]}"; do
  for strategy in "${STRATEGIES[@]}"; do
    echo "=== chaos sweep: seed=${seed} strategy=${strategy}" \
         "points=${POINTS:-all} ==="
    if ! ( cd "${BUILD_DIR}" &&
           TAOS_CHAOS_SEED="${seed}" \
           TAOS_CHAOS_STRATEGY="${strategy}" \
           ${POINTS:+TAOS_CHAOS_POINTS="${POINTS}"} \
           ctest --output-on-failure -R "${FILTER}" ); then
      echo ""
      echo "chaos sweep FAILED: {seed=${seed}, strategy=${strategy}," \
           "points=${POINTS:-all}}"
      echo "replay with:"
      echo "  TAOS_CHAOS_SEED=${seed} TAOS_CHAOS_STRATEGY=${strategy}" \
           "${POINTS:+TAOS_CHAOS_POINTS=${POINTS}} \\"
      echo "    ctest --test-dir ${BUILD_DIR} --output-on-failure" \
           "-R '${FILTER}'"
      fail=1
    fi
  done
done

if [ "${fail}" -eq 0 ]; then
  echo "chaos sweep: all seeds passed (${#SEEDS[@]} seeds x" \
       "${#STRATEGIES[@]} strategies)"
fi
exit "${fail}"
