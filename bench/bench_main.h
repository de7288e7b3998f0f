// Shared main() for every bench_* binary: google-benchmark plus the obs
// layer's metrics report and flight recorder, emitting a machine-readable
// BENCH_<name>.json next to the console output.
//
// Replace BENCHMARK_MAIN() with TAOS_BENCH_MAIN("<name>"). Extra flags, all
// consumed before google-benchmark sees argv:
//
//   --quick        CI mode: --benchmark_min_time=0.01 (bare double — this
//                  build of google-benchmark rejects unit suffixes)
//   --out=FILE     where to write the JSON report (default BENCH_<name>.json
//                  in the current directory)
//   --trace[=FILE] enable the flight recorder for the whole run and drain it
//                  to FILE (default TRACE_<name>.json) as Chrome trace-event
//                  JSON after the benchmarks finish
//
// The report's shape:
//   { "bench": name, "quick": bool, "wall_seconds": s,
//     "build_type": CMAKE_BUILD_TYPE,    // e.g. "Release", "RelWithDebInfo"
//     "git_sha": commit or "unknown",    // HEAD at configure time
//     "global_lock_mode": bool,          // TAOS_NUB_GLOBAL_LOCK
//     "parker_backend": "futex"|"condvar",  // TAOS_WAITQ_PARKER, resolved
//     "parker_spin_budget_ns": n,        // Parker::kSpinBudgetNs
//     "metrics": <obs::ReportJson()>,    // counters + histograms
//     "benchmark": <google-benchmark's own JSON output> }

#ifndef TAOS_BENCH_BENCH_MAIN_H_
#define TAOS_BENCH_BENCH_MAIN_H_

namespace taos::benchmain {

int Run(int argc, char** argv, const char* bench_name);

}  // namespace taos::benchmain

#define TAOS_BENCH_MAIN(name)                           \
  int main(int argc, char** argv) {                     \
    return taos::benchmain::Run(argc, argv, name);      \
  }

#endif  // TAOS_BENCH_BENCH_MAIN_H_
