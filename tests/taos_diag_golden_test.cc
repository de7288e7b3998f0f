// Golden-output check for the taos-diag analyzer (tools/diag_analysis):
// the checked-in trace tests/golden/diag_trace.json — a hand-written drain
// with contended waits, flow-stamped wakeups, a handoff chain, a broadcast
// stampede, and one unmatched edge — must analyze to exactly
// tests/golden/diag_trace.golden. The CLI is a thin fopen/format shell
// around this library, so this pins the tool's observable behavior.

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "tools/diag_analysis.h"

#ifndef TAOS_TESTS_GOLDEN_DIR
#define TAOS_TESTS_GOLDEN_DIR "tests/golden"
#endif

namespace taos {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(TaosDiagGoldenTest, AnalyzesCheckedInTraceToGoldenReport) {
  const std::string trace =
      ReadFileOrDie(std::string(TAOS_TESTS_GOLDEN_DIR) + "/diag_trace.json");
  ASSERT_FALSE(trace.empty());

  diagtool::TraceAnalysis analysis;
  std::string error;
  ASSERT_TRUE(diagtool::AnalyzeTraceJson(trace, &analysis, &error)) << error;

  // Structural spot-checks first, so a format tweak that regenerates the
  // golden file cannot silently bless broken analysis.
  // 2 Wait + 2 Acquire + 1 Release + 1 Broadcast + 5 Unpark + 4 ParkResume.
  EXPECT_EQ(analysis.total_events, 15u);
  EXPECT_EQ(analysis.dropped_events, 0u);
  ASSERT_GE(analysis.objects.size(), 2u);
  EXPECT_EQ(analysis.objects[0].obj, 9u);  // the condition: most wait time
  EXPECT_EQ(analysis.objects[0].wait_count, 2u);
  EXPECT_EQ(analysis.objects[1].obj, 5u);
  EXPECT_EQ(analysis.objects[1].holder_count, 1u);
  EXPECT_EQ(analysis.edges.size(), 4u);  // flows 1..4 matched
  EXPECT_EQ(analysis.unmatched_unparks, 1u);  // flow 9
  EXPECT_EQ(analysis.unmatched_resumes, 0u);
  EXPECT_EQ(analysis.broadcast.broadcasts, 1u);
  EXPECT_EQ(analysis.broadcast.woken_total, 2u);  // flows 1 and 2
  EXPECT_GT(analysis.broadcast.StampedeRatio(), 0.0);
  ASSERT_FALSE(analysis.chains.empty());
  EXPECT_EQ(analysis.chains[0].links.size(), 3u);  // t1 -> t2 -> t4 -> t5

  const std::string got = diagtool::FormatTraceReport(analysis, 10);
  const std::string want =
      ReadFileOrDie(std::string(TAOS_TESTS_GOLDEN_DIR) + "/diag_trace.golden");
  EXPECT_EQ(got, want);
}

TEST(TaosDiagGoldenTest, RejectsNonTraceInput) {
  diagtool::TraceAnalysis analysis;
  std::string error;
  EXPECT_FALSE(diagtool::AnalyzeTraceJson("{\"nope\": 1}", &analysis, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(diagtool::AnalyzeTraceJson("not json", &analysis, &error));
}

TEST(TaosDiagGoldenTest, BenchReportSummarizesHistograms) {
  const std::string bench = R"({
    "bench": "signal", "quick": true, "wall_seconds": 1.0, "num_cpus": 4,
    "lock_backend": "tas", "global_lock_mode": false,
    "metrics": {
      "counters": {"handoffs": 100, "cond_wakes_deferred": 40,
                   "spurious_wakeups": 3},
      "histograms": {"wakeup_latency_ns": [0,0,0,0,0,0,0,0,0,0,2,5,1,0,0,0,
                                           0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}
    },
    "benchmark": null
  })";
  std::string report;
  std::string error;
  ASSERT_TRUE(diagtool::FormatBenchReport(bench, &report, &error)) << error;
  EXPECT_NE(report.find("bench report (signal)"), std::string::npos) << report;
  EXPECT_NE(report.find("handoffs=100 cond_wakes_deferred=40"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("wakeup_latency_ns"), std::string::npos) << report;
  EXPECT_NE(report.find("8 samples"), std::string::npos) << report;

  EXPECT_FALSE(diagtool::FormatBenchReport("{}", &report, &error));
}

}  // namespace
}  // namespace taos
