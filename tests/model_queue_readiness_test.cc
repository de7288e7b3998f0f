// QueueReadinessLitmus over the simulated Firefly: MessageQueue's readable()
// level kept without a lock by a Dekker pair between the Send that publishes
// an item and the TryRecv that Resets the flag (src/threads/message_queue.h),
// and Close linearized against Send by a closed bit in the enqueue position.
//
// Its own binary, apart from model_explorer_test, which is already near the
// sanitizer TIMEOUT under TSan.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "src/model/explorer.h"
#include "src/model/litmus.h"

namespace taos::model {
namespace {

ExplorerOptions Opts() {
  ExplorerOptions o;
  o.machine.cpus = 2;
  o.max_runs = 500'000;
  return o;
}

TEST(ModelTest, QueueReadinessLosesNothingExhaustively) {
  for (bool close : {false, true}) {
    for (int cells : {1, 2}) {
      SCOPED_TRACE(testing::Message() << "cells " << cells << " close "
                                      << close);
      Tally tally;
      Explorer ex(Opts());
      ExplorationResult r = ex.Explore(QueueReadinessLitmus(
          ReadinessProtocol::kShipped, cells, close, &tally));
      EXPECT_TRUE(r.exhausted) << r.ToString();
      EXPECT_EQ(r.violations, 0u) << r.ToString();
      EXPECT_EQ(tally.deadlocks, 0u);
      std::printf("cells %d close %d: %llu runs, %llu restores, %llu refused\n",
                  cells, close ? 1 : 0,
                  static_cast<unsigned long long>(r.runs),
                  static_cast<unsigned long long>(tally.readiness_restores),
                  static_cast<unsigned long long>(tally.sends_refused));
      if (cells == 2 && !close) {
        // The window the re-check covers is reached: an item lands between
        // the receiver's emptiness check and its Reset.
        EXPECT_GT(tally.readiness_restores, 0u);
      }
      if (close) {
        // Both sides of the race: some Sends are refused, some drained.
        EXPECT_GT(tally.sends_refused, 0u);
        EXPECT_LT(tally.sends_refused, r.runs);
      }
    }
  }
}

TEST(ModelTest, QueueReadinessCatchesEachPlantedBug) {
  struct Case {
    ReadinessProtocol protocol;
    bool close;
  };
  for (const Case& c : {Case{ReadinessProtocol::kResetWithoutRecheck, false},
                        Case{ReadinessProtocol::kFlagBeforePublish, false},
                        Case{ReadinessProtocol::kCloseApartFromTail, true}}) {
    SCOPED_TRACE(static_cast<int>(c.protocol));
    Explorer ex(Opts());
    const LitmusFactory factory =
        QueueReadinessLitmus(c.protocol, /*cells=*/2, c.close);
    ExplorationResult r = ex.Explore(factory);
    ASSERT_GE(r.violations, 1u) << r.ToString();
    EXPECT_NE(r.first_violation.find("lost readiness"), std::string::npos)
        << r.first_violation;
    EXPECT_NE(r.first_violation.find(c.close ? "in the ring"
                                             : "readable clear and an item"),
              std::string::npos)
        << r.first_violation;
    EXPECT_EQ(ex.Replay(factory, r.counterexample), r.first_violation);
  }
}

}  // namespace
}  // namespace taos::model
