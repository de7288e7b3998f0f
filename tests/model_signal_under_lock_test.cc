// SignalUnderLockLitmus over the simulated Firefly: a Signal made under the
// waiter's mutex leaves the wake to that mutex's release
// (Condition::Ready, src/threads/condition.cc; DESIGN.md §13).
//
// Its own binary, apart from model_explorer_test: the exhaustive three-fiber
// run takes ~5 s plain but ~6.5 min under TSan, where every fiber is a TSan
// fiber, and a binary of its own keeps each inside the sanitizer TIMEOUT.

#include <string>

#include <gtest/gtest.h>

#include "src/model/explorer.h"
#include "src/model/litmus.h"

namespace taos::model {
namespace {

ExplorerOptions Opts(int cpus, std::uint64_t max_runs) {
  ExplorerOptions o;
  o.machine.cpus = cpus;
  o.max_runs = max_runs;
  return o;
}

// Two CPUs, three threads: 207,669 runs.
TEST(ModelTest, SignalUnderLockLosesNoWakeupExhaustively) {
  Tally tally;
  Explorer ex(Opts(2, 300'000));
  ExplorationResult r =
      ex.Explore(SignalUnderLockLitmus(SignalDeferral::kShipped, &tally));
  EXPECT_TRUE(r.exhausted) << r.ToString();
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  EXPECT_EQ(tally.deadlocks, 0u);
  // The deferred path is reached: the signaller holds the mutex as it
  // pops the waiter, and its release pays the wake.
  EXPECT_GT(tally.cond_wakes_deferred, 0u);
  EXPECT_LT(tally.cond_wakes_deferred, tally.completions);
}

TEST(ModelTest, SignalUnderLockCatchesEachBrokenDeferral) {
  for (SignalDeferral protocol :
       {SignalDeferral::kReleaseSkipsFlush, SignalDeferral::kDeferIfHeld}) {
    SCOPED_TRACE(static_cast<int>(protocol));
    Explorer ex(Opts(2, 300'000));
    ExplorationResult r = ex.Explore(SignalUnderLockLitmus(protocol));
    ASSERT_GE(r.violations, 1u) << r.ToString();
    EXPECT_NE(r.first_violation.find("lost wakeup"), std::string::npos)
        << r.first_violation;
    EXPECT_EQ(ex.Replay(SignalUnderLockLitmus(protocol), r.counterexample),
              r.first_violation);
  }
}

}  // namespace
}  // namespace taos::model
