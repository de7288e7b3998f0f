// Model-checking experiments over the simulated Firefly (E6, E7, E8, E12).
//
// Every run executes on the test's own thread: fibers are coroutines, so a
// step is a stack switch and a run costs no thread creation. Budgets keep
// the whole suite to about 15 s on one core; "exhausted" is asserted only
// where the schedule tree is small enough to cover fully.

#include "src/model/explorer.h"

#include <gtest/gtest.h>

#include "src/firefly/sync.h"
#include "src/model/litmus.h"

namespace taos::model {
namespace {

ExplorerOptions Opts(int cpus, std::uint64_t max_runs,
                     bool check_traces = false) {
  ExplorerOptions o;
  o.machine.cpus = cpus;
  o.max_runs = max_runs;
  o.check_traces = check_traces;
  return o;
}

// --- Mutual exclusion ---

TEST(ModelTest, MutualExclusionHoldsExhaustively) {
  Explorer ex(Opts(2, 200'000));
  ExplorationResult r = ex.Explore(MutualExclusionLitmus(2, 1));
  EXPECT_TRUE(r.exhausted) << r.ToString();
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  EXPECT_GT(r.runs, 1000u);  // the tree is genuinely explored
}

// Not exhaustive: the two-fiber tree above is already 145,628 runs deep 25,
// and a third fiber multiplies it far past any test budget. DFS covers a
// prefix-closed corner; random schedules sample the rest.
TEST(ModelTest, MutualExclusionThreeFibersSampled) {
  Explorer ex(Opts(3, 100'000));
  ExplorationResult r = ex.Explore(MutualExclusionLitmus(3, 1));
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  ExplorationResult rr =
      ex.ExploreRandom(MutualExclusionLitmus(3, 1), 20'000);
  EXPECT_EQ(rr.violations, 0u) << rr.ToString();
}

// --- E7: the wakeup-waiting race and the eventcount that closes it ---

TEST(ModelTest, EventcountClosesWakeupWaitingRace) {
  Explorer ex(Opts(2, 30'000));
  ExplorationResult dfs = ex.Explore(WakeupRaceLitmus(true));
  EXPECT_EQ(dfs.violations, 0u) << dfs.ToString();
  ExplorationResult rnd = ex.ExploreRandom(WakeupRaceLitmus(true), 5'000);
  EXPECT_EQ(rnd.violations, 0u) << rnd.ToString();
}

TEST(ModelTest, WithoutEventcountASignalIsLost) {
  Explorer ex(Opts(2, 30'000));
  ExplorationResult r = ex.Explore(WakeupRaceLitmus(false));
  ASSERT_GE(r.violations, 1u) << r.ToString();
  EXPECT_NE(r.first_violation.find("stuck"), std::string::npos)
      << r.first_violation;
  // The counterexample replays deterministically to the same verdict.
  std::string replayed =
      ex.Replay(WakeupRaceLitmus(false), r.counterexample);
  EXPECT_FALSE(replayed.empty());
  EXPECT_EQ(replayed, r.first_violation);
}

TEST(ModelTest, EventcountProtectsAlertWaitToo) {
  Explorer ex(Opts(2, 30'000));
  ExplorationResult good = ex.Explore(AlertWaitWakeupRaceLitmus(true));
  EXPECT_EQ(good.violations, 0u) << good.ToString();
  ExplorationResult bad = ex.Explore(AlertWaitWakeupRaceLitmus(false));
  ASSERT_GE(bad.violations, 1u) << bad.ToString();
  EXPECT_NE(bad.first_violation.find("stuck"), std::string::npos);
}

TEST(ModelTest, AbsorbedWakeupsObservedWithEventcount) {
  Tally tally;
  Explorer ex(Opts(2, 20'000));
  ExplorationResult r = ex.Explore(WakeupRaceLitmus(true, &tally));
  EXPECT_EQ(r.violations, 0u);
  // Some schedules put the signal inside the window; Block then returns
  // immediately instead of sleeping.
  EXPECT_GT(tally.absorbed_wakeups, 0u);
}

// --- E8: Broadcast vs the semaphore-encoded strawman ---

TEST(ModelTest, RealBroadcastWakesEveryWaiter) {
  Explorer ex(Opts(3, 20'000));
  ExplorationResult dfs = ex.Explore(BroadcastLitmus(2));
  EXPECT_EQ(dfs.violations, 0u) << dfs.ToString();
  ExplorationResult rnd = ex.ExploreRandom(BroadcastLitmus(2), 5'000);
  EXPECT_EQ(rnd.violations, 0u) << rnd.ToString();
}

TEST(ModelTest, NaiveSignalWorksForASingleWaiter) {
  // "The one bit in the semaphore c would cover the wakeup-waiting race."
  Explorer ex(Opts(2, 60'000));
  ExplorationResult r = ex.Explore(NaiveSignalLitmus());
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  ExplorationResult rnd = ex.ExploreRandom(NaiveSignalLitmus(), 5'000);
  EXPECT_EQ(rnd.violations, 0u) << rnd.ToString();
}

TEST(ModelTest, NaiveBroadcastLosesAWaiter) {
  // Three processors so both waiters can sit in the Release->P window while
  // the broadcaster runs; its two Vs then collapse into one.
  Explorer ex(Opts(3, 20'000));
  ExplorationResult r = ex.ExploreRandom(NaiveBroadcastLitmus(2), 20'000);
  ASSERT_GE(r.violations, 1u)
      << "expected the strawman broadcast to strand a waiter: "
      << r.ToString();
  EXPECT_NE(r.first_violation.find("DEADLOCK"), std::string::npos)
      << r.first_violation;
}

// --- E6: one Signal may unblock more than one thread ---

TEST(ModelTest, OneSignalCanUnblockSeveralThreads) {
  Tally tally;
  Explorer ex(Opts(3, 10'000));
  ExplorationResult r = ex.ExploreRandom(SignalUnblocksManyLitmus(&tally),
                                         10'000);
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  // Some schedules complete with a single Signal having made two waiters
  // runnable (queue pop + window absorption)...
  EXPECT_GT(tally.multi_unblock_signals, 0u);
  // ...and some schedules legally strand the second waiter (the spec has no
  // liveness clause) — which is exactly why Broadcast exists.
  EXPECT_GT(tally.deadlocks, 0u);
  EXPECT_GT(tally.completions, 0u);
}

// --- Dining philosophers: deadlock discovery and the ordering fix ---

TEST(ModelTest, NaivePhilosophersDeadlock) {
  Explorer ex(Opts(3, 20'000));
  ExplorationResult r =
      ex.ExploreRandom(DiningPhilosophersLitmus(3, /*ordered=*/false),
                       20'000);
  ASSERT_GE(r.violations, 1u) << r.ToString();
  EXPECT_NE(r.first_violation.find("deadlock"), std::string::npos);
}

TEST(ModelTest, OrderedPhilosophersNeverDeadlock) {
  Explorer ex(Opts(3, 30'000));
  ExplorationResult dfs =
      ex.Explore(DiningPhilosophersLitmus(3, /*ordered=*/true));
  EXPECT_EQ(dfs.violations, 0u) << dfs.ToString();
  ExplorationResult rnd = ex.ExploreRandom(
      DiningPhilosophersLitmus(3, /*ordered=*/true), 10'000);
  EXPECT_EQ(rnd.violations, 0u) << rnd.ToString();
}

TEST(ModelTest, TwoPhilosophers) {
  // The minimal instance: random search finds the circular wait quickly;
  // the ordered variant (both want fork 0 first) shows none.
  Explorer ex(Opts(2, 20'000));
  ExplorationResult bad = ex.ExploreRandom(
      DiningPhilosophersLitmus(2, /*ordered=*/false), 20'000);
  EXPECT_GE(bad.violations, 1u) << bad.ToString();

  ExplorationResult good = ex.ExploreRandom(
      DiningPhilosophersLitmus(2, /*ordered=*/true), 10'000);
  EXPECT_EQ(good.violations, 0u) << good.ToString();
}

// --- Timed waits: the waiter's self-dequeue racing a release's grant ---

// Two CPUs: the sleeping waiter, forked first, is asleep before the
// releaser gets a processor, which is the scenario's starting state. The
// releaser and the timed-out waiter then interleave freely (4,626 runs;
// three CPUs add the sleeper's own park steps and take the tree past a
// million).
TEST(ModelTest, TimeoutSelfDequeueLosesNoWakeupExhaustively) {
  Tally tally;
  Explorer ex(Opts(2, 100'000));
  ExplorationResult r = ex.Explore(SelfCancelTimeoutLitmus(true, &tally));
  EXPECT_TRUE(r.exhausted) << r.ToString();
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  // Both sides of the race genuinely occur across the schedule tree: the
  // timed-out waiter dequeuing itself, and the release dequeuing it first
  // (its permit then consumed by the waiter, not left behind).
  EXPECT_GT(tally.timeout_self_dequeues, 0u);
  EXPECT_GT(tally.timeout_grant_races, 0u);
}

TEST(ModelTest, TimeoutStraightFromTheParkerLosesAWakeup) {
  ExplorerOptions opts = Opts(2, 100'000);
  opts.stop_on_violation = false;
  Explorer ex(opts);
  ExplorationResult r = ex.Explore(SelfCancelTimeoutLitmus(false));
  EXPECT_TRUE(r.exhausted) << r.ToString();
  ASSERT_GE(r.violations, 1u)
      << "expected the unchecked timeout to strand a waiter: " << r.ToString();
  EXPECT_NE(r.first_violation.find("lost wakeup"), std::string::npos)
      << r.first_violation;
  // The counterexample replays deterministically to the same verdict.
  std::string replayed =
      ex.Replay(SelfCancelTimeoutLitmus(false), r.counterexample);
  EXPECT_EQ(replayed, r.first_violation);
}

// --- Multi-object wait: double grant and the deregistration window ---

TEST(ModelTest, PollNotifyOnlyConservesPulsesExhaustively) {
  // The shipped protocol: Set only notifies; the waiter's own exchange
  // consumes. Every schedule of two concurrent Sets against one WaitAny
  // scan conserves both pulses.
  Tally tally;
  Explorer ex(Opts(3, 60'000));
  ExplorationResult r = ex.Explore(PollDoubleGrantLitmus(true, &tally));
  EXPECT_TRUE(r.exhausted) << r.ToString();
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  // The interesting window — both Sets racing the same parked wait — is
  // genuinely reached across the schedule tree.
  EXPECT_GT(tally.poll_concurrent_sets, 0u);
}

TEST(ModelTest, PollGranterSideConsumptionDoubleGrants) {
  Explorer ex(Opts(3, 60'000));
  ExplorationResult r = ex.Explore(PollDoubleGrantLitmus(false));
  ASSERT_GE(r.violations, 1u)
      << "expected handoff-style Set to destroy a pulse: " << r.ToString();
  EXPECT_NE(r.first_violation.find("double grant"), std::string::npos)
      << r.first_violation;
  std::string replayed =
      ex.Replay(PollDoubleGrantLitmus(false), r.counterexample);
  EXPECT_EQ(replayed, r.first_violation);
}

TEST(ModelTest, PollSafeCancelSurvivesDeregRaceExhaustively) {
  Tally tally;
  Explorer ex(Opts(2, 60'000));
  ExplorationResult r = ex.Explore(PollDeregLostWakeupLitmus(true, &tally));
  EXPECT_TRUE(r.exhausted) << r.ToString();
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  // Both sides of the race occur: the cancel CAS winning cleanly, and the
  // notification landing first (forcing the re-publish).
  EXPECT_GT(tally.poll_dereg_lost_to_resume, 0u);
  EXPECT_LT(tally.poll_dereg_lost_to_resume, tally.completions);
}

TEST(ModelTest, PollBlindCancelLosesAWakeup) {
  Explorer ex(Opts(2, 60'000));
  ExplorationResult r = ex.Explore(PollDeregLostWakeupLitmus(false));
  ASSERT_GE(r.violations, 1u)
      << "expected the blind cancel to erase a delivered pulse: "
      << r.ToString();
  EXPECT_NE(r.first_violation.find("lost wakeup"), std::string::npos)
      << r.first_violation;
  std::string replayed =
      ex.Replay(PollDeregLostWakeupLitmus(false), r.counterexample);
  EXPECT_EQ(replayed, r.first_violation);
}

// --- Alert vs thread exit: type-stable records and ids as generations ---

TEST(ModelTest, StaleAlertIsHarmlessExhaustively) {
  Tally tally;
  Explorer ex(Opts(2, 10'000));
  ExplorationResult r =
      ex.Explore(AlertExitLitmus(RecordReclaim::kTypeStable, &tally));
  EXPECT_TRUE(r.exhausted) << r.ToString();
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  // Both sides of the race occur: the Alert landing on the exited thread,
  // and the Alert finding the record released or reused.
  EXPECT_GT(tally.alerts_on_exited, 0u);
  EXPECT_GT(tally.stale_alerts_dropped, 0u);
}

TEST(ModelTest, StaleAlertCatchesEachBrokenReclaim) {
  const struct {
    RecordReclaim reclaim;
    const char* verdict;
  } cases[] = {
      {RecordReclaim::kFreeOnExit, "use after free"},
      {RecordReclaim::kNoIdCheck, "stale alert"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.verdict);
    Explorer ex(Opts(2, 10'000));
    ExplorationResult r = ex.Explore(AlertExitLitmus(c.reclaim));
    ASSERT_GE(r.violations, 1u) << r.ToString();
    EXPECT_NE(r.first_violation.find(c.verdict), std::string::npos)
        << r.first_violation;
    EXPECT_EQ(ex.Replay(AlertExitLitmus(c.reclaim), r.counterexample),
              r.first_violation);
  }
}

// --- Rwlock: the biased readers' two seq_cst pairs ---

TEST(ModelTest, BiasedReadersAreSafeExhaustively) {
  Tally tally;
  Explorer ex(Opts(2, 10'000));
  ExplorationResult r =
      ex.Explore(BiasedReaderLitmus(BiasProtocol::kShipped, &tally));
  EXPECT_TRUE(r.exhausted) << r.ToString();
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  EXPECT_EQ(tally.deadlocks, 0u);
  // Every window is reached: a biased entry, a reader backing out of a
  // revoked bias, and the writer parked on a slot until the release wakes
  // it.
  EXPECT_GT(tally.biased_entries, 0u);
  EXPECT_GT(tally.bias_backouts, 0u);
  EXPECT_GT(tally.drain_parks, 0u);
}

TEST(ModelTest, BiasedReadersCatchEachBrokenPair) {
  const struct {
    BiasProtocol protocol;
    const char* verdict;
  } cases[] = {
      {BiasProtocol::kNoRecheck, "overlap"},
      {BiasProtocol::kFlagBeforeClear, "lost drain wake"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.verdict);
    Explorer ex(Opts(2, 10'000));
    ExplorationResult r = ex.Explore(BiasedReaderLitmus(c.protocol));
    ASSERT_GE(r.violations, 1u) << r.ToString();
    EXPECT_NE(r.first_violation.find(c.verdict), std::string::npos)
        << r.first_violation;
    EXPECT_EQ(ex.Replay(BiasedReaderLitmus(c.protocol), r.counterexample),
              r.first_violation);
  }
}

// --- Rwlock: reader preference is safe but starves writers ---

TEST(ModelTest, RwReaderPreferenceSafeExhaustively) {
  // Small instance: one reader, one writer — full DFS shows no schedule
  // overlaps a reader with the writer.
  Explorer ex(Opts(2, 150'000));
  ExplorationResult r = ex.Explore(RwWriterStarvationLitmus(1, 1));
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  EXPECT_GT(r.runs, 100u);
}

TEST(ModelTest, RwWriterStarvedByReaderStream) {
  Tally tally;
  Explorer ex(Opts(3, 20'000));
  ExplorationResult r =
      ex.ExploreRandom(RwWriterStarvationLitmus(2, 2, &tally), 6'000);
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  EXPECT_EQ(tally.deadlocks, 0u);
  // Schedules exist where readers are admitted past the already-waiting
  // writer — the starvation mechanism; the writer escapes only because the
  // reader stream is finite.
  EXPECT_GT(tally.readers_admitted_past_writer, 0u);
  EXPECT_EQ(tally.writer_acquisitions, tally.completions);
}

// --- Alert scenarios ---

TEST(ModelTest, AlertWaitRaceAlwaysTerminates) {
  Tally tally;
  Explorer ex(Opts(3, 20'000));
  ExplorationResult r =
      ex.ExploreRandom(AlertWaitRaceLitmus(&tally), 5'000);
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  // Both exits occur across schedules: the spec's RETURNS/RAISES choices
  // are genuinely both exercised.
  EXPECT_GT(tally.normal_exits, 0u);
  EXPECT_GT(tally.alerted_exits, 0u);
}

TEST(ModelTest, AlertPExhaustiveBothOutcomes) {
  Tally tally;
  Explorer ex(Opts(2, 60'000));
  ExplorationResult r = ex.Explore(AlertPRaceLitmus(&tally));
  EXPECT_TRUE(r.exhausted) << r.ToString();
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  EXPECT_GT(tally.normal_exits, 0u);
  EXPECT_GT(tally.alerted_exits, 0u);
}

// --- The Greg Nelson AlertWait bug, reproduced through the checker ---
//
// The implementation follows the corrected semantics (the Alerted exit
// deletes SELF from c). Replaying its traces against the corrected spec
// accepts every schedule; replaying the same program against the spec as
// first released (UNCHANGED [c] on the raising exit) leaves the raised
// waiter in c as a ghost, and the schedules where a Signal lands after the
// Alerted exit fail that Signal's ENSURES — exactly the error report in the
// paper's Discussion section.

TEST(ModelTest, AlertWaitGhostConformsToCorrectedSpec) {
  Tally tally;
  Explorer ex(Opts(3, 30'000, /*check_traces=*/true));
  ExplorationResult r = ex.ExploreRandom(AlertWaitGhostLitmus(&tally), 6'000);
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  // Both exits genuinely occur, so the ghost path is really being explored.
  EXPECT_GT(tally.alerted_exits, 0u);
  EXPECT_GT(tally.normal_exits, 0u);
}

TEST(ModelTest, OriginalBuggySpecRejectsSignalAfterAlertedExit) {
  ExplorerOptions opts = Opts(3, 30'000, /*check_traces=*/true);
  opts.spec_config.alert_wait = spec::AlertWaitVariant::kOriginalBuggy;
  Explorer ex(opts);
  ExplorationResult r = ex.ExploreRandom(AlertWaitGhostLitmus(nullptr), 6'000);
  ASSERT_GE(r.violations, 1u)
      << "expected the ghost member to break a later Signal: " << r.ToString();
  EXPECT_NE(r.first_violation.find("spec violation"), std::string::npos)
      << r.first_violation;
  // The counterexample replays deterministically to the same verdict.
  std::string replayed = ex.Replay(AlertWaitGhostLitmus(nullptr),
                                   r.counterexample);
  EXPECT_EQ(replayed, r.first_violation);
}

// --- The AlertP RETURNS/RAISES overlap, isolated ---

TEST(ModelTest, AlertPOverlapAllowedByReleasedSpec) {
  Tally tally;
  Explorer ex(Opts(2, 60'000, /*check_traces=*/true));
  ExplorationResult r = ex.Explore(AlertPOverlapLitmus(&tally));
  EXPECT_TRUE(r.exhausted) << r.ToString();
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  // Some schedules hit the overlap: AlertP returned with the alert pending,
  // i.e. both WHEN clauses held and the implementation chose RETURNS.
  EXPECT_GT(tally.returns_with_alert_pending, 0u);
  EXPECT_EQ(tally.alerted_exits, 0u);  // available semaphore: never raises
}

TEST(ModelTest, PreReleasePolicyFlagsTheOverlapChoice) {
  // The pre-release spec made the choice deterministic ("must raise when an
  // alert is pending"); the implementation's test-and-set fast path does
  // not, which is why the released spec legitimized the nondeterminism.
  ExplorerOptions opts = Opts(2, 60'000, /*check_traces=*/true);
  opts.spec_config.alert_choice = spec::AlertChoicePolicy::kPreferAlerted;
  Explorer ex(opts);
  ExplorationResult r = ex.Explore(AlertPOverlapLitmus(nullptr));
  ASSERT_GE(r.violations, 1u) << r.ToString();
  EXPECT_NE(r.first_violation.find("policy"), std::string::npos)
      << r.first_violation;
}

TEST(ModelTest, SemaphoreHandoffExhaustive) {
  Explorer ex(Opts(2, 60'000));
  ExplorationResult r = ex.Explore(SemaphoreHandoffLitmus());
  EXPECT_TRUE(r.exhausted) << r.ToString();
  EXPECT_EQ(r.violations, 0u) << r.ToString();
}

// --- A derived component, model-checked: a barrier from Mutex+Condition ---

class SimBarrierLitmus : public LitmusTest {
 public:
  explicit SimBarrierLitmus(int parties) : parties_(parties) {}

  void Setup(firefly::Machine& machine) override {
    mu_ = std::make_unique<firefly::Mutex>(machine);
    cv_ = std::make_unique<firefly::Condition>(machine);
    for (int p = 0; p < parties_; ++p) {
      machine.Fork(
          [this, &machine] {
            machine.Step();
            ++before_;
            ArriveAndWait(machine);
            // After release, every party must have arrived.
            if (before_ != parties_) {
              tear_ = true;
            }
            machine.Step();
          },
          /*priority=*/0, "party");
    }
  }

  std::string Verify(const firefly::RunResult& result) override {
    if (!result.completed) {
      return "barrier stuck: " + result.ToString();
    }
    if (tear_) {
      return "a party got through before everyone arrived";
    }
    return "";
  }

 private:
  void ArriveAndWait(firefly::Machine& machine) {
    mu_->Acquire();
    machine.Step();
    if (++waiting_ == parties_) {
      released_ = true;
      mu_->Release();
      cv_->Broadcast();
      return;
    }
    while (!released_) {
      cv_->Wait(*mu_);
    }
    mu_->Release();
  }

  const int parties_;
  std::unique_ptr<firefly::Mutex> mu_;
  std::unique_ptr<firefly::Condition> cv_;
  int waiting_ = 0;
  int before_ = 0;
  bool released_ = false;
  bool tear_ = false;
};

TEST(ModelTest, BarrierReleasesEveryoneTogether) {
  ExplorerOptions opts = Opts(3, 15'000, /*check_traces=*/true);
  Explorer ex(opts);
  ExplorationResult dfs = ex.Explore(
      [] { return std::make_unique<SimBarrierLitmus>(2); });
  EXPECT_EQ(dfs.violations, 0u) << dfs.ToString();
  ExplorationResult rnd = ex.ExploreRandom(
      [] { return std::make_unique<SimBarrierLitmus>(3); }, 3'000);
  EXPECT_EQ(rnd.violations, 0u) << rnd.ToString();
}

// --- Liveness under fairness (outside the spec, promised by the code) ---

TEST(ModelTest, LivenessUnderRoundRobinScheduling) {
  // The spec "cannot be used to prove that anything must happen" (the paper
  // on its own AlertWait bug). The implementation, however, is live under a
  // weakly fair scheduler: these programs, which can deadlock-free-ly
  // complete, do complete when every runnable fiber keeps stepping.
  struct Scenario {
    const char* name;
    LitmusFactory factory;
  };
  const Scenario scenarios[] = {
      {"mutex", MutualExclusionLitmus(3, 2)},
      {"race", WakeupRaceLitmus(true)},
      {"broadcast", BroadcastLitmus(3)},
      {"handoff", SemaphoreHandoffLitmus()},
      {"philosophers", DiningPhilosophersLitmus(3, /*ordered=*/true)},
  };
  for (const Scenario& s : scenarios) {
    firefly::RoundRobinChooser rr;
    firefly::MachineConfig cfg;
    cfg.cpus = 2;
    cfg.chooser = &rr;
    firefly::Machine machine(cfg);
    std::unique_ptr<LitmusTest> test = s.factory();
    test->Setup(machine);
    firefly::RunResult run = machine.Run();
    const std::string verdict = test->Verify(run);
    EXPECT_TRUE(run.completed) << s.name << ": " << run.ToString();
    EXPECT_EQ(verdict, "") << s.name << ": " << verdict;
  }
}

// --- E12: every explored interleaving's serialization satisfies the spec ---

class TraceConformance
    : public ::testing::TestWithParam<std::tuple<const char*, int, bool>> {};

TEST_P(TraceConformance, AllInterleavingsConform) {
  const auto& [name, cpus, random] = GetParam();
  LitmusFactory factory;
  if (std::string(name) == "mutex") {
    factory = MutualExclusionLitmus(2, 1);
  } else if (std::string(name) == "race") {
    factory = WakeupRaceLitmus(true);
  } else if (std::string(name) == "sigmany") {
    factory = SignalUnblocksManyLitmus(nullptr);
  } else if (std::string(name) == "alertwait") {
    factory = AlertWaitRaceLitmus(nullptr);
  } else if (std::string(name) == "alertp") {
    factory = AlertPRaceLitmus(nullptr);
  } else {
    factory = SemaphoreHandoffLitmus();
  }
  Explorer ex(Opts(cpus, 8'000, /*check_traces=*/true));
  ExplorationResult r =
      random ? ex.ExploreRandom(factory, 3'000) : ex.Explore(factory);
  EXPECT_EQ(r.violations, 0u) << r.ToString();
  EXPECT_GT(r.runs, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Model, TraceConformance,
    ::testing::Values(std::make_tuple("mutex", 2, false),
                      std::make_tuple("race", 2, false),
                      std::make_tuple("race", 2, true),
                      std::make_tuple("sigmany", 3, true),
                      std::make_tuple("alertwait", 3, true),
                      std::make_tuple("alertp", 2, false),
                      std::make_tuple("handoff", 2, false)));

}  // namespace
}  // namespace taos::model
