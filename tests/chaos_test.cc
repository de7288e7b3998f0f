// The chaos layer itself: point naming, strategy parsing, decision-stream
// determinism (every build), and — in a -DTAOS_CHAOS=ON build — the two
// claims the harness stands on: a fixed-seed run of the mixed workload
// matrix crosses every named injection point (the 100% coverage gate), and
// a deliberately reintroduced lost-alert bug (the window of the old
// watchdog-thread WaitWithTimeout) is caught by the default seed sweep and
// reproduces from the seed the sweep reports.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/chaos.h"
#include "src/base/xorshift.h"
#include "src/obs/coverage.h"
#include "src/obs/diag.h"
#include "src/threads/threads.h"
#include "src/threads/wait_result.h"

namespace taos {
namespace {

using namespace std::chrono_literals;

chaos::Point PointAt(int i) { return static_cast<chaos::Point>(i); }

// ---------------------------------------------------------------------------
// Introspection: available in every build.
// ---------------------------------------------------------------------------

TEST(ChaosPointsTest, NamesAreUniqueAndNamespaced) {
  std::set<std::string> seen;
  for (int i = 0; i < chaos::kNumPoints; ++i) {
    const char* name = chaos::PointName(PointAt(i));
    ASSERT_NE(name, nullptr) << "point " << i;
    // "subsystem.window", lower-case: the names are the replay vocabulary
    // (printed in banners, keyed in the coverage table), so they are API.
    EXPECT_NE(std::string(name).find('.'), std::string::npos) << name;
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
  }
}

TEST(ChaosPointsTest, FullMaskHasOneBitPerPoint) {
  EXPECT_EQ(chaos::FullPointMask(),
            (std::uint64_t{1} << chaos::kNumPoints) - 1);
}

TEST(ChaosPointsTest, CategoriesPartitionTheFullMask) {
  const chaos::Category cats[] = {
      chaos::Category::kGeneric,     chaos::Category::kAfterCas,
      chaos::Category::kBeforePark,  chaos::Category::kBeforeUnpark,
      chaos::Category::kCancel,      chaos::Category::kTimer,
  };
  std::uint64_t unioned = 0;
  for (chaos::Category c : cats) {
    const std::uint64_t m = chaos::MaskForCategory(c);
    EXPECT_EQ(unioned & m, 0u) << "categories overlap";
    unioned |= m;
  }
  EXPECT_EQ(unioned, chaos::FullPointMask());
}

TEST(ChaosStrategyTest, ParsesNamesAndBothSeparators) {
  chaos::Strategy s;
  ASSERT_TRUE(chaos::ParseStrategy("uniform", &s));
  EXPECT_EQ(s, chaos::Strategy::kUniform);
  ASSERT_TRUE(chaos::ParseStrategy("preempt-after-cas", &s));
  EXPECT_EQ(s, chaos::Strategy::kPreemptAfterCas);
  ASSERT_TRUE(chaos::ParseStrategy("preempt_after_cas", &s));
  EXPECT_EQ(s, chaos::Strategy::kPreemptAfterCas);
  ASSERT_TRUE(chaos::ParseStrategy("delay-before-park", &s));
  EXPECT_EQ(s, chaos::Strategy::kDelayBeforePark);
  EXPECT_FALSE(chaos::ParseStrategy("bogus", &s));
  EXPECT_FALSE(chaos::ParseStrategy("", &s));
  // Round trip: the name a banner prints parses back to the same strategy.
  for (chaos::Strategy in : {chaos::Strategy::kUniform,
                             chaos::Strategy::kPreemptAfterCas,
                             chaos::Strategy::kDelayBeforePark}) {
    chaos::Strategy out;
    ASSERT_TRUE(chaos::ParseStrategy(chaos::StrategyName(in), &out));
    EXPECT_EQ(out, in);
  }
}

// Replayability rests on Decide being a pure function of (strategy,
// category, rng state): same seed, same stream.
TEST(ChaosDecideTest, DecisionStreamIsDeterministic) {
  for (chaos::Strategy strategy : {chaos::Strategy::kUniform,
                                   chaos::Strategy::kPreemptAfterCas,
                                   chaos::Strategy::kDelayBeforePark}) {
    XorShift a(12345);
    XorShift b(12345);
    for (int i = 0; i < 4096; ++i) {
      const auto cat = static_cast<chaos::Category>(i % 6);
      const chaos::Decision da = chaos::Decide(strategy, cat, a);
      const chaos::Decision db = chaos::Decide(strategy, cat, b);
      EXPECT_EQ(da.kind, db.kind) << i;
      EXPECT_EQ(da.amount, db.amount) << i;
    }
  }
}

TEST(ChaosDecideTest, StrategiesBiasTheirCategory) {
  // preempt-after-cas must perturb kAfterCas crossings far more often than
  // uniform does, and delay-before-park likewise for kBeforePark.
  auto fire_rate = [](chaos::Strategy s, chaos::Category c) {
    XorShift rng(99);
    int fired = 0;
    for (int i = 0; i < 10000; ++i) {
      if (chaos::Decide(s, c, rng).kind != chaos::ActionKind::kNone) {
        ++fired;
      }
    }
    return fired;
  };
  EXPECT_GT(fire_rate(chaos::Strategy::kPreemptAfterCas,
                      chaos::Category::kAfterCas),
            4 * fire_rate(chaos::Strategy::kUniform,
                          chaos::Category::kAfterCas));
  EXPECT_GT(fire_rate(chaos::Strategy::kDelayBeforePark,
                      chaos::Category::kBeforePark),
            4 * fire_rate(chaos::Strategy::kUniform,
                          chaos::Category::kBeforePark));
}

#if !defined(TAOS_CHAOS_ENABLED)

// Default build: the macro must compile to nothing and the runtime stubs
// must be inert (this is the "benches measure the real runtime" guarantee).
TEST(ChaosCompiledOutTest, MacroAndRuntimeAreInert) {
  static_assert(!chaos::kCompiledIn);
  TAOS_CHAOS(kSpinAcquired);  // expands to ((void)0)
  chaos::Configure(chaos::Config{.seed = 1});
  EXPECT_FALSE(chaos::Active());
  chaos::Disable();
}

#else  // TAOS_CHAOS_ENABLED

// ---------------------------------------------------------------------------
// Chaos build: coverage and bug-catching claims.
// ---------------------------------------------------------------------------

class ChaosRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_lock_mode_ = Nub::Get().global_lock_mode(); }
  void TearDown() override {
    chaos::Disable();
    Nub::Get().SetGlobalLockMode(saved_lock_mode_);
  }
  bool saved_lock_mode_ = false;
};

// Biased rwlock traffic: readers on the biased fast path against a writer
// that revokes the bias and drains them, a timed writer whose drain may
// time out, and readers whose publish lands inside a revocation (the
// bias-recheck window). It runs with every slow mode off, since slow modes
// never take the bias.
void BiasedRwlockPass() {
  ReaderWriterMutex rw;
  std::vector<Thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.push_back(Thread::Fork([&, i] {
      for (int j = 0; j < 200; ++j) {
        ReadLock rl(rw);
        if ((j + i) % 50 == 0) {
          std::this_thread::sleep_for(40us);
        }
      }
    }));
  }
  threads.push_back(Thread::Fork([&] {
    for (int j = 0; j < 20; ++j) {
      {
        WriteLock wl(rw);
      }
      if (rw.AcquireFor(j % 2 == 0 ? 0ns : 50us) == WaitResult::kSatisfied) {
        rw.Release();
      }
      std::this_thread::sleep_for(30us);
    }
  }));
  for (Thread& t : threads) {
    t.Join();
  }
}

// One pass of mixed production traffic: biased rwlock readers against a
// writer (first, before the diagnosis layer is switched on), contended
// mutexes (grants, timeouts, back-outs), semaphore P/V and PFor, condition
// Wait/WaitFor against a signaller, AlertWaitFor and a contended AlertP
// against an alerter, word rwlock readers against a writer,
// poll/event/message-queue fan-in, raw spin-lock contention, and thread
// exit: every forked thread's record is reclaimed by whichever of its exit
// and its Join comes last.
// Everything the named points instrument, in whichever lock mode the caller
// configured. The diagnosis layer is switched on for the rest of the pass
// (so its rwlock readers take the word) and a
// snapshotter thread races SnapshotBlocked against the workload, so the
// three diag windows (publish-to-park, owner-stamp, snapshot-read) are
// crossed under injection too.
void MixedWorkloadPass() {
  Mutex m;
  Condition c;
  Semaphore sem;
  Semaphore sem_back;
  Mutex data_m;
  int counter = 0;
  std::atomic<bool> stop{false};

  BiasedRwlockPass();
  obs::diag::SetEnabled(true);
  std::thread snapshotter([&stop] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)obs::diag::SnapshotBlocked();
      std::this_thread::sleep_for(100us);
    }
  });

  std::vector<Thread> threads;
  // Mutex + timed-mutex traffic. The occasional held-across-a-sleep stretch
  // is what pushes AcquireFor into a real park (timed-finish) and lets a
  // Release land inside another thread's enqueue window (back-out).
  for (int i = 0; i < 3; ++i) {
    threads.push_back(Thread::Fork([&, i] {
      for (int j = 0; j < 40; ++j) {
        data_m.Acquire();
        ++counter;
        if ((j + i) % 8 == 0) {
          std::this_thread::sleep_for(60us);
        }
        data_m.Release();
        if (data_m.AcquireFor(j % 2 == 0 ? 0ns : 200us) ==
            WaitResult::kSatisfied) {
          ++counter;
          data_m.Release();
        }
      }
    }));
  }
  // Semaphore traffic: a ping-pong rendezvous, so both sides genuinely park
  // (a binary semaphore never accumulates credit — a producer that merely
  // races ahead leaves the consumer on the fast path forever). `sem` carries
  // forward hand-offs, `sem_back` the acknowledgements; the receiving side
  // retries PFor until satisfied, exercising the timed park/expiry path
  // without ever unbalancing the protocol.
  sem.P();       // both tokens start absent: the first P of each
  sem_back.P();  // direction must block until its partner's V
  threads.push_back(Thread::Fork([&] {
    for (int j = 0; j < 40; ++j) {
      sem.V();
      sem_back.P();
    }
  }));
  threads.push_back(Thread::Fork([&] {
    for (int j = 0; j < 40; ++j) {
      if (j % 3 == 0) {
        while (sem.PFor(200us) != WaitResult::kSatisfied) {
        }
      } else {
        sem.P();
      }
      sem_back.V();
    }
  }));
  // Condition traffic: waiters (plain and timed) against a broadcaster.
  for (int i = 0; i < 2; ++i) {
    threads.push_back(Thread::Fork([&] {
      for (int j = 0; j < 30; ++j) {
        m.Acquire();
        if (j % 2 == 0) {
          (void)c.WaitFor(m, 120us);
        } else if (!stop.load(std::memory_order_relaxed)) {
          (void)c.WaitFor(m, 2ms);
        }
        m.Release();
      }
    }));
  }
  threads.push_back(Thread::Fork([&] {
    for (int j = 0; j < 120 && !stop.load(std::memory_order_relaxed); ++j) {
      m.Acquire();
      m.Release();
      if (j % 4 == 0) {
        c.Broadcast();
      } else {
        c.Signal();
      }
      std::this_thread::sleep_for(30us);
    }
  }));
  // Rwlock traffic: overlapping readers (the reader-count CAS seam), a
  // writer whose exclusive release drains them, and the last reader out
  // waking the queued writer (the Dekker seam).
  ReaderWriterMutex rw;
  for (int i = 0; i < 2; ++i) {
    threads.push_back(Thread::Fork([&, i] {
      for (int j = 0; j < 30; ++j) {
        {
          ReadLock rl(rw);
          if ((j + i) % 8 == 0) {
            std::this_thread::sleep_for(40us);
          }
        }
        if (rw.AcquireSharedFor(j % 2 == 0 ? 0ns : 150us) ==
            WaitResult::kSatisfied) {
          rw.ReleaseShared();
        }
      }
    }));
  }
  threads.push_back(Thread::Fork([&] {
    for (int j = 0; j < 25; ++j) {
      {
        WriteLock wl(rw);
        if (j % 6 == 0) {
          std::this_thread::sleep_for(50us);
        }
      }
      if (rw.AcquireFor(150us) == WaitResult::kSatisfied) {
        rw.Release();
      }
    }
  }));
  // Raw spin-lock contention with the holder stretched across a sleep, so
  // the contended acquire path spins even on a single CPU.
  SpinLock raw;
  for (int i = 0; i < 2; ++i) {
    threads.push_back(Thread::Fork([&, i] {
      for (int j = 0; j < 40; ++j) {
        raw.Acquire();
        if ((j + i) % 4 == 0) {
          std::this_thread::sleep_for(30us);
        }
        raw.Release();
      }
    }));
  }
  // Multi-object wait traffic: a WaitAny poller over two auto events and a
  // bounded queue's readable edge, a plain Event waiter on one of them, and
  // a setter pulsing both — together they cross the poll register /
  // scan-to-park / notify / deregister seams and the event set-to-resume
  // window; the queue ping-pong crosses the msgq handoff window, and its
  // edges (empty -> non-empty, full -> not-full), with the poller
  // registered on readable(), cross the unlock-to-wake window. All waits
  // are timed, so the pass terminates whatever the injection does.
  Event ea(EventReset::kAuto);
  Event eb(EventReset::kAuto);
  MessageQueue<int> mq(2);
  threads.push_back(Thread::Fork([&] {
    Poll p;
    p.Add(ea);
    p.Add(eb);
    p.Add(mq.readable());
    for (int j = 0; j < 30; ++j) {
      const Poll::AnyResult r = p.WaitAnyFor(j % 3 == 0 ? 120us : 400us);
      if (r.result == WaitResult::kSatisfied && r.index == 2) {
        int v;
        (void)mq.TryRecv(&v);  // readable() is a hint; the setter may drain
      }
    }
  }));
  threads.push_back(Thread::Fork([&] {
    for (int j = 0; j < 30; ++j) {
      (void)ea.WaitFor(250us);
    }
  }));
  threads.push_back(Thread::Fork([&] {
    for (int j = 0; j < 45; ++j) {
      ea.Set();
      if (j % 2 == 0) {
        eb.Set();
      }
      (void)mq.SendFor(j, 100us);
      if (j % 3 == 0) {
        int v;
        (void)mq.RecvFor(&v, 100us);
      }
      std::this_thread::sleep_for(40us);
    }
  }));
  // Alert traffic: an alertable timed waiter and an AlertP waiter on a
  // semaphore a holder keeps taking across a sleep, both against one
  // alerter. Both alertable Blocks cross the alerted-check window.
  std::atomic<ThreadRecord*> waiter_rec{nullptr};
  std::atomic<ThreadRecord*> alertp_rec{nullptr};
  threads.push_back(Thread::Fork([&] {
    waiter_rec.store(Thread::Self().rec, std::memory_order_release);
    for (int j = 0; j < 30; ++j) {
      m.Acquire();
      (void)AlertWaitFor(m, c, 300us);
      m.Release();
      (void)TestAlert();  // drain so the next wait blocks again
    }
  }));
  Semaphore alert_sem;
  threads.push_back(Thread::Fork([&] {
    for (int j = 0; j < 30; ++j) {
      alert_sem.P();
      std::this_thread::sleep_for(60us);
      alert_sem.V();
      std::this_thread::sleep_for(20us);
    }
  }));
  threads.push_back(Thread::Fork([&] {
    alertp_rec.store(Thread::Self().rec, std::memory_order_release);
    for (int j = 0; j < 30; ++j) {
      try {
        AlertP(alert_sem);
        alert_sem.V();
      } catch (const Alerted&) {
      }
      (void)TestAlert();
    }
  }));
  threads.push_back(Thread::Fork([&] {
    ThreadRecord* rec = nullptr;
    ThreadRecord* p_rec = nullptr;
    while ((rec = waiter_rec.load(std::memory_order_acquire)) == nullptr ||
           (p_rec = alertp_rec.load(std::memory_order_acquire)) == nullptr) {
      std::this_thread::yield();
    }
    for (int j = 0; j < 30; ++j) {
      Alert(ThreadHandle::Of(rec));
      Alert(ThreadHandle::Of(p_rec));
      std::this_thread::sleep_for(80us);
    }
  }));

  for (Thread& t : threads) {
    t.Join();
  }
  stop.store(true, std::memory_order_release);
  snapshotter.join();
  obs::diag::SetEnabled(false);
}

TEST_F(ChaosRuntimeTest, FixedSeedMatrixCoversEveryPoint) {
  obs::ResetCoverage();
  // Uniform pressure, fixed seed, all points enabled — the acceptance
  // configuration. The workload runs in both lock modes, like the
  // conformance suite, so every subsystem's slow path is on the table.
  chaos::Configure(chaos::Config{.seed = 7,
                                 .strategy = chaos::Strategy::kUniform});
  ASSERT_TRUE(chaos::Active());
  int hit = 0;
  std::string missed;
  // The decision stream is seed-deterministic but the OS scheduler is not,
  // and a couple of windows (the rule-3 try-acquire retry especially) are
  // only crossed when a racing hold lands just so. One matrix pass crosses
  // everything almost always; top up with further passes, same seed and
  // accumulating coverage, rather than gate on one roll of the scheduler.
  for (int round = 0; round < 3 && hit < chaos::kNumPoints; ++round) {
    for (bool global : {false, true}) {
      Nub::Get().SetGlobalLockMode(global);
      MixedWorkloadPass();
    }
    Nub::Get().SetGlobalLockMode(false);
    hit = 0;
    missed.clear();
    std::set<std::string> rows;
    for (const obs::CoverageRow& row : obs::CoverageSnapshot()) {
      if (row.hits > 0) {
        rows.insert(row.name);
      }
    }
    for (int i = 0; i < chaos::kNumPoints; ++i) {
      const char* name = chaos::PointName(PointAt(i));
      if (rows.count(name) > 0) {
        ++hit;
      } else {
        missed += std::string(" ") + name;
      }
    }
    std::printf("chaos coverage, pass %d: %d/%d points hit;%s%s\n", round + 1,
                hit, chaos::kNumPoints,
                missed.empty() ? " none missed" : " missed:", missed.c_str());
  }
  chaos::Disable();
  // Every named window must have been crossed (hit) — new points go at the
  // end of the list and each addition must arrive with workload that reaches
  // it. Points that never fire under this seed are visible in the fires
  // column but only crossings gate.
  EXPECT_EQ(hit, chaos::kNumPoints) << "missed:" << missed;
}

// The pre-PR-4 WaitWithTimeout, verbatim except for the fix: on kAlerted it
// reports the predicate WITHOUT re-posting the consumed alert. A
// third-party Alert that lands while the wait is blocked is silently
// swallowed — the caller's next alertable wait never raises.
bool BuggyWaitWithTimeout(Mutex& m, Condition& c,
                          const std::function<bool()>& predicate,
                          std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!predicate()) {
    const auto remaining = deadline - std::chrono::steady_clock::now();
    switch (AlertWaitFor(
        m, c,
        std::chrono::duration_cast<std::chrono::nanoseconds>(remaining))) {
      case WaitResult::kSatisfied:
        break;
      case WaitResult::kTimeout:
        return predicate();
      case WaitResult::kAlerted:
        return predicate();  // BUG: consumed alert not re-posted
    }
  }
  return true;
}

// One trial: a waiter runs the buggy helper to its timeout while a third
// party Alerts it mid-wait. Returns true iff the alert was LOST — the wait
// consumed it (returned via the kAlerted arm) and TestAlert() afterwards
// came back false. alert_delay staggers where in the wait the Alert lands.
bool LostAlertTrial(std::chrono::microseconds alert_delay) {
  Mutex m;
  Condition c;
  std::atomic<ThreadRecord*> waiter_rec{nullptr};
  std::atomic<bool> lost{false};
  Thread waiter = Thread::Fork([&] {
    waiter_rec.store(Thread::Self().rec, std::memory_order_release);
    m.Acquire();
    (void)BuggyWaitWithTimeout(m, c, [] { return false; }, 2ms);
    // Contract: a third party's Alert posted during the wait must still be
    // pending here. With the bug, the kAlerted arm consumed it.
    const bool pending = TestAlert();
    m.Release();
    lost.store(!pending, std::memory_order_release);
  });
  ThreadRecord* rec;
  while ((rec = waiter_rec.load(std::memory_order_acquire)) == nullptr) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(alert_delay);
  Alert(ThreadHandle::Of(rec));
  waiter.Join();
  if (!lost.load(std::memory_order_acquire)) {
    // The Alert landed after the wait finished; it is still pending on the
    // (now dead) record — not a lost-alert trial. Try again.
    return false;
  }
  return true;
}

// Runs the scenario under one chaos seed; returns true if the sweep's
// default trial budget catches the swallowed alert.
bool SeedCatchesLostAlert(std::uint64_t seed) {
  chaos::Configure(chaos::Config{.seed = seed,
                                 .strategy = chaos::Strategy::kUniform});
  bool caught = false;
  for (int trial = 0; trial < 12 && !caught; ++trial) {
    caught = LostAlertTrial(std::chrono::microseconds(100 + 300 * trial));
  }
  chaos::Disable();
  return caught;
}

TEST_F(ChaosRuntimeTest, LostAlertBugIsCaughtAndReproducesFromSeed) {
  std::uint64_t found = 0;
  for (std::uint64_t seed = 1; seed <= 8 && found == 0; ++seed) {
    if (SeedCatchesLostAlert(seed)) {
      found = seed;
    }
  }
  ASSERT_NE(found, 0u) << "default sweep (seeds 1..8) missed the bug";
  std::printf(
      "lost alert caught: TAOS_CHAOS_SEED=%llu TAOS_CHAOS_STRATEGY=uniform "
      "TAOS_CHAOS_POINTS=%llx\n",
      static_cast<unsigned long long>(found),
      static_cast<unsigned long long>(chaos::FullPointMask()));
  // Replay: the printed seed must find the same window again.
  EXPECT_TRUE(SeedCatchesLostAlert(found))
      << "seed " << found << " did not reproduce";
}

TEST_F(ChaosRuntimeTest, BannerPrintsReplayTriple) {
  chaos::Configure(chaos::Config{.seed = 99,
                                 .strategy = chaos::Strategy::kPreemptAfterCas,
                                 .point_mask = 0xff});
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  chaos::PrintConfigBanner(f);
  std::rewind(f);
  char buf[512] = {0};
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  ASSERT_GT(n, 0u);
  const std::string banner(buf);
  EXPECT_NE(banner.find("TAOS_CHAOS_SEED=99"), std::string::npos) << banner;
  EXPECT_NE(banner.find("preempt-after-cas"), std::string::npos) << banner;
  EXPECT_NE(banner.find("ff"), std::string::npos) << banner;
}

TEST_F(ChaosRuntimeTest, CoverageTableReportsFires) {
  obs::ResetCoverage();
  chaos::Configure(chaos::Config{.seed = 3,
                                 .strategy = chaos::Strategy::kUniform});
  MixedWorkloadPass();
  chaos::Disable();
  std::uint64_t hits = 0;
  std::uint64_t fires = 0;
  for (const obs::CoverageRow& row : obs::CoverageSnapshot()) {
    hits += row.hits;
    fires += row.fires;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(fires, 0u);        // uniform fires ~4.7% of crossings
  EXPECT_LT(fires, hits);      // ... but nowhere near all of them
  // And the JSON export carries the table (obs dashboards key on it).
  const std::string json = obs::CoverageJson();
  EXPECT_NE(json.find("\"coverage\""), std::string::npos);
  EXPECT_NE(json.find("spin.acquired"), std::string::npos);
}

#endif  // TAOS_CHAOS_ENABLED

}  // namespace
}  // namespace taos
