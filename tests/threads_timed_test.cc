// Timed waits: AcquireFor / PFor / WaitFor / AlertWaitFor, the self-timing
// deadline parks behind them, and the invariants the design promises — a
// grant always beats the deadline, a timeout never consumes a pending
// alert, no timed wait starts a thread, a granted timed wait leaves no
// stray permit behind, and an untimed wait never parks with a deadline.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/spec/trace.h"
#include "src/threads/threads.h"
#include "src/threads/wait_result.h"
#include "src/workload/timeout.h"
#include "tests/await_blocked.h"

namespace taos {
namespace {

using namespace std::chrono_literals;

std::uint64_t Delta(const obs::Stats& before, const obs::Stats& after,
                    obs::Counter c) {
  return after.Count(c) - before.Count(c);
}

int CountOsThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      std::istringstream is(line.substr(8));
      int n = 0;
      is >> n;
      return n;
    }
  }
  return -1;
}

// Defined first so that, in a whole-binary run, its first timed wait is the
// process's first. Every timed waiter is its own timer, so neither that
// wait nor any later one starts a thread (the watchdog design of
// WaitWithTimeout spawned one per call; a timer thread would start on the
// first).
TEST(DeadlineTest, WaitWithTimeoutCreatesNoThreadsPerCall) {
  Mutex m;
  Condition c;
  const int before = CountOsThreads();
  ASSERT_GT(before, 0);
  m.Acquire();
  EXPECT_FALSE(workload::WaitWithTimeout(m, c, [] { return false; }, 2ms));
  m.Release();
  EXPECT_EQ(CountOsThreads(), before) << "the first timed wait started one";
  for (int i = 0; i < 20; ++i) {
    m.Acquire();
    EXPECT_FALSE(workload::WaitWithTimeout(m, c, [] { return false; }, 2ms));
    m.Release();
  }
  EXPECT_EQ(CountOsThreads(), before);
}

// ---------------------------------------------------------------------------
// Mutex::AcquireFor
// ---------------------------------------------------------------------------

TEST(TimedMutexTest, AcquireForUncontendedSatisfies) {
  Mutex m;
  EXPECT_EQ(m.AcquireFor(10ms), WaitResult::kSatisfied);
  m.Release();
}

TEST(TimedMutexTest, AcquireForTimesOutWhileHeld) {
  Mutex m;
  m.Acquire();
  std::atomic<int> result{-1};
  Thread t = Thread::Fork([&] {
    result.store(static_cast<int>(m.AcquireFor(5ms)));
  });
  t.Join();
  EXPECT_EQ(result.load(), static_cast<int>(WaitResult::kTimeout));
  // The mutex postcondition is unchanged: still ours to release.
  m.Release();
  m.Acquire();
  m.Release();
}

TEST(TimedMutexTest, ZeroTimeoutIsTryAcquire) {
  Mutex m;
  // Free: a zero deadline still takes the fast-path grant.
  EXPECT_EQ(m.AcquireFor(0ns), WaitResult::kSatisfied);
  // Held: immediate timeout, no blocking, for zero and negative alike.
  Thread t = Thread::Fork([&] {
    EXPECT_EQ(m.AcquireFor(0ns), WaitResult::kTimeout);
    EXPECT_EQ(m.AcquireFor(-5ms), WaitResult::kTimeout);
  });
  t.Join();
  m.Release();
}

TEST(TimedMutexTest, ReleaseBeforeDeadlineGrants) {
  Mutex m;
  m.Acquire();
  std::atomic<int> result{-1};
  Thread t = Thread::Fork([&] {
    result.store(static_cast<int>(m.AcquireFor(10s)));
    m.Release();
  });
  std::this_thread::sleep_for(20ms);
  m.Release();
  t.Join();
  EXPECT_EQ(result.load(), static_cast<int>(WaitResult::kSatisfied));
}

// ---------------------------------------------------------------------------
// Semaphore::PFor
// ---------------------------------------------------------------------------

TEST(TimedSemaphoreTest, PForAvailableSatisfies) {
  Semaphore s;
  EXPECT_EQ(s.PFor(10ms), WaitResult::kSatisfied);
  EXPECT_FALSE(s.AvailableForDebug());
  s.V();
}

TEST(TimedSemaphoreTest, PForTimesOutWhenUnavailable) {
  Semaphore s;
  s.P();
  Thread t = Thread::Fork([&] {
    EXPECT_EQ(s.PFor(5ms), WaitResult::kTimeout);
    EXPECT_EQ(s.PFor(0ns), WaitResult::kTimeout);
  });
  t.Join();
  // UNCHANGED [s]: the failed PFor took nothing.
  EXPECT_FALSE(s.AvailableForDebug());
  s.V();
}

TEST(TimedSemaphoreTest, VBeforeDeadlineGrants) {
  Semaphore s;
  s.P();
  std::atomic<int> result{-1};
  Thread t = Thread::Fork([&] {
    result.store(static_cast<int>(s.PFor(10s)));
  });
  std::this_thread::sleep_for(20ms);
  s.V();
  t.Join();
  EXPECT_EQ(result.load(), static_cast<int>(WaitResult::kSatisfied));
  s.V();
}

// ---------------------------------------------------------------------------
// Condition::WaitFor
// ---------------------------------------------------------------------------

TEST(TimedConditionTest, WaitForTimesOutWithMutexReacquired) {
  Mutex m;
  Condition c;
  Thread t = Thread::Fork([&] {
    m.Acquire();
    EXPECT_EQ(c.WaitFor(m, 5ms), WaitResult::kTimeout);
    // kTimeout hands the mutex back (the spec's TimeoutResume): this
    // Release must be legal.
    m.Release();
  });
  t.Join();
}

TEST(TimedConditionTest, SignalBeforeDeadlineSatisfies) {
  Mutex m;
  Condition c;
  bool flag = false;
  std::atomic<int> result{-1};
  Thread t = Thread::Fork([&] {
    m.Acquire();
    while (!flag) {
      WaitResult r = c.WaitFor(m, 10s);
      result.store(static_cast<int>(r));
      if (r == WaitResult::kTimeout) {
        break;
      }
    }
    m.Release();
  });
  std::this_thread::sleep_for(10ms);
  m.Acquire();
  flag = true;
  m.Release();
  c.Signal();
  t.Join();
  EXPECT_EQ(result.load(), static_cast<int>(WaitResult::kSatisfied));
}

TEST(TimedConditionTest, ZeroTimeoutKeepsMutexAndNeverSleeps) {
  Mutex m;
  Condition c;
  Thread t = Thread::Fork([&] {
    m.Acquire();
    EXPECT_EQ(c.WaitFor(m, 0ns), WaitResult::kTimeout);
    EXPECT_EQ(c.WaitFor(m, -1h), WaitResult::kTimeout);
    m.Release();
  });
  t.Join();
}

// ---------------------------------------------------------------------------
// AlertWaitFor
// ---------------------------------------------------------------------------

TEST(TimedAlertTest, AlertEndsWaitAsValueAndConsumesFlag) {
  Mutex m;
  Condition c;
  std::atomic<int> result{-1};
  std::atomic<bool> still_alerted{true};
  Thread t = Thread::Fork([&] {
    m.Acquire();
    result.store(static_cast<int>(AlertWaitFor(m, c, 10s)));
    m.Release();
    still_alerted.store(TestAlert());
  });
  std::this_thread::sleep_for(20ms);
  Alert(t.Handle());
  t.Join();
  EXPECT_EQ(result.load(), static_cast<int>(WaitResult::kAlerted));
  // kAlerted consumed the flag (no Alerted raised): nothing left pending.
  EXPECT_FALSE(still_alerted.load());
}

TEST(TimedAlertTest, TimeoutDoesNotConsumeAlertPostedAfter) {
  Mutex m;
  Condition c;
  Thread t = Thread::Fork([&] {
    m.Acquire();
    EXPECT_EQ(AlertWaitFor(m, c, 5ms), WaitResult::kTimeout);
    m.Release();
    // An alert posted once we were already out of the queue stays
    // deliverable at the next alert-responsive point.
    while (!TestAlert()) {
      std::this_thread::yield();
    }
  });
  std::this_thread::sleep_for(30ms);
  Alert(t.Handle());
  t.Join();
}

TEST(TimedAlertTest, SignalBeforeDeadlineSatisfies) {
  Mutex m;
  Condition c;
  std::atomic<int> result{-1};
  std::atomic<bool> entered{false};
  Thread t = Thread::Fork([&] {
    m.Acquire();
    entered.store(true);
    result.store(static_cast<int>(AlertWaitFor(m, c, 10s)));
    m.Release();
  });
  while (!entered.load()) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(10ms);
  c.Broadcast();
  t.Join();
  EXPECT_EQ(result.load(), static_cast<int>(WaitResult::kSatisfied));
}

// ---------------------------------------------------------------------------
// Deadline contracts
// ---------------------------------------------------------------------------

TEST(TimedAlertTest, ZeroAndNegativeTimeoutsKeepMutexAndNeverSleep) {
  Mutex m;
  Condition c;
  const obs::Stats before = obs::Snapshot();
  Thread t = Thread::Fork([&] {
    m.Acquire();
    EXPECT_EQ(AlertWaitFor(m, c, 0ns), WaitResult::kTimeout);
    EXPECT_EQ(AlertWaitFor(m, c, -1h), WaitResult::kTimeout);
    // The mutex is still held across both: this Release must be legal.
    m.Release();
  });
  t.Join();
  EXPECT_EQ(Delta(before, obs::Snapshot(), obs::Counter::kTimersArmed), 0u);
}

// A positive-but-tiny timeout whose deadline is already behind NowNanos
// when the waiter parks: the park returns at once, and the waiter still
// dequeues itself and reports kTimeout, taking nothing.
TEST(DeadlineTest, DeadlinePastAtEnqueueStillTimesOut) {
  Semaphore s;
  s.P();
  for (int i = 0; i < 10; ++i) {
    Thread t = Thread::Fork([&] {
      // 1ns is in the past before the slow path even publishes the blocked
      // state; the waiter must still leave the queue cleanly.
      EXPECT_EQ(s.PFor(1ns), WaitResult::kTimeout);
    });
    t.Join();
  }
  EXPECT_FALSE(s.AvailableForDebug());
  s.V();
}

// Two waiters with the same timeout from near-identical starts: each parks
// on its own deadline and dequeues itself, so neither expiry can be lost
// to the other's.
TEST(DeadlineTest, TwoWaitersWithTheSameDeadlineBothTimeOut) {
  Semaphore s;
  s.P();
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> timeouts{0};
    std::atomic<int> ready{0};
    std::vector<Thread> waiters;
    for (int i = 0; i < 2; ++i) {
      waiters.push_back(Thread::Fork([&] {
        ready.fetch_add(1, std::memory_order_relaxed);
        while (ready.load(std::memory_order_relaxed) < 2) {
          std::this_thread::yield();
        }
        if (s.PFor(5ms) == WaitResult::kTimeout) {
          timeouts.fetch_add(1, std::memory_order_relaxed);
        }
      }));
    }
    for (Thread& t : waiters) {
      t.Join();
    }
    EXPECT_EQ(timeouts.load(), 2) << "round " << round;
  }
  s.V();
}

// Grant every timed wait before its (generous) deadline: each deadline park
// ends by the grant (armed == cancelled), and none leaves a permit behind.
// A stray permit would end the same thread's next park at once while it
// still sits on the queue, so a following PFor(1ms) on the unavailable
// semaphore must still park its full millisecond and time out.
TEST(DeadlineTest, GrantedTimedWaitsLeaveNoStrayPermit) {
  Semaphore s;
  s.P();
  constexpr int kGrants = 100;
  std::atomic<int> granted{0};
  obs::Stats before;
  obs::Stats after_grants;
  before = obs::Snapshot();
  Thread waiter = Thread::Fork([&] {
    for (int i = 0; i < kGrants; ++i) {
      EXPECT_EQ(s.PFor(10s), WaitResult::kSatisfied);
      granted.fetch_add(1, std::memory_order_release);
    }
    after_grants = obs::Snapshot();
    const std::uint64_t start = obs::NowNanos();
    EXPECT_EQ(s.PFor(1ms), WaitResult::kTimeout);
    EXPECT_GE(obs::NowNanos() - start, 1'000'000u);
  });
  for (int i = 0; i < kGrants; ++i) {
    // One token at a time, each V after the previous grant was taken;
    // the pause lets the waiter park first most rounds.
    while (granted.load(std::memory_order_acquire) < i) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(100us);
    s.V();
  }
  waiter.Join();
  EXPECT_EQ(Delta(before, after_grants, obs::Counter::kTimersArmed),
            Delta(before, after_grants, obs::Counter::kTimersCancelled));
  EXPECT_EQ(Delta(before, after_grants, obs::Counter::kTimersExpired), 0u);
  EXPECT_FALSE(s.AvailableForDebug());
  s.V();
}

// Expiry-vs-grant: hammer a semaphore with short timed waits while tokens
// circulate. Accounting must balance exactly — a waiter that reported
// kTimeout took nothing, a waiter that reported kSatisfied took exactly one
// token — regardless of how the deadline races the V.
TEST(DeadlineTest, ExpiryVsGrantNeverLosesTheGrant) {
  Semaphore s;
  s.P();  // start with the token held here
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 200;
  std::atomic<int> satisfied{0};
  std::vector<Thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.push_back(Thread::Fork([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        // Mixed deadlines, from zero to 300 us, to land on both sides of
        // the race.
        const auto timeout = std::chrono::microseconds(50 * ((t + i) % 7));
        if (s.PFor(timeout) == WaitResult::kSatisfied) {
          satisfied.fetch_add(1, std::memory_order_relaxed);
          s.V();  // put the token back for someone else
        }
      }
    }));
  }
  s.V();  // release the token into the scrum
  for (Thread& t : threads) {
    t.Join();
  }
  // The token must still exist: exactly one P can succeed immediately.
  EXPECT_EQ(s.PFor(0ns), WaitResult::kSatisfied);
  EXPECT_EQ(s.PFor(0ns), WaitResult::kTimeout);
  s.V();
}

// Same shape on a condition variable: signals and deadlines race, and every
// exit leaves the mutex consistently re-held.
TEST(DeadlineTest, WaitForSignalRaceStress) {
  Mutex m;
  Condition c;
  std::atomic<bool> stop{false};
  int guarded = 0;  // only ever touched under m
  constexpr int kWaiters = 4;
  std::vector<Thread> waiters;
  waiters.reserve(kWaiters);
  for (int t = 0; t < kWaiters; ++t) {
    waiters.push_back(Thread::Fork([&] {
      for (int i = 0; i < 300; ++i) {
        m.Acquire();
        c.WaitFor(m, std::chrono::microseconds(100));
        ++guarded;  // legal on every result: m is held again
        m.Release();
      }
    }));
  }
  Thread signaller = Thread::Fork([&] {
    while (!stop.load(std::memory_order_acquire)) {
      c.Broadcast();
      std::this_thread::yield();
    }
  });
  for (Thread& t : waiters) {
    t.Join();
  }
  stop.store(true, std::memory_order_release);
  signaller.Join();
  m.Acquire();
  EXPECT_EQ(guarded, kWaiters * 300);
  m.Release();
}

// ---------------------------------------------------------------------------
// Untimed waits run the same slow paths with no deadline: they never park
// with one, in plain or traced mode.
// ---------------------------------------------------------------------------

class UntimedWaitTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    ASSERT_FALSE(Nub::Get().tracing());
    if (GetParam()) {
      Nub::Get().SetTrace(&trace_);
    }
  }
  void TearDown() override { Nub::Get().SetTrace(nullptr); }

  // Forks a thread that runs `block`, waits until it is blocked in it, runs
  // `grant` to release it, and joins it — checking that no park took a
  // deadline while it was parked or over the whole episode.
  void ExpectNoTimerArmed(const std::function<void()>& block,
                          const std::function<void()>& grant) {
    const std::uint64_t armed_before =
        obs::Snapshot().Count(obs::Counter::kTimersArmed);
    Thread t = Thread::Fork(block);
    AwaitBlocked(t);
    EXPECT_EQ(obs::Snapshot().Count(obs::Counter::kTimersArmed),
              armed_before);
    grant();
    t.Join();
    EXPECT_EQ(obs::Snapshot().Count(obs::Counter::kTimersArmed),
              armed_before);
  }

  spec::Trace trace_;
};

TEST_P(UntimedWaitTest, MutexAcquire) {
  Mutex m;
  m.Acquire();
  ExpectNoTimerArmed(
      [&] {
        m.Acquire();
        m.Release();
      },
      [&] { m.Release(); });
}

TEST_P(UntimedWaitTest, ReaderWriterMutexAcquire) {
  ReaderWriterMutex rw;
  rw.AcquireShared();
  ExpectNoTimerArmed(
      [&] {
        rw.Acquire();
        rw.Release();
      },
      [&] { rw.ReleaseShared(); });
}

TEST_P(UntimedWaitTest, ReaderWriterMutexAcquireShared) {
  ReaderWriterMutex rw;
  rw.Acquire();
  ExpectNoTimerArmed(
      [&] {
        rw.AcquireShared();
        rw.ReleaseShared();
      },
      [&] { rw.Release(); });
}

TEST_P(UntimedWaitTest, SemaphoreP) {
  Semaphore s;
  s.P();
  ExpectNoTimerArmed([&] { s.P(); }, [&] { s.V(); });
  s.V();
}

TEST_P(UntimedWaitTest, AlertP) {
  Semaphore s;
  s.P();
  ExpectNoTimerArmed([&] { taos::AlertP(s); }, [&] { s.V(); });
  s.V();
}

TEST_P(UntimedWaitTest, ConditionWait) {
  Mutex m;
  Condition c;
  bool ready = false;  // guarded by m
  ExpectNoTimerArmed(
      [&] {
        m.Acquire();
        while (!ready) {
          c.Wait(m);
        }
        m.Release();
      },
      [&] {
        m.Acquire();
        ready = true;
        c.Signal();
        m.Release();
      });
}

TEST_P(UntimedWaitTest, AlertWait) {
  Mutex m;
  Condition c;
  bool ready = false;  // guarded by m
  ExpectNoTimerArmed(
      [&] {
        m.Acquire();
        while (!ready) {
          taos::AlertWait(m, c);
        }
        m.Release();
      },
      [&] {
        m.Acquire();
        ready = true;
        c.Signal();
        m.Release();
      });
}

TEST_P(UntimedWaitTest, EventWait) {
  Event e;
  ExpectNoTimerArmed([&] { e.Wait(); }, [&] { e.Set(); });
}

TEST_P(UntimedWaitTest, PollWaitAny) {
  Event a;
  Event b;
  Poll p;
  p.Add(a);
  p.Add(b);
  ExpectNoTimerArmed([&] { EXPECT_EQ(p.WaitAny(), 1u); },
                     [&] { b.Set(); });
}

TEST_P(UntimedWaitTest, PollWaitAll) {
  Event a;
  Event b;
  Poll p;
  p.Add(a);
  p.Add(b);
  ExpectNoTimerArmed([&] { p.WaitAll(); },
                     [&] {
                       a.Set();
                       b.Set();
                     });
}

std::string TraceModeName(const ::testing::TestParamInfo<bool>& param) {
  return param.param ? "Traced" : "Plain";
}

INSTANTIATE_TEST_SUITE_P(Modes, UntimedWaitTest, ::testing::Bool(),
                         TraceModeName);

}  // namespace
}  // namespace taos
