// Semaphores: P / V, the identical-mechanism claim, interrupt-style use.

#include "src/threads/threads.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "tests/await_blocked.h"

namespace taos {
namespace {

TEST(SemaphoreTest, InitiallyAvailable) {
  Semaphore s;
  EXPECT_TRUE(s.AvailableForDebug());
  s.P();  // must not block
  EXPECT_FALSE(s.AvailableForDebug());
  s.V();
  EXPECT_TRUE(s.AvailableForDebug());
}

TEST(SemaphoreTest, TryP) {
  Semaphore s;
  EXPECT_TRUE(s.TryP());
  EXPECT_FALSE(s.TryP());
  s.V();
  EXPECT_TRUE(s.TryP());
  s.V();
}

TEST(SemaphoreTest, VIsIdempotentOnAvailable) {
  // V has no precondition and ENSURES spost = available; repeated Vs do not
  // accumulate tokens (binary, not counting).
  Semaphore s;
  s.V();
  s.V();
  s.V();
  s.P();  // consumes the single "available"
  EXPECT_FALSE(s.AvailableForDebug());
  s.V();
}

TEST(SemaphoreTest, UncontendedPVStaysOnFastPath) {
  Semaphore s;
  const obs::Stats before = obs::Snapshot();
  for (int i = 0; i < 1000; ++i) {
    s.P();
    s.V();
  }
  const obs::Stats after = obs::Snapshot();
  EXPECT_EQ(after.Count(obs::Counter::kFastSemP) -
                before.Count(obs::Counter::kFastSemP),
            1000u);
  EXPECT_EQ(after.Count(obs::Counter::kNubP),
            before.Count(obs::Counter::kNubP));
  EXPECT_EQ(after.NubEntries(), before.NubEntries());
}

TEST(SemaphoreTest, PBlocksUntilV) {
  Semaphore s;
  s.P();  // take the token
  std::atomic<bool> resumed{false};
  Thread waiter = Thread::Fork([&] {
    s.P();
    resumed.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(resumed.load(std::memory_order_acquire));
  s.V();
  waiter.Join();
  EXPECT_TRUE(resumed.load(std::memory_order_acquire));
  s.V();
}

TEST(SemaphoreTest, InterruptStyleHandoff) {
  // "A thread waits for an interrupt routine action by calling P(sem), and
  //  the interrupt routine unblocks it by calling V(sem)." The V-side holds
  // no mutex and no P/V textual pairing exists.
  Semaphore sem;
  sem.P();  // arm: next P waits for the "interrupt"
  std::atomic<int> data{0};
  std::atomic<int> observed{-1};

  Thread driver = Thread::Fork([&] {
    sem.P();
    observed.store(data.load(std::memory_order_acquire),
                   std::memory_order_relaxed);
  });
  Thread interrupt = Thread::Fork([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    data.store(42, std::memory_order_release);
    sem.V();
  });
  driver.Join();
  interrupt.Join();
  EXPECT_EQ(observed.load(), 42);
  sem.V();
}

TEST(SemaphoreTest, MutualExclusionWhenUsedAsALock) {
  // "The implementation of semaphores is identical to mutexes" — P/V can
  // bracket a critical section (though the interface discourages it).
  Semaphore s;
  constexpr int kThreads = 6;
  constexpr int kIters = 1500;
  std::int64_t counter = 0;  // protected by s

  std::vector<Thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.push_back(Thread::Fork([&] {
      for (int i = 0; i < kIters; ++i) {
        s.P();
        ++counter;
        s.V();
      }
    }));
  }
  for (Thread& t : threads) {
    t.Join();
  }
  EXPECT_EQ(counter, static_cast<std::int64_t>(kThreads) * kIters);
}

// Both wait shapes on one queue: a timed PFor waiter times out while an
// AlertP waiter is queued ahead of it on the same semaphore, and V then
// grants the AlertP waiter. The expiry's self-dequeue must leave the queue
// (and its length mirror, which V's user code reads) naming exactly the
// AlertP waiter. If V fails to wake it, an Alert ends the wait so the
// failure reports instead of hanging.
TEST(SemaphoreTest, TimedPForExpiresBesideAQueuedAlertPThatVGrants) {
  Semaphore s;
  s.P();
  std::atomic<bool> granted{false};
  Thread alertp = Thread::Fork([&] {
    try {
      AlertP(s);
      granted.store(true, std::memory_order_release);
    } catch (const Alerted&) {
    }
  });
  // Wait until the AlertP waiter is queued on s.
  AwaitBlocked(alertp);
  const obs::Stats before = obs::Snapshot();
  Thread timed = Thread::Fork([&] {
    EXPECT_EQ(s.PFor(std::chrono::milliseconds(20)), WaitResult::kTimeout);
  });
  timed.Join();
  const obs::Stats after = obs::Snapshot();
  EXPECT_EQ(after.Count(obs::Counter::kTimersExpired) -
                before.Count(obs::Counter::kTimersExpired),
            1u)
      << "the PFor waiter did not queue and dequeue itself";
  EXPECT_FALSE(granted.load(std::memory_order_acquire));

  s.V();
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!granted.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(granted.load(std::memory_order_acquire))
      << "V did not grant the queued AlertP waiter";
  if (!granted.load(std::memory_order_acquire)) {
    Alert(alertp.Handle());
  }
  alertp.Join();
  EXPECT_FALSE(s.AvailableForDebug());  // taken by the AlertP waiter
  s.V();
}

// Ping-pong chain: K stages, each a semaphore handoff; validates queuing
// and wakeup ordering under repeated block/unblock.
class SemaphoreChain : public ::testing::TestWithParam<int> {};

TEST_P(SemaphoreChain, TokenTraversesAllStages) {
  const int stages = GetParam();
  constexpr int kRounds = 200;
  std::vector<std::unique_ptr<Semaphore>> sems;
  for (int i = 0; i <= stages; ++i) {
    auto s = std::make_unique<Semaphore>();
    s->P();  // all stages start armed
    sems.push_back(std::move(s));
  }

  std::vector<Thread> threads;
  std::atomic<int> hops{0};
  for (int i = 0; i < stages; ++i) {
    Semaphore* in = sems[static_cast<std::size_t>(i)].get();
    Semaphore* out = sems[static_cast<std::size_t>(i) + 1].get();
    threads.push_back(Thread::Fork([in, out, &hops] {
      for (int r = 0; r < kRounds; ++r) {
        in->P();
        hops.fetch_add(1, std::memory_order_relaxed);
        out->V();
      }
    }));
  }
  for (int r = 0; r < kRounds; ++r) {
    sems.front()->V();           // inject the token
    sems.back()->P();            // wait for it to come out
  }
  for (Thread& t : threads) {
    t.Join();
  }
  EXPECT_EQ(hops.load(), stages * kRounds);
}

INSTANTIATE_TEST_SUITE_P(Threads, SemaphoreChain,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace taos
