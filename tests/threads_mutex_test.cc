// Mutex: Acquire / Release semantics, fast-path accounting, contention
// safety, and barging behaviour.

#include "src/threads/threads.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "tests/await_blocked.h"

namespace taos {
namespace {

TEST(MutexTest, AcquireReleaseSingleThread) {
  Mutex m;
  m.Acquire();
  EXPECT_EQ(m.HolderForDebug(), Thread::Self().id());
  m.Release();
  EXPECT_EQ(m.HolderForDebug(), spec::kNil);
}

// Events of kind `c` counted by the obs cells between two snapshots.
std::uint64_t Delta(const obs::Stats& before, const obs::Stats& after,
                    obs::Counter c) {
  return after.Count(c) - before.Count(c);
}

TEST(MutexTest, UncontendedPairStaysOnFastPath) {
  Mutex m;
  const obs::Stats before = obs::Snapshot();
  for (int i = 0; i < 1000; ++i) {
    m.Acquire();
    m.Release();
  }
  const obs::Stats after = obs::Snapshot();
  EXPECT_EQ(Delta(before, after, obs::Counter::kFastMutexAcquire), 1000u);
  EXPECT_EQ(Delta(before, after, obs::Counter::kNubAcquire), 0u);
  // E1: with no contention, neither Acquire nor Release enters the Nub.
  EXPECT_EQ(after.NubEntries(), before.NubEntries());
}

// The obs cells are the only fast-path counters, so they must lose no event
// under concurrency: four threads each run uncontended pairs on a private
// mutex and take one shared ReaderWriterMutex in shared mode (readers never
// exclude readers, so every acquisition stays on its fast path). After the
// join the fast-acquire total is exact.
TEST(MutexTest, FastAcquireCountIsExactAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 20000;
  ReaderWriterMutex shared;
  const obs::Stats before = obs::Snapshot();
  std::vector<Thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.push_back(Thread::Fork([&] {
      Mutex mine;
      for (int i = 0; i < kRounds; ++i) {
        mine.Acquire();
        mine.Release();
        shared.AcquireShared();
        shared.ReleaseShared();
      }
    }));
  }
  for (Thread& t : threads) {
    t.Join();
  }
  const obs::Stats after = obs::Snapshot();
  constexpr std::uint64_t kAcquires = 2u * kThreads * kRounds;
  EXPECT_EQ(Delta(before, after, obs::Counter::kFastMutexAcquire), kAcquires);
  EXPECT_EQ(Delta(before, after, obs::Counter::kFastMutexRelease), kAcquires);
  EXPECT_EQ(after.NubEntries(), before.NubEntries());
}

TEST(MutexTest, TryAcquire) {
  Mutex m;
  EXPECT_TRUE(m.TryAcquire());
  EXPECT_FALSE(m.TryAcquire());
  m.Release();
  EXPECT_TRUE(m.TryAcquire());
  m.Release();
}

TEST(MutexTest, LockGuardReleasesOnException) {
  Mutex m;
  try {
    Lock lock(m);
    EXPECT_EQ(m.HolderForDebug(), Thread::Self().id());
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(m.HolderForDebug(), spec::kNil);
  EXPECT_TRUE(m.TryAcquire());
  m.Release();
}

TEST(MutexTest, MutualExclusionUnderContention) {
  Mutex m;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::int64_t counter = 0;  // protected by m
  std::atomic<int> in_cs{0};
  std::atomic<bool> overlap{false};

  std::vector<Thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.push_back(Thread::Fork([&] {
      for (int i = 0; i < kIters; ++i) {
        Lock lock(m);
        if (in_cs.fetch_add(1, std::memory_order_relaxed) != 0) {
          overlap.store(true, std::memory_order_relaxed);
        }
        ++counter;
        in_cs.fetch_sub(1, std::memory_order_relaxed);
      }
    }));
  }
  for (Thread& t : threads) {
    t.Join();
  }
  EXPECT_FALSE(overlap.load());
  EXPECT_EQ(counter, static_cast<std::int64_t>(kThreads) * kIters);
}

TEST(MutexTest, HandoffBetweenTwoThreads) {
  Mutex m;
  int turns = 0;  // protected by m
  m.Acquire();
  Thread peer = Thread::Fork([&] {
    m.Acquire();
    ++turns;
    m.Release();
  });
  // The peer is (eventually) blocked in the Nub; our Release must unblock it.
  ++turns;
  m.Release();
  peer.Join();
  m.Acquire();
  EXPECT_EQ(turns, 2);
  m.Release();
}

TEST(MutexTest, ManyMutexesIndependent) {
  constexpr int kMutexes = 64;
  std::vector<std::unique_ptr<Mutex>> mutexes;
  for (int i = 0; i < kMutexes; ++i) {
    mutexes.push_back(std::make_unique<Mutex>());
  }
  // Distinct ObjIds (the spec names objects individually).
  for (int i = 0; i < kMutexes; ++i) {
    for (int j = i + 1; j < kMutexes; ++j) {
      EXPECT_NE(mutexes[i]->id(), mutexes[j]->id());
    }
  }
  for (auto& m : mutexes) {
    m->Acquire();
  }
  for (auto& m : mutexes) {
    m->Release();
  }
}

// Parameterized contention sweep: exclusion holds for any thread count.
class MutexContentionSweep : public ::testing::TestWithParam<int> {};

TEST_P(MutexContentionSweep, CounterExact) {
  const int threads = GetParam();
  constexpr int kIters = 500;
  Mutex m;
  std::int64_t counter = 0;
  std::vector<Thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.push_back(Thread::Fork([&] {
      for (int i = 0; i < kIters; ++i) {
        Lock lock(m);
        ++counter;
      }
    }));
  }
  for (Thread& w : workers) {
    w.Join();
  }
  EXPECT_EQ(counter, static_cast<std::int64_t>(threads) * kIters);
}

// N waiters queued on one mutex in a known arrival order (waiter i forks
// only after waiter i-1 has parked); one Release starts a chain of handoffs
// that must grant every waiter exactly once. The order is not asserted:
// Report 20's Mutex promises no fairness, and barging is legal.
TEST(MutexTest, HandoffChainGrantsEveryQueuedWaiter) {
  constexpr int kWaiters = 8;
  Mutex m;
  std::vector<int> grant_order;  // guarded by m

  m.Acquire();
  std::vector<Thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.push_back(Thread::Fork([&m, &grant_order, i] {
      m.Acquire();
      grant_order.push_back(i);
      m.Release();
    }));
    AwaitBlocked(waiters.back());
  }

  m.Release();
  for (Thread& t : waiters) {
    t.Join();
  }

  ASSERT_EQ(grant_order.size(), static_cast<std::size_t>(kWaiters));
  std::sort(grant_order.begin(), grant_order.end());
  for (int i = 0; i < kWaiters; ++i) {
    EXPECT_EQ(grant_order[i], i);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, MutexContentionSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

}  // namespace
}  // namespace taos
