// Substrate: spin-lock, eventcount, intrusive queue, PRNG, env switches.

#include <atomic>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/env.h"
#include "src/base/eventcount.h"
#include "src/base/intrusive_queue.h"
#include "src/base/spinlock.h"
#include "src/base/xorshift.h"

namespace taos {
namespace {

TEST(SpinLockTest, AcquireRelease) {
  SpinLock lock;
  EXPECT_FALSE(lock.IsHeld());
  lock.Acquire();
  EXPECT_TRUE(lock.IsHeld());
  lock.Release();
  EXPECT_FALSE(lock.IsHeld());
}

TEST(SpinLockTest, TryAcquire) {
  SpinLock lock;
  EXPECT_TRUE(lock.TryAcquire());
  EXPECT_FALSE(lock.TryAcquire());
  lock.Release();
  EXPECT_TRUE(lock.TryAcquire());
  lock.Release();
}

TEST(SpinLockTest, GuardIsExceptionSafe) {
  SpinLock lock;
  try {
    SpinGuard g(lock);
    EXPECT_TRUE(lock.IsHeld());
    throw 42;
  } catch (int) {
  }
  EXPECT_FALSE(lock.IsHeld());
}

TEST(SpinLockTest, MutualExclusionStress) {
  SpinLock lock;
  std::int64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        SpinGuard g(lock);
        ++counter;
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter, static_cast<std::int64_t>(kThreads) * kIters);
}

TEST(EventCountTest, MonotonicallyIncreasing) {
  EventCount ec;
  EXPECT_EQ(ec.Read(), 0u);
  EXPECT_EQ(ec.Advance(), 1u);
  EXPECT_EQ(ec.Advance(), 2u);
  EXPECT_EQ(ec.Read(), 2u);
}

TEST(EventCountTest, ConcurrentAdvancesAllCounted) {
  EventCount ec;
  constexpr int kThreads = 4;
  constexpr int kIters = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ec] {
      for (int i = 0; i < kIters; ++i) {
        ec.Advance();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(ec.Read(), static_cast<std::uint64_t>(kThreads) * kIters);
}

struct Item {
  QueueNode queue_node;
  int value = 0;
};

TEST(IntrusiveQueueTest, Fifo) {
  IntrusiveQueue<Item> q;
  Item a, b, c;
  a.value = 1;
  b.value = 2;
  c.value = 3;
  EXPECT_TRUE(q.Empty());
  q.PushBack(&a);
  q.PushBack(&b);
  q.PushBack(&c);
  EXPECT_EQ(q.Size(), 3u);
  EXPECT_EQ(q.PopFront()->value, 1);
  EXPECT_EQ(q.PopFront()->value, 2);
  EXPECT_EQ(q.PopFront()->value, 3);
  EXPECT_EQ(q.PopFront(), nullptr);
}

TEST(IntrusiveQueueTest, RemoveFromMiddle) {
  IntrusiveQueue<Item> q;
  Item a, b, c;
  a.value = 1;
  b.value = 2;
  c.value = 3;
  q.PushBack(&a);
  q.PushBack(&b);
  q.PushBack(&c);
  q.Remove(&b);
  EXPECT_EQ(q.Size(), 2u);
  EXPECT_FALSE(q.Contains(&b));
  EXPECT_TRUE(q.Contains(&a));
  EXPECT_EQ(q.PopFront()->value, 1);
  EXPECT_EQ(q.PopFront()->value, 3);
}

TEST(IntrusiveQueueTest, ReenqueueAfterPop) {
  IntrusiveQueue<Item> q;
  Item a;
  q.PushBack(&a);
  EXPECT_EQ(q.PopFront(), &a);
  q.PushBack(&a);  // node must be reusable
  EXPECT_EQ(q.PopFront(), &a);
  EXPECT_TRUE(q.Empty());
}

TEST(IntrusiveQueueTest, MoveBetweenQueues) {
  IntrusiveQueue<Item> q1;
  IntrusiveQueue<Item> q2;
  Item a;
  q1.PushBack(&a);
  q1.Remove(&a);
  q2.PushBack(&a);
  EXPECT_TRUE(q1.Empty());
  EXPECT_EQ(q2.PopFront(), &a);
}

TEST(IntrusiveQueueTest, ForEachVisitsInOrder) {
  IntrusiveQueue<Item> q;
  Item items[5];
  for (int i = 0; i < 5; ++i) {
    items[i].value = i;
    q.PushBack(&items[i]);
  }
  int expected = 0;
  q.ForEach([&expected](Item* it) { EXPECT_EQ(it->value, expected++); });
  EXPECT_EQ(expected, 5);
  while (q.PopFront() != nullptr) {
  }
}

TEST(XorShiftTest, DeterministicPerSeed) {
  XorShift a(123);
  XorShift b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  XorShift c(124);
  bool all_equal = true;
  XorShift a2(123);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) {
      all_equal = false;
    }
  }
  EXPECT_FALSE(all_equal);
}

TEST(XorShiftTest, BelowStaysInRange) {
  XorShift rng(7);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const std::uint32_t v = rng.Below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all residues hit
}

TEST(XorShiftTest, RangeInclusive) {
  XorShift rng(9);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.Range(5, 7);
    ASSERT_GE(v, 5u);
    ASSERT_LE(v, 7u);
  }
}

// The parse behind TAOS_NUB_GLOBAL_LOCK, shared by the Nub and the bench
// artifact's global_lock_mode stamp: only unset, empty and "0" are off.
TEST(EnvFlagTest, OnlyUnsetEmptyAndZeroAreOff) {
  constexpr const char* kName = "TAOS_BASE_TEST_ENV_FLAG";
  unsetenv(kName);
  EXPECT_FALSE(EnvFlag(kName)) << "unset";
  for (const char* off : {"", "0"}) {
    setenv(kName, off, /*overwrite=*/1);
    EXPECT_FALSE(EnvFlag(kName)) << '"' << off << '"';
  }
  for (const char* on : {"1", "true"}) {
    setenv(kName, on, /*overwrite=*/1);
    EXPECT_TRUE(EnvFlag(kName)) << '"' << on << '"';
  }
  unsetenv(kName);
}

}  // namespace
}  // namespace taos
