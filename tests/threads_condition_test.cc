// Condition variables: Wait / Signal / Broadcast (Mesa "hint" semantics),
// the eventcount absorption behaviour, and the user-code fast paths.

#include "src/threads/threads.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"

namespace taos {
namespace {

TEST(ConditionTest, SignalWithNoWaitersAvoidsTheNub) {
  Condition c;
  const obs::Stats before = obs::Snapshot();
  for (int i = 0; i < 100; ++i) {
    c.Signal();
    c.Broadcast();
  }
  const obs::Stats after = obs::Snapshot();
  auto delta = [&](obs::Counter k) { return after.Count(k) - before.Count(k); };
  EXPECT_EQ(delta(obs::Counter::kFastSignal) +
                delta(obs::Counter::kFastBroadcast),
            200u);
  EXPECT_EQ(delta(obs::Counter::kNubSignal), 0u);
  EXPECT_EQ(after.NubEntries(), before.NubEntries());
}

TEST(ConditionTest, WaitSignalHandoff) {
  Mutex m;
  Condition c;
  bool ready = false;  // protected by m

  Thread waiter = Thread::Fork([&] {
    Lock lock(m);
    while (!ready) {
      c.Wait(m);
    }
  });

  {
    Lock lock(m);
    ready = true;
  }
  c.Signal();
  waiter.Join();
}

TEST(ConditionTest, PredicateMustBeRecheckd) {
  // Mesa semantics: a wakeup is only a hint. Two consumers race for one
  // item; the loser must Wait again, not crash on an empty queue.
  Mutex m;
  Condition c;
  int items = 0;  // protected by m
  std::atomic<int> consumed{0};
  std::atomic<bool> stop{false};

  std::vector<Thread> consumers;
  for (int i = 0; i < 2; ++i) {
    consumers.push_back(Thread::Fork([&] {
      Lock lock(m);
      for (;;) {
        while (items == 0 && !stop.load(std::memory_order_relaxed)) {
          c.Wait(m);
        }
        if (items > 0) {
          --items;
          consumed.fetch_add(1, std::memory_order_relaxed);
        } else {
          return;  // stop
        }
      }
    }));
  }

  constexpr int kItems = 500;
  for (int i = 0; i < kItems; ++i) {
    {
      Lock lock(m);
      ++items;
    }
    // Broadcast wakes both; only one finds the item.
    c.Broadcast();
  }
  // Drain, then stop.
  for (;;) {
    Lock lock(m);
    if (items == 0) {
      break;
    }
  }
  {
    Lock lock(m);
    stop.store(true, std::memory_order_relaxed);
  }
  c.Broadcast();
  for (Thread& t : consumers) {
    t.Join();
  }
  EXPECT_EQ(consumed.load(), kItems);
}

TEST(ConditionTest, BroadcastWakesAllWaiters) {
  Mutex m;
  Condition c;
  bool go = false;  // protected by m
  constexpr int kWaiters = 8;
  std::atomic<int> resumed{0};

  std::vector<Thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.push_back(Thread::Fork([&] {
      Lock lock(m);
      while (!go) {
        c.Wait(m);
      }
      resumed.fetch_add(1, std::memory_order_relaxed);
    }));
  }

  // Give the waiters time to actually block (not load-bearing, just makes
  // the broadcast path — rather than the window path — likely).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    Lock lock(m);
    go = true;
  }
  c.Broadcast();
  for (Thread& t : waiters) {
    t.Join();
  }
  EXPECT_EQ(resumed.load(), kWaiters);
}

TEST(ConditionTest, SignalWakesAtLeastOneOfMany) {
  Mutex m;
  Condition c;
  int tickets = 0;  // protected by m
  constexpr int kWaiters = 4;
  std::atomic<int> got{0};

  std::vector<Thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.push_back(Thread::Fork([&] {
      Lock lock(m);
      while (tickets == 0) {
        c.Wait(m);
      }
      --tickets;
      got.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // One ticket per signal; every waiter eventually gets one.
  for (int i = 0; i < kWaiters; ++i) {
    {
      Lock lock(m);
      ++tickets;
    }
    c.Signal();
  }
  for (Thread& t : waiters) {
    t.Join();
  }
  EXPECT_EQ(got.load(), kWaiters);
}

TEST(ConditionTest, StressProducerConsumerManyConditions) {
  // Several independent (mutex, condition, cell) triples hammered at once;
  // exercises the global Nub spin-lock under cross-object contention.
  constexpr int kPairs = 4;
  constexpr int kRounds = 2000;
  struct Cell {
    Mutex m;
    Condition c;
    int value = 0;  // 0 = empty
    std::uint64_t sum = 0;
  };
  std::vector<std::unique_ptr<Cell>> cells;
  for (int i = 0; i < kPairs; ++i) {
    cells.push_back(std::make_unique<Cell>());
  }

  std::vector<Thread> threads;
  for (int i = 0; i < kPairs; ++i) {
    Cell* cell = cells[static_cast<std::size_t>(i)].get();
    threads.push_back(Thread::Fork([cell] {  // producer
      for (int r = 1; r <= kRounds; ++r) {
        Lock lock(cell->m);
        while (cell->value != 0) {
          cell->c.Wait(cell->m);
        }
        cell->value = r;
        cell->c.Broadcast();
      }
    }));
    threads.push_back(Thread::Fork([cell] {  // consumer
      for (int r = 1; r <= kRounds; ++r) {
        Lock lock(cell->m);
        while (cell->value == 0) {
          cell->c.Wait(cell->m);
        }
        cell->sum += static_cast<std::uint64_t>(cell->value);
        cell->value = 0;
        cell->c.Broadcast();
      }
    }));
  }
  for (Thread& t : threads) {
    t.Join();
  }
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kRounds) * (kRounds + 1) / 2;
  for (const auto& cell : cells) {
    EXPECT_EQ(cell->sum, expected);
  }
}

TEST(ConditionTest, WaitReleasesTheMutexWhileBlocked) {
  Mutex m;
  Condition c;
  std::atomic<bool> observed_free{false};
  bool done = false;  // protected by m

  Thread waiter = Thread::Fork([&] {
    Lock lock(m);
    while (!done) {
      c.Wait(m);
    }
  });

  // Eventually the waiter blocks and we can take the mutex ourselves.
  for (int i = 0; i < 100000 && !observed_free.load(); ++i) {
    if (m.TryAcquire()) {
      observed_free.store(true);
      done = true;
      m.Release();
      c.Signal();
    } else {
      std::this_thread::yield();
    }
  }
  EXPECT_TRUE(observed_free.load());
  waiter.Join();
}

}  // namespace
}  // namespace taos
