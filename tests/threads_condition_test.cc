// Condition variables: Wait / Signal / Broadcast (Mesa "hint" semantics),
// the eventcount absorption behaviour, and the user-code fast paths.

#include "src/threads/threads.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "tests/await_blocked.h"

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

// --- A Signal made under the waiter's mutex: the wake waits for the release

std::uint64_t Delta(const obs::Stats& before, const obs::Stats& after,
                    obs::Counter c) {
  return after.Count(c) - before.Count(c);
}

// Resume's WHEN (m = NIL) cannot hold while the signaller holds m, so the
// Signal only takes the waiter off c's queue; the Release wakes it.
TEST(ConditionTest, SignalUnderTheMutexWakesTheWaiterAtTheRelease) {
  Mutex m;
  Condition c;
  bool ready = false;  // protected by m
  Thread waiter = Thread::Fork([&] {
    Lock lock(m);
    while (!ready) {
      c.Wait(m);
    }
  });
  AwaitBlocked(waiter);
  m.Acquire();
  ready = true;
  const obs::Stats before = obs::Snapshot();
  c.Signal();
  const obs::Stats signalled = obs::Snapshot();
  // Off c's queue, and not made ready: nothing to run until m is free.
  EXPECT_FALSE(IsBlocked(waiter));
  EXPECT_EQ(Delta(before, signalled, obs::Counter::kCondWakesDeferred), 1u);
  EXPECT_EQ(Delta(before, signalled, obs::Counter::kHandoffs), 0u);
  m.Release();
  const obs::Stats released = obs::Snapshot();
  EXPECT_EQ(Delta(signalled, released, obs::Counter::kHandoffs), 1u);
  waiter.Join();
}

// The signaller goes on to wait on a second condition with the same mutex:
// that Wait's release pays the wake it owes, or neither thread would run.
// The waiter's own Signal of the second condition is deferred to its
// Release in turn if the signaller is queued by then, or absorbed by its
// eventcount if not.
TEST(ConditionTest, SignallersWaitOnASecondConditionPaysTheOwedWake) {
  Mutex m;
  Condition first;
  Condition second;
  bool first_ready = false;   // protected by m
  bool second_ready = false;  // protected by m
  Thread waiter = Thread::Fork([&] {
    Lock lock(m);
    while (!first_ready) {
      first.Wait(m);
    }
    second_ready = true;
    second.Signal();
  });
  AwaitBlocked(waiter);
  m.Acquire();
  first_ready = true;
  const obs::Stats before = obs::Snapshot();
  first.Signal();
  const obs::Stats after = obs::Snapshot();
  EXPECT_EQ(Delta(before, after, obs::Counter::kCondWakesDeferred), 1u);
  while (!second_ready) {
    second.Wait(m);
  }
  m.Release();
  waiter.Join();
}

// A timed waiter whose deadline passes while its wake is owed finds itself
// already off the queue (ParkBlockedUntil) and waits for the permit: the
// Signal beat the deadline, so the wait is satisfied.
TEST(ConditionTest, DeadlinePassingWhileTheWakeIsOwedStillSatisfies) {
  using namespace std::chrono_literals;
  Mutex m;
  Condition c;
  WaitResult result = WaitResult::kTimeout;
  Thread waiter = Thread::Fork([&] {
    Lock lock(m);
    result = c.WaitFor(m, 200ms);
  });
  AwaitBlocked(waiter);
  m.Acquire();
  const obs::Stats before = obs::Snapshot();
  c.Signal();
  std::this_thread::sleep_for(400ms);  // past the waiter's deadline
  const obs::Stats after = obs::Snapshot();
  m.Release();
  waiter.Join();
  EXPECT_EQ(Delta(before, after, obs::Counter::kCondWakesDeferred), 1u);
  EXPECT_EQ(result, WaitResult::kSatisfied);
}

// An Alert that lands on an AlertWait waiter whose wake is owed finds it no
// longer blocked and only sets the flag. The Signal removed the waiter from
// c and an alert is pending as it resumes, so the spec allows AlertResume's
// RETURNS (the alert still pending) or RAISES (the alert consumed).
TEST(ConditionTest, AlertWhileTheWakeIsOwedEndsInAnAllowedOutcome) {
  Mutex m;
  Condition c;
  bool raised = false;
  bool pending_after = false;
  Thread waiter = Thread::Fork([&] {
    Lock lock(m);
    try {
      AlertWait(m, c);
    } catch (const Alerted&) {
      raised = true;
    }
    pending_after = TestAlert();
  });
  AwaitBlocked(waiter);
  m.Acquire();
  const obs::Stats before = obs::Snapshot();
  c.Signal();
  Alert(waiter.Handle());
  const obs::Stats after = obs::Snapshot();
  m.Release();
  waiter.Join();
  EXPECT_EQ(Delta(before, after, obs::Counter::kCondWakesDeferred), 1u);
  EXPECT_NE(raised, pending_after)
      << "raised " << raised << ", alert pending after " << pending_after;
}

TEST(ConditionTest, BroadcastUnderTheMutexWakesEveryWaiter) {
  constexpr int kWaiters = 4;
  Mutex m;
  Condition c;
  bool go = false;  // protected by m
  std::vector<Thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.push_back(Thread::Fork([&] {
      Lock lock(m);
      while (!go) {
        c.Wait(m);
      }
    }));
    AwaitBlocked(waiters.back());
  }
  m.Acquire();
  go = true;
  const obs::Stats before = obs::Snapshot();
  c.Broadcast();
  const obs::Stats after = obs::Snapshot();
  m.Release();
  for (Thread& t : waiters) {
    t.Join();
  }
  EXPECT_EQ(Delta(before, after, obs::Counter::kCondWakesDeferred),
            static_cast<std::uint64_t>(kWaiters));
  EXPECT_EQ(Delta(before, after, obs::Counter::kHandoffs), 0u);
}

// Only the waiter's own mutex defers: a signaller holding another mutex
// wakes the waiter at once, and it returns while that mutex is still held.
TEST(ConditionTest, SignallerHoldingAnotherMutexWakesTheWaiterAtOnce) {
  Mutex m;
  Mutex other;
  Condition c;
  bool ready = false;  // protected by m
  std::atomic<bool> returned{false};
  Thread waiter = Thread::Fork([&] {
    Lock lock(m);
    while (!ready) {
      c.Wait(m);
    }
    returned.store(true, std::memory_order_release);
  });
  AwaitBlocked(waiter);
  {
    Lock lock(m);
    ready = true;
  }
  other.Acquire();
  const obs::Stats before = obs::Snapshot();
  c.Signal();
  const obs::Stats after = obs::Snapshot();
  EXPECT_EQ(Delta(before, after, obs::Counter::kCondWakesDeferred), 0u);
  EXPECT_EQ(Delta(before, after, obs::Counter::kHandoffs), 1u);
  while (!returned.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  other.Release();
  waiter.Join();
}

// The test is who holds the mutex, not whether it is held: with m held by
// a third thread, a Signal from a thread that holds nothing wakes the
// waiter at once, and it queues on m behind the holder.
TEST(ConditionTest, SignalWhileAnotherThreadHoldsTheMutexWakesTheWaiter) {
  Mutex m;
  Condition c;
  bool ready = false;  // protected by m
  Thread waiter = Thread::Fork([&] {
    Lock lock(m);
    while (!ready) {
      c.Wait(m);
    }
  });
  AwaitBlocked(waiter);
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  Thread holder = Thread::Fork([&] {
    Lock lock(m);
    ready = true;
    holding.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!holding.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  const obs::Stats before = obs::Snapshot();
  c.Signal();
  const obs::Stats after = obs::Snapshot();
  EXPECT_EQ(Delta(before, after, obs::Counter::kCondWakesDeferred), 0u);
  EXPECT_EQ(Delta(before, after, obs::Counter::kHandoffs), 1u);
  AwaitBlocked(waiter);  // woken, and now queued on m
  release.store(true, std::memory_order_release);
  holder.Join();
  waiter.Join();
}

// A thread that exits still owing a wake (it signalled under m and never
// released m, a client bug) pays it at exit: the waiter leaves its park and
// queues on m, where the watchdog can name it, instead of sleeping parked
// on nothing. m stays held by the exited thread, so the child process ends
// with _Exit.
TEST(ConditionDeathTest, ExitWithAnOwedWakeDoesNotStrandTheWaiter) {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "fork-based death tests do not run under sanitizers";
#else
  EXPECT_EXIT(
      {
        auto* m = new Mutex();
        auto* c = new Condition();
        Thread waiter = Thread::Fork([m, c] {
          m->Acquire();
          c->Wait(*m);
          m->Release();
        });
        AwaitBlocked(waiter);
        Thread signaller = Thread::Fork([m, c] {
          m->Acquire();
          c->Signal();
        });
        signaller.Join();
        ThreadRecord* rec = waiter.Handle().rec;
        for (int i = 0; i < 10000; ++i) {
          {
            SpinGuard g(rec->lock);
            if (rec->block_kind == ThreadRecord::BlockKind::kMutex) {
              std::_Exit(0);
            }
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        std::_Exit(1);
      },
      testing::ExitedWithCode(0), "");
#endif
}

}  // namespace
}  // namespace taos
