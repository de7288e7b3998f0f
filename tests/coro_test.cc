// The coroutine (single-process Unix) implementation of the Threads
// package: same interface, radically simpler mechanism.

#include "src/coro/sync.h"

#include "src/spec/checker.h"
#include "src/workload/bounded_buffer.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace taos::coro {
namespace {

TEST(CoroSchedulerTest, RunsBodies) {
  Scheduler s;
  int x = 0;
  s.Fork([&x] { x = 7; });
  CoroRunResult r = s.Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(x, 7);
}

TEST(CoroSchedulerTest, RoundRobinYield) {
  Scheduler s;
  std::string order;
  for (char c : {'a', 'b', 'c'}) {
    s.Fork([&s, &order, c] {
      for (int i = 0; i < 3; ++i) {
        order.push_back(c);
        s.Yield();
      }
    });
  }
  EXPECT_TRUE(s.Run().completed);
  EXPECT_EQ(order, "abcabcabc");
}

TEST(CoroSchedulerTest, RunWithoutYieldIsSequential) {
  Scheduler s;
  std::string order;
  s.Fork([&order] { order += "AA"; });
  s.Fork([&order] { order += "BB"; });
  EXPECT_TRUE(s.Run().completed);
  EXPECT_EQ(order, "AABB");  // no preemption, ever
}

TEST(CoroSchedulerTest, JoinWaitsForCompletion) {
  Scheduler s;
  std::string order;
  CoroHandle worker = s.Fork([&s, &order] {
    order += "w1";
    s.Yield();
    order += "w2";
  });
  s.Fork([&s, &order, worker] {
    order += "j1";
    s.Join(worker);
    order += "j2";
  });
  EXPECT_TRUE(s.Run().completed);
  EXPECT_EQ(order, "w1j1w2j2");
}

TEST(CoroSchedulerTest, JoinFinishedCoroReturnsImmediately) {
  Scheduler s;
  CoroHandle worker = s.Fork([] {});
  bool joined = false;
  s.Fork([&s, worker, &joined] {
    s.Join(worker);
    joined = true;
  });
  EXPECT_TRUE(s.Run().completed);
  EXPECT_TRUE(joined);
}

TEST(CoroSchedulerTest, DeadlockDetectedAndUnwound) {
  Scheduler s;
  Semaphore never(/*initially_available=*/false);
  bool destructor_ran = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  s.Fork([&never, &destructor_ran] {
    Sentinel sentinel{&destructor_ran};
    never.P();
  });
  CoroRunResult r = s.Run();
  EXPECT_TRUE(r.deadlock);
  ASSERT_EQ(r.stuck.size(), 1u);
  // The straggler was unwound inside Run(): its stack objects died.
  EXPECT_TRUE(destructor_ran);
  EXPECT_TRUE(s.Aborted());
}

TEST(CoroSchedulerTest, DeadlockUnwindReleasesHeldLocks) {
  Scheduler s;
  Mutex m;
  Semaphore never(false);
  s.Fork([&] {
    Lock lock(m);  // must be released during the unwind, while m is alive
    never.P();
  });
  EXPECT_TRUE(s.Run().deadlock);
}

TEST(CoroSchedulerTest, JoinCycleIsDetectedAsDeadlock) {
  Scheduler s;
  CoroHandle a;
  CoroHandle b;
  a = s.Fork([&s, &b] { s.Join(b); }, "a");
  b = s.Fork([&s, &a] { s.Join(a); }, "b");
  CoroRunResult r = s.Run();
  EXPECT_TRUE(r.deadlock);
  EXPECT_EQ(r.stuck.size(), 2u);
}

TEST(CoroSchedulerTest, RunTwice) {
  Scheduler s;
  int runs = 0;
  s.Fork([&runs] { ++runs; });
  EXPECT_TRUE(s.Run().completed);
  s.Fork([&runs] { ++runs; });
  EXPECT_TRUE(s.Run().completed);
  EXPECT_EQ(runs, 2);
}

TEST(CoroSchedulerTest, EachCoroutineKeepsItsOwnCaughtException) {
  // Each coroutine yields inside its catch block, then rethrows: `throw;`
  // must find its own exception, not the one the other coroutine caught
  // meanwhile on the same OS thread.
  Scheduler s;
  int ok = 0;
  for (int mine : {1, 2}) {
    s.Fork([&s, &ok, mine] {
      try {
        throw mine;
      } catch (int) {
        s.Yield();
        try {
          throw;
        } catch (int v) {
          ok += v == mine ? 1 : 0;
        }
      }
    });
  }
  EXPECT_TRUE(s.Run().completed);
  EXPECT_EQ(ok, 2);
}

TEST(CoroMutexTest, HandoffIsFifo) {
  Scheduler s;
  Mutex m;
  std::string order;
  for (char c : {'a', 'b', 'c'}) {
    s.Fork([&, c] {
      m.Acquire();
      order.push_back(c);
      s.Yield();  // hold the mutex across a yield
      order.push_back(c);
      m.Release();
    });
  }
  EXPECT_TRUE(s.Run().completed);
  EXPECT_EQ(order, "aabbcc");  // direct handoff in queue order
}

TEST(CoroMutexTest, CriticalSectionExcludes) {
  Scheduler s;
  Mutex m;
  int in_cs = 0;
  bool overlap = false;
  long counter = 0;
  for (int t = 0; t < 4; ++t) {
    s.Fork([&] {
      for (int i = 0; i < 50; ++i) {
        Lock lock(m);
        ++in_cs;
        if (in_cs > 1) {
          overlap = true;
        }
        s.Yield();  // invite trouble
        ++counter;
        --in_cs;
      }
    });
  }
  EXPECT_TRUE(s.Run().completed);
  EXPECT_FALSE(overlap);
  EXPECT_EQ(counter, 200);
}

TEST(CoroConditionTest, WaitSignal) {
  Scheduler s;
  Mutex m;
  Condition c;
  bool flag = false;
  std::string order;
  s.Fork([&] {
    Lock lock(m);
    while (!flag) {
      c.Wait(m);
    }
    order += "waiter";
  });
  s.Fork([&] {
    {
      Lock lock(m);
      flag = true;
    }
    c.Signal();
    order += "signaller;";
  });
  EXPECT_TRUE(s.Run().completed);
  EXPECT_EQ(order, "signaller;waiter");
}

TEST(CoroConditionTest, BroadcastWakesAll) {
  Scheduler s;
  Mutex m;
  Condition c;
  bool go = false;
  int resumed = 0;
  for (int i = 0; i < 5; ++i) {
    s.Fork([&] {
      Lock lock(m);
      while (!go) {
        c.Wait(m);
      }
      ++resumed;
    });
  }
  s.Fork([&] {
    {
      Lock lock(m);
      go = true;
    }
    c.Broadcast();
  });
  EXPECT_TRUE(s.Run().completed);
  EXPECT_EQ(resumed, 5);
}

TEST(CoroConditionTest, SignalWakesExactlyOne) {
  Scheduler s;
  Mutex m;
  Condition c;
  int tokens = 0;
  int resumed = 0;
  for (int i = 0; i < 2; ++i) {
    s.Fork([&] {
      Lock lock(m);
      while (tokens == 0) {
        c.Wait(m);
      }
      --tokens;
      ++resumed;
    });
  }
  s.Fork([&] {
    {
      Lock lock(m);
      tokens = 1;
    }
    c.Signal();
  });
  CoroRunResult r = s.Run();
  // One waiter resumes; the other legally waits forever (no liveness).
  EXPECT_TRUE(r.deadlock);
  EXPECT_EQ(resumed, 1);
  EXPECT_EQ(r.stuck.size(), 1u);
}

TEST(CoroSemaphoreTest, TokenHandoff) {
  Scheduler s;
  Semaphore sem(false);
  std::string order;
  s.Fork([&] {
    sem.P();
    order += "got;";
  });
  s.Fork([&] {
    order += "giving;";
    sem.V();
  });
  EXPECT_TRUE(s.Run().completed);
  EXPECT_EQ(order, "giving;got;");
  EXPECT_FALSE(sem.AvailableForDebug());  // transferred, not freed
}

TEST(CoroSemaphoreTest, VIdempotentWhenNoWaiters) {
  Scheduler s;
  Semaphore sem;
  s.Fork([&] {
    sem.V();
    sem.V();
    sem.P();
    EXPECT_FALSE(sem.AvailableForDebug());
    sem.V();
  });
  EXPECT_TRUE(s.Run().completed);
}

TEST(CoroAlertTest, TestAlertConsumes) {
  Scheduler s;
  CoroHandle target = s.Fork([&s] {
    s.Yield();  // let the alerter run
    EXPECT_TRUE(TestAlert());
    EXPECT_FALSE(TestAlert());
  });
  s.Fork([target] { Alert(target); });
  EXPECT_TRUE(s.Run().completed);
}

TEST(CoroAlertTest, AlertWaitRaises) {
  Scheduler s;
  Mutex m;
  Condition c;
  bool raised = false;
  CoroHandle w = s.Fork([&] {
    Lock lock(m);
    try {
      for (;;) {
        AlertWait(m, c);
      }
    } catch (const Alerted&) {
      EXPECT_EQ(m.HolderForDebug(), Scheduler::Current());
      raised = true;
    }
  });
  s.Fork([w] { Alert(w); });
  EXPECT_TRUE(s.Run().completed);
  EXPECT_TRUE(raised);
}

TEST(CoroAlertTest, PreAlertedAlertWaitRaisesWithoutBlocking) {
  Scheduler s;
  Mutex m;
  Condition c;
  bool raised = false;
  CoroHandle w = s.Fork([&] {
    s.Yield();  // the alert is posted while we are runnable
    Lock lock(m);
    try {
      AlertWait(m, c);
    } catch (const Alerted&) {
      raised = true;
    }
  });
  s.Fork([w] { Alert(w); });
  EXPECT_TRUE(s.Run().completed);
  EXPECT_TRUE(raised);
}

TEST(CoroAlertTest, AlertPRaisesAndLeavesSemaphore) {
  Scheduler s;
  Semaphore sem(false);
  bool raised = false;
  CoroHandle w = s.Fork([&] {
    try {
      AlertP(sem);
    } catch (const Alerted&) {
      raised = true;
    }
  });
  s.Fork([w] { Alert(w); });
  EXPECT_TRUE(s.Run().completed);
  EXPECT_TRUE(raised);
  EXPECT_FALSE(sem.AvailableForDebug());  // UNCHANGED [s]
}

TEST(CoroAlertTest, UncaughtAlertedEndsCoroQuietly) {
  Scheduler s;
  Semaphore sem(false);
  CoroHandle w = s.Fork([&] { AlertP(sem); });
  s.Fork([w] { Alert(w); });
  EXPECT_TRUE(s.Run().completed);
  EXPECT_TRUE(w.coro->ended_by_alert);
}

TEST(CoroIntegrationTest, ProducerConsumerPingPong) {
  Scheduler s;
  Mutex m;
  Condition c;
  int cell = 0;
  long sum = 0;
  constexpr int kRounds = 200;
  s.Fork([&] {
    for (int r = 1; r <= kRounds; ++r) {
      Lock lock(m);
      while (cell != 0) {
        c.Wait(m);
      }
      cell = r;
      c.Broadcast();
    }
  });
  s.Fork([&] {
    for (int r = 1; r <= kRounds; ++r) {
      Lock lock(m);
      while (cell == 0) {
        c.Wait(m);
      }
      sum += cell;
      cell = 0;
      c.Broadcast();
    }
  });
  EXPECT_TRUE(s.Run().completed);
  EXPECT_EQ(sum, static_cast<long>(kRounds) * (kRounds + 1) / 2);
}

// --- E12 on the third implementation: traced coroutine runs conform ------

TEST(CoroTraceTest, MixedWorkloadConforms) {
  spec::Trace trace;
  Scheduler s;
  s.SetTrace(&trace);
  Mutex m;
  Condition c;
  Semaphore sem;
  bool flag = false;
  CoroHandle waiter = s.Fork([&] {
    Lock lock(m);
    while (!flag) {
      c.Wait(m);
    }
  });
  s.Fork([&] {
    sem.P();
    {
      Lock lock(m);
      flag = true;
    }
    c.Signal();
    sem.V();
  });
  s.Fork([waiter, &s] {
    Alert(waiter);  // arrives after the waiter resumed: stays pending
    (void)s;
  });
  EXPECT_TRUE(s.Run().completed);
  s.SetTrace(nullptr);

  spec::TraceChecker checker;
  spec::CheckResult r = checker.CheckTrace(trace);
  EXPECT_TRUE(r.ok) << "at " << r.failed_index << ": " << r.message << "\n"
                    << trace.ToString();
  EXPECT_GT(r.actions_checked, 8u);
}

TEST(CoroTraceTest, AlertPathsConform) {
  spec::Trace trace;
  Scheduler s;
  s.SetTrace(&trace);
  Mutex m;
  Condition c;
  Semaphore sem(false);
  CoroHandle w1 = s.Fork([&] {
    Lock lock(m);
    try {
      for (;;) {
        AlertWait(m, c);
      }
    } catch (const Alerted&) {
    }
  });
  CoroHandle w2 = s.Fork([&] {
    try {
      AlertP(sem);
    } catch (const Alerted&) {
    }
  });
  s.Fork([&, w1, w2] {
    Alert(w1);
    Alert(w2);
    (void)TestAlert();
  });
  EXPECT_TRUE(s.Run().completed);
  s.SetTrace(nullptr);

  spec::TraceChecker checker;
  spec::CheckResult r = checker.CheckTrace(trace);
  EXPECT_TRUE(r.ok) << "at " << r.failed_index << ": " << r.message << "\n"
                    << trace.ToString();
}

TEST(CoroTraceTest, PreAlertedShortcutsConform) {
  spec::Trace trace;
  Scheduler s;
  s.SetTrace(&trace);
  Mutex m;
  Condition c;
  Semaphore sem;
  CoroHandle w = s.Fork([&] {
    s.Yield();  // let the alert land first
    {
      Lock lock(m);
      try {
        AlertWait(m, c);
      } catch (const Alerted&) {
      }
    }
    Alert(CoroHandle{Scheduler::Current()});  // self-alert
    try {
      AlertP(sem);
    } catch (const Alerted&) {
    }
  });
  s.Fork([w] { Alert(w); });
  EXPECT_TRUE(s.Run().completed);
  s.SetTrace(nullptr);

  spec::TraceChecker checker;
  spec::CheckResult r = checker.CheckTrace(trace);
  EXPECT_TRUE(r.ok) << "at " << r.failed_index << ": " << r.message << "\n"
                    << trace.ToString();
}

TEST(CoroIntegrationTest, BoundedBufferTemplateRunsOnCoroutines) {
  // The same workload template the OS-thread library uses, instantiated
  // over the coroutine primitives (the paper's interface-compatibility
  // claim, in code).
  Scheduler s;
  workload::BoundedBuffer<Mutex, Condition> buffer(4);
  std::uint64_t sum = 0;
  s.Fork([&] {
    for (std::uint64_t i = 1; i <= 500; ++i) {
      buffer.Put(i);
    }
  });
  s.Fork([&] {
    for (int i = 0; i < 500; ++i) {
      sum += buffer.Get();
    }
  });
  EXPECT_TRUE(s.Run().completed);
  EXPECT_EQ(sum, 500u * 501u / 2);
}

TEST(CoroIntegrationTest, ManyCoroutines) {
  Scheduler s;
  Mutex m;
  long counter = 0;
  for (int i = 0; i < 100; ++i) {
    s.Fork([&] {
      for (int k = 0; k < 10; ++k) {
        Lock lock(m);
        ++counter;
        s.Yield();
      }
    });
  }
  EXPECT_TRUE(s.Run().completed);
  EXPECT_EQ(counter, 1000);
}

}  // namespace
}  // namespace taos::coro
