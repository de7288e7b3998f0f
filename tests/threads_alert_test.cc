// Alerting: Alert / TestAlert / AlertWait / AlertP, including the
// RETURNS-vs-RAISES nondeterminism (E10) and the timeout idiom (the paper's
// stated use case).

#include "src/threads/threads.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/workload/timeout.h"
#include "tests/await_blocked.h"

namespace taos {
namespace {

TEST(AlertTest, TestAlertSeesAndClearsPendingAlert) {
  // Alert a thread that is not blocked: the request stays pending.
  std::atomic<bool> first_saw{false};
  std::atomic<bool> second_saw{true};
  std::atomic<bool> alerted{false};
  Thread t = Thread::Fork([&] {
    while (!alerted.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    first_saw.store(TestAlert());
    second_saw.store(TestAlert());  // consumed: must now be false
  });
  Alert(t.Handle());
  alerted.store(true, std::memory_order_release);
  t.Join();
  EXPECT_TRUE(first_saw.load());
  EXPECT_FALSE(second_saw.load());
}

TEST(AlertTest, TestAlertFalseWhenNoAlertPending) { EXPECT_FALSE(TestAlert()); }

TEST(AlertTest, AlertPRaisesWhenBlocked) {
  Semaphore s;
  s.P();  // make the next P block
  std::atomic<bool> raised{false};
  Thread t = Thread::Fork([&] {
    try {
      AlertP(s);
    } catch (const Alerted&) {
      raised.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Alert(t.Handle());
  t.Join();
  EXPECT_TRUE(raised.load());
  // The semaphore was not taken by the alerted thread (UNCHANGED [s]).
  EXPECT_FALSE(s.AvailableForDebug());  // still held by us
  s.V();
}

TEST(AlertTest, AlertPReturnsWhenAvailableAndNotAlerted) {
  Semaphore s;
  AlertP(s);  // must not raise
  EXPECT_FALSE(s.AvailableForDebug());
  s.V();
}

TEST(AlertTest, AlertPPendingAlertBeforeBlockedPRaises) {
  Semaphore s;
  s.P();
  Thread t = Thread::Fork([&] {
    // The alert is already pending when we try to P; since the semaphore is
    // unavailable, the Nub path must notice it and raise.
    EXPECT_THROW(AlertP(s), Alerted);
  });
  Alert(t.Handle());
  t.Join();
  s.V();
}

TEST(AlertTest, AlertWaitRaisesWhileBlocked) {
  Mutex m;
  Condition c;
  std::atomic<bool> raised{false};
  Thread t = Thread::Fork([&] {
    Lock lock(m);
    try {
      for (;;) {
        AlertWait(m, c);
      }
    } catch (const Alerted&) {
      // The mutex is held again here, as the spec's AlertResume ensures.
      EXPECT_EQ(m.HolderForDebug(), Thread::Self().id());
      raised.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Alert(t.Handle());
  t.Join();
  EXPECT_TRUE(raised.load());
  EXPECT_EQ(m.HolderForDebug(), spec::kNil);
}

TEST(AlertTest, AlertWaitReturnsNormallyOnSignal) {
  Mutex m;
  Condition c;
  bool flag = false;  // protected by m
  std::atomic<bool> normal{false};
  Thread t = Thread::Fork([&] {
    Lock lock(m);
    try {
      while (!flag) {
        AlertWait(m, c);
      }
      normal.store(true);
    } catch (const Alerted&) {
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    Lock lock(m);
    flag = true;
  }
  c.Signal();
  t.Join();
  EXPECT_TRUE(normal.load());
}

TEST(AlertTest, AlertBeforeForkIsDeliveredAtFirstAlertablePoint) {
  Mutex m;
  Condition c;
  std::atomic<bool> raised{false};
  // Build the thread, alert it via its handle before it has done anything.
  Thread t = Thread::Fork([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Lock lock(m);
    try {
      AlertWait(m, c);
    } catch (const Alerted&) {
      raised.store(true);
    }
  });
  Alert(t.Handle());
  t.Join();
  EXPECT_TRUE(raised.load());
}

TEST(AlertTest, UncaughtAlertedEndsTheThreadQuietly) {
  Semaphore s;
  s.P();
  Thread t = Thread::Fork([&] { AlertP(s); });  // will raise, uncaught
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Alert(t.Handle());
  t.Join();
  EXPECT_TRUE(t.EndedByAlert());
  s.V();
}

TEST(AlertTest, NondeterminismBothOutcomesOccur) {
  // E10: when an alert and an available semaphore race, AlertP sometimes
  // returns and sometimes raises. Hammer the race and require both. Even
  // rounds leave the schedule to the host (Alert first usually raises).
  // Odd rounds build the returning schedule: once the taker is parked in
  // AlertP, V dequeues and readies it before the Alert lands, so it resumes
  // with the semaphore available and an alert pending, and returns.
  std::atomic<int> normal{0};
  std::atomic<int> raised{0};
  for (int round = 0; round < 300 && (normal == 0 || raised == 0); ++round) {
    Semaphore s;
    s.P();
    std::atomic<bool> ready{false};
    Thread taker = Thread::Fork([&] {
      ready.store(true, std::memory_order_release);
      try {
        AlertP(s);
        normal.fetch_add(1);
        s.V();
      } catch (const Alerted&) {
        raised.fetch_add(1);
      }
    });
    while (!ready.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    if (round % 2 == 0) {
      Alert(taker.Handle());
      s.V();
    } else {
      AwaitBlocked(taker);
      s.V();
      Alert(taker.Handle());
    }
    taker.Join();
    (void)TestAlert();
  }
  EXPECT_GT(normal.load(), 0);
  EXPECT_GT(raised.load(), 0);
}

TEST(AlertTest, WaitWithTimeoutTimesOut) {
  Mutex m;
  Condition c;
  m.Acquire();
  const bool satisfied = workload::WaitWithTimeout(
      m, c, [] { return false; }, std::chrono::milliseconds(30));
  EXPECT_FALSE(satisfied);
  EXPECT_EQ(m.HolderForDebug(), Thread::Self().id());  // still held
  m.Release();
}

TEST(AlertTest, WaitWithTimeoutSatisfied) {
  Mutex m;
  Condition c;
  bool flag = false;  // protected by m
  Thread setter = Thread::Fork([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    {
      Lock lock(m);
      flag = true;
    }
    c.Signal();
  });
  m.Acquire();
  const bool satisfied = workload::WaitWithTimeout(
      m, c, [&flag] { return flag; }, std::chrono::milliseconds(2000));
  EXPECT_TRUE(satisfied);
  m.Release();
  setter.Join();
}

// Regression (lost alert): an Alert posted by a *third party* while a thread
// sits in WaitWithTimeout must still be deliverable afterwards — the helper
// may use Alerted internally to break out of the wait, but an alert it did
// not post itself is not its to swallow. The buggy version drained the flag
// unconditionally on exit, so the caller's next alertable wait never raised.
TEST(AlertTest, WaitWithTimeoutPreservesThirdPartyAlert) {
  Mutex m;
  Condition c;
  std::atomic<bool> entered{false};
  std::atomic<bool> second_wait_done{false};
  std::atomic<bool> second_wait_raised{false};
  Thread waiter = Thread::Fork([&] {
    m.Acquire();
    entered.store(true, std::memory_order_release);
    // Generous deadline: the third-party Alert, not the watchdog, is what
    // ends this wait.
    (void)workload::WaitWithTimeout(
        m, c, [] { return false; }, std::chrono::milliseconds(10'000));
    // The caller's next alertable wait must still raise.
    try {
      AlertWait(m, c);
    } catch (const Alerted&) {
      second_wait_raised.store(true, std::memory_order_relaxed);
    }
    second_wait_done.store(true, std::memory_order_release);
    m.Release();
  });
  while (!entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // AlertWait releases m only after enqueuing on c, so once we hold m the
  // waiter is blocked (alertably) inside the timed wait.
  m.Acquire();
  m.Release();
  Alert(waiter.Handle());
  // Backstop so a swallowed alert shows up as a failure, not a hang: keep
  // signalling until the second wait finishes one way or the other.
  while (!second_wait_done.load(std::memory_order_acquire)) {
    c.Signal();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  waiter.Join();
  EXPECT_TRUE(second_wait_raised.load(std::memory_order_relaxed))
      << "the third party's alert was swallowed by WaitWithTimeout";
}

TEST(AlertTest, AlertIsStickyAcrossOperations) {
  // An alert posted while the target is between alertable points is seen at
  // the next one, however many non-alertable operations intervene.
  Mutex m;
  std::atomic<bool> go{false};
  std::atomic<bool> raised{false};
  Semaphore s;
  s.P();
  Thread t = Thread::Fork([&] {
    while (!go.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    for (int i = 0; i < 100; ++i) {  // non-alertable work
      Lock lock(m);
    }
    try {
      AlertP(s);
    } catch (const Alerted&) {
      raised.store(true);
    }
  });
  Alert(t.Handle());
  go.store(true, std::memory_order_release);
  t.Join();
  EXPECT_TRUE(raised.load());
  s.V();
}

// N waiters in AlertWait on one condition, queued in a known arrival order;
// the middle one is alerted, then signals are delivered one at a time. The
// alerted waiter must raise without consuming a signal, and every other
// waiter must be woken by one of the remaining signals. The order of those
// grants is not asserted (the spec says nothing about it).
TEST(AlertTest, SignalsSkipAlertedWaiterAndReachTheRest) {
  constexpr int kWaiters = 5;
  constexpr int kAlerted = 2;
  Mutex m;
  Condition c;
  std::vector<int> grant_order;             // guarded by m
  std::atomic<bool> raised[kWaiters] = {};  // one flag per waiter

  std::vector<Thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.push_back(Thread::Fork([&, i] {
      m.Acquire();
      try {
        AlertWait(m, c);
        grant_order.push_back(i);
      } catch (const Alerted&) {
        raised[i].store(true, std::memory_order_release);
      }
      m.Release();
    }));
    AwaitBlocked(waiters.back());
  }

  Alert(waiters[kAlerted].Handle());
  waiters[kAlerted].Join();
  EXPECT_TRUE(raised[kAlerted].load(std::memory_order_acquire));

  for (int delivered = 1; delivered < kWaiters; ++delivered) {
    c.Signal();
    // Each signal wakes exactly one waiter; wait for it to record itself so
    // the next signal finds a quiet queue.
    for (;;) {
      m.Acquire();
      const std::size_t n = grant_order.size();
      m.Release();
      if (n == static_cast<std::size_t>(delivered)) {
        break;
      }
      std::this_thread::yield();
    }
  }
  for (Thread& t : waiters) {
    if (t.Joinable()) {  // the alerted waiter was already joined
      t.Join();
    }
  }

  ASSERT_EQ(grant_order.size(), static_cast<std::size_t>(kWaiters - 1));
  for (int i = 0; i < kWaiters; ++i) {
    EXPECT_EQ(raised[i].load(std::memory_order_acquire), i == kAlerted);
  }
}

// A plain Wait, an AlertWait and a short AlertWaitFor on one Condition, on
// the production path. They share one Block, and each leaves it its own
// way: Alert dequeues only the alertable waiter, the timed one expires
// itself, and Signal reaches the plain one. Every way out gives back its
// count in waiters_, so once all have left a Signal finds no waiters and
// stays in user code. The same holds after an AlertWait that raises before
// it blocks, and after waits whose wakeups a Signal burst absorbs.
TEST(AlertTest, MixedWaitsOnOneConditionEachLeaveTheirOwnWay) {
  Mutex m;
  Condition c;
  auto expect_signal_stays_in_user_code = [&c](const char* after) {
    const obs::Stats before = obs::Snapshot();
    c.Signal();
    const obs::Stats end = obs::Snapshot();
    EXPECT_EQ(end.Count(obs::Counter::kFastSignal) -
                  before.Count(obs::Counter::kFastSignal),
              1u)
        << after;
    EXPECT_EQ(end.Count(obs::Counter::kNubSignal) -
                  before.Count(obs::Counter::kNubSignal),
              0u)
        << after;
  };

  std::atomic<bool> plain_done{false};
  Thread plain = Thread::Fork([&] {
    m.Acquire();
    c.Wait(m);
    m.Release();
    plain_done.store(true, std::memory_order_release);
  });
  AwaitBlocked(plain);
  std::atomic<bool> raised{false};
  Thread alertable = Thread::Fork([&] {
    m.Acquire();
    try {
      AlertWait(m, c);
    } catch (const Alerted&) {
      raised.store(true, std::memory_order_release);
    }
    m.Release();
  });
  AwaitBlocked(alertable);
  const obs::Stats before_timed = obs::Snapshot();
  std::atomic<bool> timed_done{false};
  WaitResult timed_result = WaitResult::kSatisfied;  // read after Join
  Thread timed = Thread::Fork([&] {
    m.Acquire();
    timed_result = AlertWaitFor(m, c, std::chrono::milliseconds(50));
    m.Release();
    timed_done.store(true, std::memory_order_release);
  });
  // The timed waiter ends its own wait, so it may be gone already.
  while (!IsBlocked(timed) && !timed_done.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  Alert(alertable.Handle());
  alertable.Join();
  EXPECT_TRUE(raised.load(std::memory_order_acquire));
  EXPECT_TRUE(IsBlocked(plain)) << "Alert reached the plain waiter";
  EXPECT_FALSE(plain_done.load(std::memory_order_acquire));

  timed.Join();
  EXPECT_EQ(timed_result, WaitResult::kTimeout);
  EXPECT_EQ(obs::Snapshot().Count(obs::Counter::kTimersExpired) -
                before_timed.Count(obs::Counter::kTimersExpired),
            1u)
      << "the timed waiter did not expire itself";

  c.Signal();
  plain.Join();
  EXPECT_TRUE(plain_done.load(std::memory_order_acquire));
  expect_signal_stays_in_user_code("after raise, timeout and signal");

  // An alert already pending when AlertWait reaches Block: it raises from
  // there, without queueing.
  m.Acquire();
  Alert(Thread::Self());
  bool raised_at_once = false;
  try {
    AlertWait(m, c);
  } catch (const Alerted&) {
    raised_at_once = true;
  }
  m.Release();
  EXPECT_TRUE(raised_at_once);
  expect_signal_stays_in_user_code("after a raise before blocking");

  // Waits against a stream of Signals: some land between a waiter's
  // eventcount read and its Block, which then returns at once (a
  // wakeup-waiting hit). How many do is up to the scheduler.
  std::atomic<bool> waits_done{false};
  Thread waiter = Thread::Fork([&] {
    for (int i = 0; i < 200; ++i) {
      m.Acquire();
      c.Wait(m);
      m.Release();
    }
    waits_done.store(true, std::memory_order_release);
  });
  while (!waits_done.load(std::memory_order_acquire)) {
    c.Signal();
  }
  waiter.Join();
  expect_signal_stays_in_user_code("after absorbed and signalled waits");
}

// A handle outlives its thread. Alert through it once the thread has been
// joined does nothing, and once another thread has reused the record, it
// neither wakes that thread from an alertable wait nor leaves it an alert.
TEST(AlertTest, AlertOnJoinedThreadIsANoOp) {
  (void)Thread::Self();  // so this thread's first Alert takes no record
  Thread gone = Thread::Fork([] {});
  const ThreadHandle stale = gone.Handle();
  gone.Join();
  Alert(stale);
  Alert(stale);

  Mutex m;
  Condition c;
  std::atomic<bool> go{false};
  WaitResult result = WaitResult::kAlerted;
  bool pending = true;
  // Records are reused most recently freed first, so the first fork almost
  // always takes the joined thread's record; the forks that do not are kept
  // alive until the end, so the search moves on.
  Thread reuser;
  std::vector<Thread> others;
  for (int i = 0; i < 64 && !reuser.Joinable(); ++i) {
    Thread t = Thread::Fork([&] {
      if (Thread::Self().rec == stale.rec) {
        m.Acquire();
        result = AlertWaitFor(m, c, std::chrono::seconds(30));
        m.Release();
        pending = TestAlert();
        return;
      }
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
    if (t.Handle().rec == stale.rec) {
      reuser = std::move(t);
    } else {
      others.push_back(std::move(t));
    }
  }
  const bool reused = reuser.Joinable();
  if (reused) {
    EXPECT_NE(reuser.Handle().id(), stale.id());
    AwaitBlocked(reuser);
    Alert(stale);
    {
      Lock l(m);
    }
    c.Signal();
    reuser.Join();
  }
  go.store(true, std::memory_order_release);
  others.clear();
  ASSERT_TRUE(reused) << "no thread reused the joined thread's record";
  EXPECT_EQ(result, WaitResult::kSatisfied);
  EXPECT_FALSE(pending);
}

}  // namespace
}  // namespace taos
