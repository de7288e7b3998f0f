// The multi-object wait subsystem: Event set/reset semantics, Poll
// WaitAny/WaitAll (plain, timed, alertable), and the MessageQueue built on
// top of them. Runs on the real runtime; the exhaustive race arguments live
// in model_explorer_test.cc and the spec-checked serializations in
// threads_conformance_test.cc.

#include "src/threads/threads.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "tests/await_blocked.h"

namespace taos {
namespace {

using namespace std::chrono_literals;

// --- Event ---

TEST(EventTest, ManualResetStaysSetAcrossWaits) {
  Event e;  // manual by default
  EXPECT_FALSE(e.IsSet());
  e.Set();
  EXPECT_TRUE(e.IsSet());
  e.Wait();  // must not block
  e.Wait();  // and must not consume
  EXPECT_TRUE(e.IsSet());
  e.Reset();
  EXPECT_FALSE(e.IsSet());
}

TEST(EventTest, AutoResetIsConsumedByTheGrantedWait) {
  Event e(EventReset::kAuto);
  e.Set();
  e.Wait();  // consumes
  EXPECT_FALSE(e.IsSet());
  EXPECT_FALSE(e.TryWait());
  e.Set();
  EXPECT_TRUE(e.TryWait());
  EXPECT_FALSE(e.IsSet());
}

TEST(EventTest, TryWaitOnManualDoesNotConsume) {
  Event e;
  EXPECT_FALSE(e.TryWait());
  e.Set();
  EXPECT_TRUE(e.TryWait());
  EXPECT_TRUE(e.TryWait());
  EXPECT_TRUE(e.IsSet());
}

TEST(EventTest, SetIsIdempotent) {
  Event e(EventReset::kAuto);
  e.Set();
  e.Set();
  e.Set();
  e.Wait();  // the single pulse
  EXPECT_FALSE(e.TryWait());
}

TEST(EventTest, WaitBlocksUntilSet) {
  Event e(EventReset::kAuto);
  std::atomic<bool> resumed{false};
  Thread waiter = Thread::Fork([&] {
    e.Wait();
    resumed.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(resumed.load(std::memory_order_acquire));
  e.Set();
  waiter.Join();
  EXPECT_TRUE(resumed.load(std::memory_order_acquire));
}

TEST(EventTest, ManualSetReleasesAllWaiters) {
  Event e;
  constexpr int kWaiters = 4;
  std::atomic<int> resumed{0};
  std::vector<Thread> threads;
  for (int i = 0; i < kWaiters; ++i) {
    threads.push_back(Thread::Fork([&] {
      e.Wait();
      resumed.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(resumed.load(), 0);
  e.Set();
  for (Thread& t : threads) {
    t.Join();
  }
  EXPECT_EQ(resumed.load(), kWaiters);
}

TEST(EventTest, AutoSetReleasesExactlyOneWaiter) {
  Event e(EventReset::kAuto);
  constexpr int kWaiters = 3;
  std::atomic<int> resumed{0};
  std::vector<Thread> threads;
  for (int i = 0; i < kWaiters; ++i) {
    threads.push_back(Thread::Fork([&] {
      e.Wait();
      resumed.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  std::this_thread::sleep_for(20ms);
  for (int round = 1; round <= kWaiters; ++round) {
    e.Set();
    // Exactly one waiter per pulse gets through.
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (resumed.load() < round &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    EXPECT_EQ(resumed.load(), round);
    std::this_thread::sleep_for(5ms);
    EXPECT_EQ(resumed.load(), round);  // no over-delivery
  }
  for (Thread& t : threads) {
    t.Join();
  }
}

TEST(EventTest, WaitForTimesOutAndSatisfies) {
  Event e(EventReset::kAuto);
  EXPECT_EQ(e.WaitFor(10ms), WaitResult::kTimeout);
  e.Set();
  EXPECT_EQ(e.WaitFor(10ms), WaitResult::kSatisfied);
  EXPECT_FALSE(e.IsSet());  // consumed
  // Zero timeout degenerates to TryWait.
  EXPECT_EQ(e.WaitFor(0ms), WaitResult::kTimeout);
}

TEST(EventTest, WaitForSatisfiedByConcurrentSet) {
  Event e(EventReset::kAuto);
  Thread setter = Thread::Fork([&] {
    std::this_thread::sleep_for(10ms);
    e.Set();
  });
  EXPECT_EQ(e.WaitFor(5s), WaitResult::kSatisfied);
  setter.Join();
}

TEST(EventTest, SetThenWaitStaysOnFastPath) {
  // An already-set event grants without a Nub entry, like the mutex fast
  // path: waiter-side consumption is a single atomic on the flag.
  Event e;
  e.Set();
  const std::uint64_t nub_before = obs::Snapshot().NubEntries();
  for (int i = 0; i < 1000; ++i) {
    e.Wait();
  }
  EXPECT_EQ(obs::Snapshot().NubEntries(), nub_before);
}

// --- Poll ---

TEST(PollTest, WaitAnyReturnsTheSetMemberWithoutBlocking) {
  Event a(EventReset::kAuto);
  Event b(EventReset::kAuto);
  Poll p;
  p.Add(a);
  p.Add(b);
  b.Set();
  EXPECT_EQ(p.WaitAny(), 1u);
  EXPECT_FALSE(b.IsSet());  // granted auto member consumed
  EXPECT_FALSE(a.IsSet());
}

TEST(PollTest, WaitAnyConsumesOnlyTheGrantedMember) {
  Event a(EventReset::kAuto);
  Event b(EventReset::kAuto);
  Poll p;
  p.Add(a);
  p.Add(b);
  a.Set();
  b.Set();
  const std::size_t first = p.WaitAny();
  // One pulse consumed, the other still observable by a later wait.
  const std::size_t second = p.WaitAny();
  EXPECT_NE(first, second);
  EXPECT_FALSE(a.IsSet());
  EXPECT_FALSE(b.IsSet());
}

TEST(PollTest, WaitAnyDoesNotConsumeManualMembers) {
  Event m;  // manual
  Poll p;
  p.Add(m);
  m.Set();
  EXPECT_EQ(p.WaitAny(), 0u);
  EXPECT_TRUE(m.IsSet());
  EXPECT_EQ(p.WaitAny(), 0u);  // still granted
}

// A member that stays set (a closed queue's readable edge) must not starve
// the members after it: each WaitAny starts one past the last grant, so a
// set member is granted within size() calls.
TEST(PollTest, WaitAnyRotatesPastAMemberThatStaysSet) {
  MessageQueue<int> closed(1);
  closed.Close();
  Event b(EventReset::kAuto);
  Poll p;
  p.Add(closed.readable());
  p.Add(b);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    b.Set();
    bool granted_b = false;
    for (std::size_t call = 0; call < p.size() && !granted_b; ++call) {
      granted_b = p.WaitAny() == 1u;
    }
    EXPECT_TRUE(granted_b);
    EXPECT_FALSE(b.IsSet());
    EXPECT_TRUE(closed.readable().IsSet());
  }
}

TEST(PollTest, WaitAnyBlocksUntilSomeMemberIsSet) {
  Event a(EventReset::kAuto);
  Event b(EventReset::kAuto);
  std::atomic<std::size_t> granted{99};
  Thread waiter = Thread::Fork([&] {
    Poll p;
    p.Add(a);
    p.Add(b);
    granted.store(p.WaitAny(), std::memory_order_release);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(granted.load(std::memory_order_acquire), 99u);
  b.Set();
  waiter.Join();
  EXPECT_EQ(granted.load(std::memory_order_acquire), 1u);
  EXPECT_FALSE(b.IsSet());
}

TEST(PollTest, BlockingWaitAnyInstallsRegistrations) {
  Event a(EventReset::kAuto);
  Event b(EventReset::kAuto);
  const obs::Stats before = obs::Snapshot();
  Thread waiter = Thread::Fork([&] {
    Poll p;
    p.Add(a);
    p.Add(b);
    (void)p.WaitAny();
  });
  std::this_thread::sleep_for(20ms);
  a.Set();
  waiter.Join();
  const obs::Stats after = obs::Snapshot();
  // The parked round registered on both members (at least once).
  EXPECT_GE(after.Count(obs::Counter::kPollRegistrations) -
                before.Count(obs::Counter::kPollRegistrations),
            2u);
}

TEST(PollTest, WaitAnyForTimesOut) {
  Event a(EventReset::kAuto);
  Poll p;
  p.Add(a);
  const Poll::AnyResult r = p.WaitAnyFor(10ms);
  EXPECT_EQ(r.result, WaitResult::kTimeout);
  EXPECT_EQ(r.index, p.size());
  // Zero timeout: a single scan.
  EXPECT_EQ(p.WaitAnyFor(0ms).result, WaitResult::kTimeout);
  a.Set();
  const Poll::AnyResult hit = p.WaitAnyFor(0ms);
  EXPECT_EQ(hit.result, WaitResult::kSatisfied);
  EXPECT_EQ(hit.index, 0u);
}

TEST(PollTest, WaitAnyForSatisfiedByConcurrentSet) {
  Event a(EventReset::kAuto);
  Event b(EventReset::kAuto);
  Poll p;
  p.Add(a);
  p.Add(b);
  Thread setter = Thread::Fork([&] {
    std::this_thread::sleep_for(10ms);
    a.Set();
  });
  const Poll::AnyResult r = p.WaitAnyFor(5s);
  EXPECT_EQ(r.result, WaitResult::kSatisfied);
  EXPECT_EQ(r.index, 0u);
  setter.Join();
}

TEST(PollTest, WaitAllReturnsWhenAllSetAndConsumesAutos) {
  Event a(EventReset::kAuto);
  Event m;  // manual
  Poll p;
  p.Add(a);
  p.Add(m);
  a.Set();
  m.Set();
  p.WaitAll();
  EXPECT_FALSE(a.IsSet());  // auto consumed
  EXPECT_TRUE(m.IsSet());   // manual unchanged
}

TEST(PollTest, WaitAllBlocksUntilTheLastMember) {
  Event a(EventReset::kAuto);
  Event b(EventReset::kAuto);
  std::atomic<bool> resumed{false};
  Thread waiter = Thread::Fork([&] {
    Poll p;
    p.Add(a);
    p.Add(b);
    p.WaitAll();
    resumed.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(10ms);
  a.Set();
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(resumed.load(std::memory_order_acquire));  // one of two
  b.Set();
  waiter.Join();
  EXPECT_TRUE(resumed.load(std::memory_order_acquire));
  EXPECT_FALSE(a.IsSet());
  EXPECT_FALSE(b.IsSet());
}

TEST(PollTest, WaitAllForTimesOutWithAPartialSet) {
  Event a(EventReset::kAuto);
  Event b(EventReset::kAuto);
  Poll p;
  p.Add(a);
  p.Add(b);
  a.Set();
  EXPECT_EQ(p.WaitAllFor(15ms), WaitResult::kTimeout);
  // The partial member was NOT consumed by the failed WaitAll.
  EXPECT_TRUE(a.IsSet());
  b.Set();
  EXPECT_EQ(p.WaitAllFor(15ms), WaitResult::kSatisfied);
  EXPECT_FALSE(a.IsSet());
  EXPECT_FALSE(b.IsSet());
}

TEST(PollTest, AlertWaitAnyRaisesAlerted) {
  Event a(EventReset::kAuto);
  std::atomic<bool> raised{false};
  Thread waiter = Thread::Fork([&] {
    Poll p;
    p.Add(a);
    try {
      (void)p.AlertWaitAny();
    } catch (const Alerted&) {
      raised.store(true, std::memory_order_release);
    }
  });
  std::this_thread::sleep_for(20ms);
  Alert(waiter.Handle());
  waiter.Join();
  EXPECT_TRUE(raised.load(std::memory_order_acquire));
}

TEST(PollTest, AlertWaitAnyPrefersAGrantOverAPendingAlert) {
  // The alert is consumed only when no member grants; an already-set member
  // wins even with the alert pending (grant > alert precedence), and the
  // alert stays pending for the next alertable wait.
  Event a(EventReset::kAuto);
  std::atomic<std::size_t> granted{99};
  std::atomic<bool> later_alerted{false};
  Thread waiter = Thread::Fork([&] {
    Poll p;
    p.Add(a);
    a.Set();
    granted.store(p.AlertWaitAny(), std::memory_order_release);
    // Now the pending alert must surface.
    try {
      (void)p.AlertWaitAnyFor(5s);
    } catch (const Alerted&) {
    }
    later_alerted.store(true, std::memory_order_release);
  });
  Alert(waiter.Handle());
  waiter.Join();
  EXPECT_EQ(granted.load(std::memory_order_acquire), 0u);
  EXPECT_TRUE(later_alerted.load(std::memory_order_acquire));
}

TEST(PollTest, AlertWaitAnyForReportsAlertedWithoutThrowing) {
  Event a(EventReset::kAuto);
  std::atomic<int> result{-1};
  Thread waiter = Thread::Fork([&] {
    Poll p;
    p.Add(a);
    result.store(static_cast<int>(p.AlertWaitAnyFor(5s).result),
                 std::memory_order_release);
  });
  std::this_thread::sleep_for(20ms);
  Alert(waiter.Handle());
  waiter.Join();
  EXPECT_EQ(result.load(std::memory_order_acquire),
            static_cast<int>(WaitResult::kAlerted));
}

TEST(PollTest, AlertWaitAllRaisesAlerted) {
  Event a(EventReset::kAuto);
  Event b(EventReset::kAuto);
  std::atomic<bool> raised{false};
  Thread waiter = Thread::Fork([&] {
    Poll p;
    p.Add(a);
    p.Add(b);
    a.Set();  // partial: still blocks
    try {
      p.AlertWaitAll();
    } catch (const Alerted&) {
      raised.store(true, std::memory_order_release);
    }
  });
  std::this_thread::sleep_for(20ms);
  Alert(waiter.Handle());
  waiter.Join();
  EXPECT_TRUE(raised.load(std::memory_order_acquire));
  EXPECT_TRUE(a.IsSet());  // the aborted WaitAll consumed nothing
}

TEST(PollTest, ManyWaitersOnOverlappingSets) {
  // Stress the registration/deregistration churn: waiters share members.
  Event e0(EventReset::kAuto);
  Event e1(EventReset::kAuto);
  Event e2(EventReset::kAuto);
  constexpr int kRounds = 300;
  std::atomic<int> grants{0};
  Thread w0 = Thread::Fork([&] {
    Poll p;
    p.Add(e0);
    p.Add(e1);
    for (int i = 0; i < kRounds; ++i) {
      (void)p.WaitAny();
      grants.fetch_add(1, std::memory_order_relaxed);
    }
  });
  Thread w1 = Thread::Fork([&] {
    Poll p;
    p.Add(e1);
    p.Add(e2);
    for (int i = 0; i < kRounds; ++i) {
      (void)p.WaitAny();
      grants.fetch_add(1, std::memory_order_relaxed);
    }
  });
  Thread setter = Thread::Fork([&] {
    // 2*kRounds pulses across the three events; e1 is shared, so any mix
    // of the two waiters can take its pulses. Keep feeding until both
    // waiters have had their fill.
    for (int i = 0; grants.load(std::memory_order_relaxed) < 2 * kRounds;
         ++i) {
      switch (i % 3) {
        case 0: e0.Set(); break;
        case 1: e1.Set(); break;
        case 2: e2.Set(); break;
      }
      if (i % 16 == 0) {
        std::this_thread::sleep_for(1ms);
      }
    }
  });
  w0.Join();
  w1.Join();
  setter.Join();
  EXPECT_EQ(grants.load(), 2 * kRounds);
}

// perfbench's poll.spurious_scan_frac divides kPollSpuriousScans by
// kPollRegistrations, so the denominator must count registrations in force,
// not registrations installed: a Poll's nodes stay linked between waits and
// are installed once. It counts one per member per wait round.
TEST(PollTest, RegistrationsCountOnePerMemberPerRound) {
  Event a;  // manual: every wait is granted on its first round
  Event b;
  Poll p;
  p.Add(a);
  p.Add(b);
  a.Set();
  const obs::Stats before = obs::Snapshot();
  constexpr int kWaits = 5;
  for (int i = 0; i < kWaits; ++i) {
    (void)p.WaitAny();
  }
  const obs::Stats after = obs::Snapshot();
  EXPECT_EQ(after.Count(obs::Counter::kPollRegistrations) -
                before.Count(obs::Counter::kPollRegistrations),
            kWaits * p.size());
  EXPECT_EQ(after.Count(obs::Counter::kPollSpuriousScans) -
                before.Count(obs::Counter::kPollSpuriousScans),
            0u);
}

// Two Polls on one thread share an Event. The first Poll's registrations
// stay linked after its wait returns; a Set of a member only it has must
// not wake the thread while it waits on the second Poll, and a Set of the
// shared member wakes it through the second.
TEST(PollTest, AnIdlePollDoesNotWakeItsThread) {
  Event shared(EventReset::kAuto);
  Event a_only(EventReset::kAuto);
  Event b_only(EventReset::kAuto);
  std::atomic<bool> a_done{false};
  std::atomic<std::size_t> granted{99};
  Thread waiter = Thread::Fork([&] {
    Poll a;
    a.Add(shared);
    a.Add(a_only);
    Poll b;
    b.Add(shared);
    b.Add(b_only);
    a_only.Set();
    EXPECT_EQ(a.WaitAny(), 1u);  // a's registrations are now resident
    a_done.store(true, std::memory_order_release);
    granted.store(b.WaitAny(), std::memory_order_release);
    granted.store(b.WaitAny(), std::memory_order_release);
  });
  while (!a_done.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  AwaitBlocked(waiter);
  const obs::Stats before = obs::Snapshot();
  a_only.Set();  // for the Poll not being waited on
  std::this_thread::sleep_for(20ms);
  EXPECT_TRUE(IsBlocked(waiter)) << "a Set for the idle Poll woke the thread";
  EXPECT_EQ(granted.load(std::memory_order_acquire), 99u);
  EXPECT_TRUE(a_only.IsSet());  // nobody consumed it
  b_only.Set();
  while (granted.load(std::memory_order_acquire) != 1u) {
    std::this_thread::yield();
  }
  AwaitBlocked(waiter);
  shared.Set();
  waiter.Join();
  EXPECT_EQ(granted.load(std::memory_order_acquire), 0u);
  EXPECT_TRUE(a_only.IsSet());
  EXPECT_EQ(obs::Snapshot().Count(obs::Counter::kPollSpuriousScans) -
                before.Count(obs::Counter::kPollSpuriousScans),
            0u);
}

// A Poll is waited on by one thread, then by others, each after the one
// before has exited (so its record may be reused, under a new id, or not).
// Each wait must re-point the resident registrations at its own thread, or
// the Set below notifies the previous waiter's record and leaves this one
// parked.
TEST(PollTest, APollOutlivesItsWaitingThread) {
  Event e(EventReset::kAuto);
  Poll p;
  p.Add(e);
  e.Set();
  EXPECT_EQ(p.WaitAny(), 0u);  // resident, on this thread's record
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE(round);
    std::atomic<int> result{-1};
    Thread waiter = Thread::Fork([&] {
      result.store(static_cast<int>(p.WaitAnyFor(5s).result),
                   std::memory_order_release);
    });
    AwaitBlocked(waiter);
    const auto set_at = std::chrono::steady_clock::now();
    e.Set();
    waiter.Join();
    // A wake that went to the wrong record shows as the deadline's final
    // scan granting the member, seconds late.
    EXPECT_LT(std::chrono::steady_clock::now() - set_at, 4s);
    EXPECT_EQ(result.load(std::memory_order_acquire),
              static_cast<int>(WaitResult::kSatisfied));
  }
}

// Two threads wait on one Poll at once: the second registers nodes of its
// own, and each auto-reset pulse releases one of them. A pulse that reaches
// neither shows as a wait that lasts until its deadline.
TEST(PollTest, TwoThreadsWaitOnOnePoll) {
  Event e(EventReset::kAuto);
  Event unused(EventReset::kAuto);
  Poll p;
  p.Add(unused);
  p.Add(e);
  constexpr int kRounds = 200;
  std::atomic<int> grants{0};
  std::atomic<int> late{0};
  std::atomic<int> done{0};
  auto wait_loop = [&] {
    for (int i = 0; i < kRounds; ++i) {
      const auto start = std::chrono::steady_clock::now();
      const Poll::AnyResult r = p.WaitAnyFor(3s);
      if (r.result != WaitResult::kSatisfied ||
          std::chrono::steady_clock::now() - start > 2s) {
        late.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      EXPECT_EQ(r.index, 1u);
      grants.fetch_add(1, std::memory_order_relaxed);
    }
    done.fetch_add(1, std::memory_order_release);
  };
  Thread w0 = Thread::Fork(wait_loop);
  Thread w1 = Thread::Fork(wait_loop);
  while (done.load(std::memory_order_acquire) < 2) {
    if (!e.IsSet()) {
      e.Set();
    }
    std::this_thread::yield();
  }
  w0.Join();
  w1.Join();
  EXPECT_EQ(late.load(), 0) << "a pulse reached neither waiter";
  EXPECT_EQ(grants.load(), 2 * kRounds);
}

// --- MessageQueue ---

TEST(MessageQueueTest, FifoWithinCapacity) {
  MessageQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(q.Send(i), QueueResult::kOk);
  }
  EXPECT_EQ(q.TrySend(99), QueueResult::kWouldBlock);  // full
  for (int i = 0; i < 4; ++i) {
    int v = -1;
    EXPECT_EQ(q.Recv(&v), QueueResult::kOk);
    EXPECT_EQ(v, i);
  }
  int v;
  EXPECT_EQ(q.TryRecv(&v), QueueResult::kWouldBlock);  // empty, open
}

TEST(MessageQueueTest, ReadinessEventsTrackLevels) {
  MessageQueue<int> q(2);
  EXPECT_FALSE(q.readable().IsSet());
  EXPECT_TRUE(q.writable().IsSet());
  (void)q.Send(1);
  EXPECT_TRUE(q.readable().IsSet());
  EXPECT_TRUE(q.writable().IsSet());
  (void)q.Send(2);
  EXPECT_FALSE(q.writable().IsSet());  // full
  int v;
  (void)q.Recv(&v);
  EXPECT_TRUE(q.writable().IsSet());
  (void)q.Recv(&v);
  EXPECT_FALSE(q.readable().IsSet());  // drained, open
}

// The Sets the flight recorder saw on a queue's readiness events.
struct SetCounts {
  int readable = 0;
  int writable = 0;
};

// Stops the recorder, drains it (clearing every ring) and counts the
// EventSet events on q's readable() and writable(). Quiescent callers
// only, like the drain itself.
SetCounts DrainSets(MessageQueue<int>& q) {
  obs::SetRecorderEnabled(false);
  std::string error;
  const std::optional<obs::json::Value> doc =
      obs::json::Parse(obs::DrainChromeTraceJson(), &error);
  EXPECT_TRUE(doc.has_value()) << error;
  SetCounts counts;
  const obs::json::Value* events = doc ? doc->Find("traceEvents") : nullptr;
  if (events == nullptr) {
    return counts;
  }
  for (const obs::json::Value& ev : events->array) {
    const obs::json::Value* name = ev.Find("name");
    const obs::json::Value* args = ev.Find("args");
    const obs::json::Value* obj = args != nullptr ? args->Find("obj") : nullptr;
    if (name == nullptr || obj == nullptr ||
        name->string != obs::OpName(obs::Op::kEventSet)) {
      continue;
    }
    if (obj->number == static_cast<double>(q.readable().id())) {
      ++counts.readable;
    } else if (obj->number == static_cast<double>(q.writable().id())) {
      ++counts.writable;
    }
  }
  return counts;
}

TEST(MessageQueueTest, SetsReadinessOnlyOnEdges) {
  // readable() is set on the empty -> non-empty edge alone and writable()
  // on the full -> not-full edge alone: a Send into a non-empty queue and a
  // TryRecv from a non-full one issue no Set at all.
  MessageQueue<int> q(3);
  (void)DrainSets(q);  // clears what earlier tests recorded
  int v = 0;

  obs::SetRecorderEnabled(true);
  ASSERT_EQ(q.Send(1), QueueResult::kOk);  // 0 -> 1: readable's edge
  SetCounts sets = DrainSets(q);
  EXPECT_EQ(sets.readable, 1);
  EXPECT_EQ(sets.writable, 0);

  obs::SetRecorderEnabled(true);
  ASSERT_EQ(q.Send(2), QueueResult::kOk);      // 1 -> 2
  ASSERT_EQ(q.TryRecv(&v), QueueResult::kOk);  // 2 -> 1, was not full
  ASSERT_EQ(q.Send(3), QueueResult::kOk);      // 1 -> 2
  sets = DrainSets(q);
  EXPECT_EQ(sets.readable, 0) << "a Send into a non-empty queue set readable";
  EXPECT_EQ(sets.writable, 0) << "a TryRecv from a non-full queue set writable";

  obs::SetRecorderEnabled(true);
  ASSERT_EQ(q.Send(4), QueueResult::kOk);      // 2 -> 3: full, a Reset
  ASSERT_EQ(q.TryRecv(&v), QueueResult::kOk);  // 3 -> 2: writable's edge
  sets = DrainSets(q);
  EXPECT_EQ(sets.readable, 0);
  EXPECT_EQ(sets.writable, 1);

  obs::SetRecorderEnabled(true);
  ASSERT_EQ(q.TryRecv(&v), QueueResult::kOk);  // 2 -> 1
  ASSERT_EQ(q.TryRecv(&v), QueueResult::kOk);  // 1 -> 0: a Reset
  EXPECT_EQ(v, 4);
  ASSERT_EQ(q.Send(5), QueueResult::kOk);  // 0 -> 1: readable's edge
  sets = DrainSets(q);
  EXPECT_EQ(sets.readable, 1);
  EXPECT_EQ(sets.writable, 0);
  EXPECT_TRUE(q.readable().IsSet());
  EXPECT_TRUE(q.writable().IsSet());
}

TEST(MessageQueueTest, SendBlocksOnFullUntilRecv) {
  MessageQueue<int> q(1);
  (void)q.Send(1);
  std::atomic<bool> sent{false};
  Thread sender = Thread::Fork([&] {
    EXPECT_EQ(q.Send(2), QueueResult::kOk);
    sent.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(sent.load(std::memory_order_acquire));
  int v = 0;
  EXPECT_EQ(q.Recv(&v), QueueResult::kOk);
  EXPECT_EQ(v, 1);
  sender.Join();
  EXPECT_EQ(q.Recv(&v), QueueResult::kOk);
  EXPECT_EQ(v, 2);
}

TEST(MessageQueueTest, RecvBlocksOnEmptyUntilSend) {
  MessageQueue<std::string> q(2);
  std::atomic<bool> got{false};
  Thread receiver = Thread::Fork([&] {
    std::string s;
    EXPECT_EQ(q.Recv(&s), QueueResult::kOk);
    EXPECT_EQ(s, "hello");
    got.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(got.load(std::memory_order_acquire));
  (void)q.Send(std::string("hello"));
  receiver.Join();
}

TEST(MessageQueueTest, TimedVariantsTimeOut) {
  MessageQueue<int> q(1);
  int v;
  EXPECT_EQ(q.RecvFor(&v, std::chrono::milliseconds(10)),
            QueueResult::kTimeout);
  (void)q.Send(1);
  EXPECT_EQ(q.SendFor(2, std::chrono::milliseconds(10)),
            QueueResult::kTimeout);
  EXPECT_EQ(q.RecvFor(&v, std::chrono::milliseconds(10)), QueueResult::kOk);
  EXPECT_EQ(v, 1);
}

TEST(MessageQueueTest, CloseDrainsThenFails) {
  MessageQueue<int> q(4);
  (void)q.Send(1);
  (void)q.Send(2);
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.Send(3), QueueResult::kClosed);
  int v = 0;
  EXPECT_EQ(q.Recv(&v), QueueResult::kOk);  // drains survive Close
  EXPECT_EQ(v, 1);
  EXPECT_EQ(q.Recv(&v), QueueResult::kOk);
  EXPECT_EQ(v, 2);
  EXPECT_EQ(q.Recv(&v), QueueResult::kClosed);  // closed and drained
  q.Close();  // idempotent
}

TEST(MessageQueueTest, CloseWakesBlockedParties) {
  MessageQueue<int> q(1);
  (void)q.Send(1);  // full: senders will block
  std::atomic<int> closed_results{0};
  Thread sender = Thread::Fork([&] {
    if (q.Send(2) == QueueResult::kClosed) {
      closed_results.fetch_add(1, std::memory_order_relaxed);
    }
  });
  MessageQueue<int> empty(1);
  Thread receiver = Thread::Fork([&] {
    int v;
    if (empty.Recv(&v) == QueueResult::kClosed) {
      closed_results.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::this_thread::sleep_for(20ms);
  q.Close();
  empty.Close();
  sender.Join();
  receiver.Join();
  EXPECT_EQ(closed_results.load(), 2);
}

TEST(MessageQueueTest, FanInReceiverViaWaitAny) {
  // The motivating composition: one receiver draining two queues plus a
  // shutdown event through a single WaitAny, Mesa-style retry on
  // kWouldBlock.
  MessageQueue<int> q0(4);
  MessageQueue<int> q1(4);
  Event shutdown;  // manual
  constexpr int kPerQueue = 200;
  std::atomic<std::int64_t> sum{0};
  std::atomic<int> received{0};

  Thread receiver = Thread::Fork([&] {
    Poll p;
    p.Add(q0.readable());
    p.Add(q1.readable());
    p.Add(shutdown);
    for (;;) {
      const std::size_t idx = p.WaitAny();
      if (idx == 2) {
        // Shutdown: drain whatever is left, then exit.
        int v;
        while (q0.TryRecv(&v) == QueueResult::kOk) {
          sum.fetch_add(v, std::memory_order_relaxed);
          received.fetch_add(1, std::memory_order_relaxed);
        }
        while (q1.TryRecv(&v) == QueueResult::kOk) {
          sum.fetch_add(v, std::memory_order_relaxed);
          received.fetch_add(1, std::memory_order_relaxed);
        }
        return;
      }
      int v;
      MessageQueue<int>& q = idx == 0 ? q0 : q1;
      if (q.TryRecv(&v) == QueueResult::kOk) {  // hint: may have lost a race
        sum.fetch_add(v, std::memory_order_relaxed);
        received.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  Thread p0 = Thread::Fork([&] {
    for (int i = 1; i <= kPerQueue; ++i) {
      ASSERT_EQ(q0.Send(i), QueueResult::kOk);
    }
  });
  Thread p1 = Thread::Fork([&] {
    for (int i = 1; i <= kPerQueue; ++i) {
      ASSERT_EQ(q1.Send(i), QueueResult::kOk);
    }
  });
  p0.Join();
  p1.Join();
  // Let the receiver drain, then raise shutdown.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (received.load(std::memory_order_relaxed) < 2 * kPerQueue &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  shutdown.Set();
  receiver.Join();
  EXPECT_EQ(received.load(), 2 * kPerQueue);
  const std::int64_t expected =
      2 * (static_cast<std::int64_t>(kPerQueue) * (kPerQueue + 1) / 2);
  EXPECT_EQ(sum.load(), expected);
}

TEST(MessageQueueTest, MpmcConservesItems) {
  MessageQueue<int> q(8);
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 500;
  std::atomic<std::int64_t> sum{0};
  std::atomic<int> consumed{0};

  std::vector<Thread> threads;
  for (int t = 0; t < kProducers; ++t) {
    threads.push_back(Thread::Fork([&q] {
      for (int i = 1; i <= kPerProducer; ++i) {
        ASSERT_EQ(q.Send(i), QueueResult::kOk);
      }
    }));
  }
  for (int t = 0; t < kConsumers; ++t) {
    threads.push_back(Thread::Fork([&] {
      int v;
      while (q.Recv(&v) == QueueResult::kOk) {
        sum.fetch_add(v, std::memory_order_relaxed);
        consumed.fetch_add(1, std::memory_order_relaxed);
      }
    }));
  }
  // Producers first (the first kProducers threads), then close.
  for (int t = 0; t < kProducers; ++t) {
    threads[static_cast<std::size_t>(t)].Join();
  }
  q.Close();
  for (std::size_t t = kProducers; t < threads.size(); ++t) {
    threads[t].Join();
  }
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  const std::int64_t per =
      static_cast<std::int64_t>(kPerProducer) * (kPerProducer + 1) / 2;
  EXPECT_EQ(sum.load(), kProducers * per);
}

TEST(MessageQueueTest, PollConsumersDrainEveryItem) {
  // Two producers and two WaitAny consumers on tiny queues, so both
  // readiness edges fire constantly and a consumer's Reset often lands
  // between a Send's flag store and its wake (the wake is then spurious,
  // never lost). Every item arrives exactly once. A lost wake would leave a
  // consumer parked on a non-empty queue and, with capacity 1 or 2, the
  // producers blocked on a full one: the deadline turns that into a
  // failure instead of a hang.
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr int kPerProducer = 4000;
  constexpr int kItems = kProducers * kPerProducer;
  for (std::size_t capacity : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(testing::Message() << "capacity " << capacity);
    MessageQueue<int> q(capacity);
    Event done;  // manual
    std::vector<std::atomic<int>> seen(kItems);
    std::atomic<int> received{0};
    auto take = [&](int item) {
      seen[static_cast<std::size_t>(item)].fetch_add(1,
                                                     std::memory_order_relaxed);
      received.fetch_add(1, std::memory_order_release);
    };

    std::vector<Thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.push_back(Thread::Fork([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          if (q.Send(p * kPerProducer + i) != QueueResult::kOk) {
            return;  // closed by the deadline below
          }
        }
      }));
    }
    std::vector<Thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
      consumers.push_back(Thread::Fork([&] {
        Poll poll;
        poll.Add(q.readable());
        poll.Add(done);
        int item = 0;
        while (poll.WaitAny() == 0) {
          const QueueResult r = q.TryRecv(&item);  // a hint: may lose
          if (r == QueueResult::kOk) {
            take(item);
          } else if (r == QueueResult::kClosed) {
            break;
          }
        }
      }));
    }

    const auto deadline = std::chrono::steady_clock::now() + 60s;
    while (received.load(std::memory_order_acquire) < kItems &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    const bool drained = received.load(std::memory_order_acquire) == kItems;
    EXPECT_TRUE(drained) << "items stopped arriving: a wake was lost";
    // Unstick whatever the deadline left waiting, then join.
    q.Close();
    done.Set();
    if (!drained) {
      // A lost wake can leave a thread parked on a set event. Once closed,
      // both events stay set, so setting them again changes no state; it
      // only re-delivers the wakes, so the joins below return.
      q.readable().Set();
      q.writable().Set();
    }
    for (Thread& t : producers) {
      t.Join();
    }
    for (Thread& t : consumers) {
      t.Join();
    }
    for (int i = 0; i < kItems; ++i) {
      ASSERT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
    }
  }
}

// The lock-free ring at its two smallest capacities (capacity 1 is the one
// a sequence scheme without half-steps cannot express), two producers and
// two blocking consumers: every item is received exactly once. A lost
// readiness would leave a consumer blocked on a non-empty ring; the
// deadline turns that into a failure instead of a hang.
TEST(MessageQueueTest, MpmcConservesItemsAtCapacityOneAndTwo) {
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr int kPerProducer = 5000;
  constexpr int kItems = kProducers * kPerProducer;
  for (std::size_t capacity : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(testing::Message() << "capacity " << capacity);
    MessageQueue<int> q(capacity);
    std::vector<std::atomic<int>> seen(kItems);
    std::atomic<int> received{0};
    std::vector<Thread> threads;
    for (int p = 0; p < kProducers; ++p) {
      threads.push_back(Thread::Fork([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          if (q.Send(p * kPerProducer + i) != QueueResult::kOk) {
            return;  // closed by the deadline below
          }
        }
      }));
    }
    for (int c = 0; c < kConsumers; ++c) {
      threads.push_back(Thread::Fork([&] {
        int item = 0;
        while (q.Recv(&item) == QueueResult::kOk) {
          seen[static_cast<std::size_t>(item)].fetch_add(
              1, std::memory_order_relaxed);
          received.fetch_add(1, std::memory_order_release);
        }
      }));
    }
    const auto deadline = std::chrono::steady_clock::now() + 60s;
    while (received.load(std::memory_order_acquire) < kItems &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    EXPECT_EQ(received.load(std::memory_order_acquire), kItems)
        << "items stopped arriving: a readiness was lost";
    q.Close();
    if (received.load(std::memory_order_acquire) < kItems) {
      // Re-deliver the wakes a lost readiness withheld, so the joins return
      // (both events stay set once the queue is closed).
      q.readable().Set();
      q.writable().Set();
    }
    for (Thread& t : threads) {
      t.Join();
    }
    for (int i = 0; i < kItems; ++i) {
      ASSERT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
    }
  }
}

// Close racing Sends in flight: every Send that returned kOk is received,
// and a Send that starts after Close returned is refused.
TEST(MessageQueueTest, CloseRacingSendsLosesNoAcceptedItem) {
  constexpr int kProducers = 3;
  constexpr int kMaxPerProducer = 1 << 20;
  for (int round = 0; round < 100; ++round) {
    SCOPED_TRACE(round);
    MessageQueue<int> q(4);
    std::atomic<bool> close_returned{false};
    std::atomic<int> accepted_after_close{0};
    std::atomic<std::int64_t> accepted_sum{0};
    std::atomic<int> accepted{0};
    std::vector<Thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.push_back(Thread::Fork([&, p] {
        for (int i = 1; i <= kMaxPerProducer; ++i) {
          const bool after = close_returned.load(std::memory_order_acquire);
          const int v = p * kMaxPerProducer + i;
          if (q.Send(v) != QueueResult::kOk) {
            return;
          }
          accepted.fetch_add(1, std::memory_order_relaxed);
          accepted_sum.fetch_add(v, std::memory_order_relaxed);
          if (after) {
            accepted_after_close.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }));
    }
    std::atomic<int> received{0};
    std::atomic<std::int64_t> received_sum{0};
    Thread consumer = Thread::Fork([&] {
      int v = 0;
      while (q.Recv(&v) == QueueResult::kOk) {
        received.fetch_add(1, std::memory_order_relaxed);
        received_sum.fetch_add(v, std::memory_order_relaxed);
      }
    });
    std::this_thread::sleep_for(std::chrono::microseconds(100 + 20 * round));
    q.Close();
    close_returned.store(true, std::memory_order_release);
    for (Thread& t : producers) {
      t.Join();
    }
    consumer.Join();
    EXPECT_EQ(accepted_after_close.load(), 0);
    EXPECT_EQ(received.load(), accepted.load());
    EXPECT_EQ(received_sum.load(), accepted_sum.load());
    int v = 0;
    EXPECT_EQ(q.TryRecv(&v), QueueResult::kClosed);
    EXPECT_EQ(q.TrySend(0), QueueResult::kClosed);
  }
}

TEST(MessageQueueTest, MoveOnlyPayload) {
  MessageQueue<std::unique_ptr<int>> q(2);
  ASSERT_EQ(q.Send(std::make_unique<int>(7)), QueueResult::kOk);
  std::unique_ptr<int> out;
  ASSERT_EQ(q.Recv(&out), QueueResult::kOk);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 7);
  // Items left behind at destruction are destroyed (ASan would flag a leak).
  ASSERT_EQ(q.Send(std::make_unique<int>(8)), QueueResult::kOk);
}

}  // namespace
}  // namespace taos
