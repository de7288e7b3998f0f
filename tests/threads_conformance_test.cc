// Conformance harness for the sharded Nub: real threads hammer the
// production primitives in spec-tracing mode, and every recorded trace is
// replayed through the executable specification's checker. Each scenario
// runs in both lock modes — per-object locks and TAOS_NUB_GLOBAL_LOCK
// semantics — so the sharded configuration is held to exactly the
// serializations the paper-faithful one admits.
//
// The trace is sorted by the global sequence stamp (src/spec/trace.h), so a
// passing check here is evidence for the serialization argument in
// DESIGN.md §8, not just for each primitive in isolation.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/chaos.h"
#include "src/spec/checker.h"
#include "src/threads/threads.h"
#include "src/workload/bounded_buffer.h"

namespace taos {
namespace {

// Sanitized builds run the same schedules at reduced iteration counts, and
// so do chaos runs: injected delays stretch every slow path, so the matrix
// keeps the sanitizer budget to stay inside the ctest timeout. A function
// (not a namespace-scope constant) because the chaos flag is set by env at
// static-init time in another translation unit.
int Scale() {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  return 1;
#else
  return chaos::Active() ? 1 : 4;
#endif
}

enum class LockMode { kSharded, kGlobal };

std::string ModeName(const ::testing::TestParamInfo<LockMode>& info) {
  return info.param == LockMode::kSharded ? "Sharded" : "Global";
}

class ConformanceTest : public ::testing::TestWithParam<LockMode> {
 protected:
  void SetUp() override {
    ASSERT_FALSE(Nub::Get().tracing());
    saved_lock_mode_ = Nub::Get().global_lock_mode();
    // The system is quiescent between tests, so switching is legal.
    Nub::Get().SetGlobalLockMode(GetParam() == LockMode::kGlobal);
    Nub::Get().SetTrace(&trace_);
  }

  void TearDown() override {
    Nub::Get().SetTrace(nullptr);
    Nub::Get().SetGlobalLockMode(saved_lock_mode_);
  }

  void CheckConformance() {
    Nub::Get().SetTrace(nullptr);
    spec::TraceChecker checker;
    spec::CheckResult r = checker.CheckTrace(trace_);
    EXPECT_TRUE(r.ok) << "at action " << r.failed_index << ": " << r.message
                      << "\ntrace:\n"
                      << trace_.ToString();
    checked_ = r;
  }

  spec::Trace trace_;
  spec::CheckResult checked_;
  bool saved_lock_mode_ = false;
};

// Many threads over many mutexes: the scenario sharding exists for. Each
// thread walks all the mutexes with its own stride, so every pair of
// threads collides on every object sooner or later.
TEST_P(ConformanceTest, MutexStormManyObjects) {
  constexpr int kMutexes = 4;
  constexpr int kThreads = 8;
  const int iters = 30 * Scale();
  Mutex mutexes[kMutexes];
  std::int64_t counters[kMutexes] = {};
  std::vector<Thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.push_back(Thread::Fork([&, t] {
      for (int i = 0; i < iters; ++i) {
        const int k = (i * (t % kMutexes + 1) + t) % kMutexes;
        Lock lock(mutexes[k]);
        ++counters[k];
      }
    }));
  }
  for (Thread& t : threads) {
    t.Join();
  }
  std::int64_t total = 0;
  for (std::int64_t c : counters) {
    total += c;
  }
  EXPECT_EQ(total, static_cast<std::int64_t>(kThreads) * iters);
  CheckConformance();
  EXPECT_EQ(checked_.actions_checked,
            2u * static_cast<std::uint64_t>(kThreads) * iters);
}

// Signal and Broadcast racing Wait on two independent conditions, with the
// producer/consumer predicate forcing real blocking.
TEST_P(ConformanceTest, ConditionSignalBroadcastStress) {
  const int rounds = 25 * Scale();
  Mutex m;
  Condition not_empty;
  Condition not_full;
  int value = 0;  // 0 = empty
  std::vector<Thread> producers;
  std::vector<Thread> consumers;
  for (int p = 0; p < 2; ++p) {
    producers.push_back(Thread::Fork([&] {
      for (int r = 0; r < rounds; ++r) {
        Lock lock(m);
        while (value != 0) {
          not_full.Wait(m);
        }
        value = 1;
        if (r % 4 == 0) {
          not_empty.Broadcast();
        } else {
          not_empty.Signal();
        }
      }
    }));
  }
  for (int c = 0; c < 2; ++c) {
    consumers.push_back(Thread::Fork([&] {
      for (int r = 0; r < rounds; ++r) {
        Lock lock(m);
        while (value == 0) {
          not_empty.Wait(m);
        }
        value = 0;
        not_full.Broadcast();
      }
    }));
  }
  for (Thread& t : producers) {
    t.Join();
  }
  for (Thread& t : consumers) {
    t.Join();
  }
  EXPECT_EQ(value, 0);
  CheckConformance();
}

// Semaphores as tokens circulating through a ring of threads, plus an
// "interrupt" thread doing bare Vs (no precondition on V).
TEST_P(ConformanceTest, SemaphoreRing) {
  constexpr int kStations = 4;
  const int laps = 25 * Scale();
  Semaphore ring[kStations];
  for (Semaphore& s : ring) {
    s.P();  // all stations start empty
  }
  std::vector<Thread> threads;
  for (int i = 0; i < kStations; ++i) {
    threads.push_back(Thread::Fork([&, i] {
      for (int lap = 0; lap < laps; ++lap) {
        ring[i].P();
        ring[(i + 1) % kStations].V();
      }
    }));
  }
  ring[0].V();  // inject the token
  for (Thread& t : threads) {
    t.Join();
  }
  ring[0].P();  // retire it
  CheckConformance();
}

// Alert storms against all three alert-responsive points while the victims
// also get woken the normal way — the cross-object paths (rule 3's try-lock
// dance) under real contention.
TEST_P(ConformanceTest, AlertStorm) {
  const int rounds = 10 * Scale();
  Mutex m;
  Condition c;
  Semaphore s;
  s.P();  // keep it unavailable so AlertP really blocks
  int alerted_waits = 0;
  int normal_waits = 0;
  for (int r = 0; r < rounds; ++r) {
    bool flag = false;
    Thread waiter = Thread::Fork([&] {
      Lock lock(m);
      try {
        while (!flag) {
          AlertWait(m, c);
        }
        ++normal_waits;
      } catch (const Alerted&) {
        ++alerted_waits;
      }
    });
    Thread p_victim = Thread::Fork([&] {
      try {
        AlertP(s);
        s.V();  // took the token: put it back
      } catch (const Alerted&) {
      }
    });
    if (r % 2 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Alert(waiter.Handle());
    Alert(p_victim.Handle());
    {
      Lock lock(m);
      flag = true;
    }
    c.Signal();
    s.V();
    waiter.Join();
    p_victim.Join();
    // Drain whatever the round left behind: the token if p_victim raised,
    // and this thread's never-set alert flag.
    s.P();
    EXPECT_FALSE(TestAlert());
  }
  EXPECT_EQ(alerted_waits + normal_waits, rounds);
  CheckConformance();
}

// Alerts through the handles of joined threads, whose records later threads
// reuse: each lands on a thread that has exited, and the reusing thread,
// a different thread to the spec, finds no alert pending.
TEST_P(ConformanceTest, AlertsOutliveTheirThreads) {
  const int rounds = 10 * Scale();
  Mutex m;
  Condition c;
  int pending = 0;
  ThreadHandle stale;
  for (int r = 0; r < rounds; ++r) {
    Thread t = Thread::Fork([&] {
      Lock lock(m);
      if (TestAlert()) {
        ++pending;
      }
      (void)AlertWaitFor(m, c, std::chrono::microseconds(1));
    });
    if (r > 0) {
      Alert(stale);
    }
    t.Join();
    stale = t.Handle();
    Alert(stale);
  }
  EXPECT_EQ(pending, 0);
  CheckConformance();
}

// Two bounded buffers run by disjoint thread pairs: in sharded mode their
// slow paths never touch a common lock, and the merged trace must still
// serialize.
TEST_P(ConformanceTest, TwoBoundedBuffers) {
  const int items = 50 * Scale();
  workload::BoundedBuffer<Mutex, Condition> left(2);
  workload::BoundedBuffer<Mutex, Condition> right(3);
  std::uint64_t left_sum = 0;
  std::uint64_t right_sum = 0;
  Thread lp = Thread::Fork([&] {
    for (int i = 1; i <= items; ++i) {
      left.Put(static_cast<std::uint64_t>(i));
    }
  });
  Thread lc = Thread::Fork([&] {
    for (int i = 0; i < items; ++i) {
      left_sum += left.Get();
    }
  });
  Thread rp = Thread::Fork([&] {
    for (int i = 1; i <= items; ++i) {
      right.Put(static_cast<std::uint64_t>(i) * 10);
    }
  });
  Thread rc = Thread::Fork([&] {
    for (int i = 0; i < items; ++i) {
      right_sum += right.Get();
    }
  });
  lp.Join();
  lc.Join();
  rp.Join();
  rc.Join();
  const std::uint64_t n = static_cast<std::uint64_t>(items);
  EXPECT_EQ(left_sum, n * (n + 1) / 2);
  EXPECT_EQ(right_sum, 10 * n * (n + 1) / 2);
  CheckConformance();
}

// Timed waits in traced mode, deadlines racing grants across the whole
// matrix: the checker holds AcquireFor/PFor to their one-action timeout
// kinds (UNCHANGED [m] / UNCHANGED [s]) and WaitFor/AlertWaitFor to the
// Enqueue;TimeoutResume composition — including the Signal-vs-expiry races
// where the timer dequeued a thread that is still a spec-member of c.
TEST_P(ConformanceTest, TimedWaitsRaceGrantsAndExpiry) {
  const int iters = 15 * Scale();
  Mutex m;
  Condition c;
  Semaphore s;
  std::atomic<bool> stop{false};
  std::vector<Thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.push_back(Thread::Fork([&, t] {
      for (int i = 0; i < iters; ++i) {
        const auto timeout = std::chrono::microseconds(40 * ((t + i) % 5));
        if (m.AcquireFor(timeout) == WaitResult::kSatisfied) {
          m.Release();
        }
        if (s.PFor(timeout) == WaitResult::kSatisfied) {
          s.V();
        }
        m.Acquire();
        if (i % 2 == 0) {
          c.WaitFor(m, timeout);
        } else {
          AlertWaitFor(m, c, timeout);
        }
        m.Release();
      }
    }));
  }
  Thread signaller = Thread::Fork([&] {
    while (!stop.load(std::memory_order_acquire)) {
      c.Signal();
      std::this_thread::yield();
    }
  });
  for (Thread& t : threads) {
    t.Join();
  }
  stop.store(true, std::memory_order_release);
  signaller.Join();
  CheckConformance();
}

// Readers and writers over two ReaderWriterMutexes, timed and untimed:
// reader/reader overlap is a legal serialization (the checker admits
// concurrent members of rw.readers), writers must serialize, and the timed
// variants hold RWAcquireFor/TIMEOUT and RWAcquireSharedFor/TIMEOUT to
// UNCHANGED [rw].
TEST_P(ConformanceTest, RwlockSharedExclusiveStorm) {
  const int iters = 15 * Scale();
  ReaderWriterMutex locks[2];
  std::int64_t counters[2] = {};
  std::atomic<int> readers_seen{0};
  std::vector<Thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.push_back(Thread::Fork([&, t] {
      for (int i = 0; i < iters; ++i) {
        ReaderWriterMutex& rw = locks[(t + i) % 2];
        const int op = (t + i) % 6;
        if (op < 3) {
          ReadLock rl(rw);
          readers_seen.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::yield();  // widen the reader/reader overlap
        } else if (op < 5) {
          WriteLock wl(rw);
          ++counters[(t + i) % 2];
        } else if (t % 2 == 0) {
          if (rw.AcquireSharedFor(std::chrono::microseconds(20 * (i % 3))) ==
              WaitResult::kSatisfied) {
            rw.ReleaseShared();
          }
        } else {
          if (rw.AcquireFor(std::chrono::microseconds(20 * (i % 3))) ==
              WaitResult::kSatisfied) {
            ++counters[(t + i) % 2];
            rw.Release();
          }
        }
      }
    }));
  }
  for (Thread& t : threads) {
    t.Join();
  }
  EXPECT_GT(readers_seen.load(std::memory_order_relaxed), 0);
  CheckConformance();
}

// The multi-object wait under tracing: WaitAny/WaitAll waiters (plain,
// timed, alertable) racing Sets on shared events. The checker holds every
// PollAny to "granted was set and the rest UNCHANGED", every PollAll to a
// simultaneous ∀-WHEN, and the auto-reset consumptions to exactly-once —
// the double-grant argument, replayed over the real runtime's
// serializations instead of the model's.
TEST_P(ConformanceTest, EventPollStorm) {
  const int rounds = 10 * Scale();
  Event a(EventReset::kAuto);
  Event b(EventReset::kAuto);
  Event m;  // manual: observed, never consumed
  std::atomic<int> grants{0};
  std::atomic<int> done{0};
  std::vector<Thread> waiters;
  for (int w = 0; w < 2; ++w) {
    waiters.push_back(Thread::Fork([&, w] {
      Poll p;
      p.Add(a);
      p.Add(b);
      for (int r = 0; r < rounds; ++r) {
        if ((r + w) % 3 == 0) {
          const Poll::AnyResult res =
              p.WaitAnyFor(std::chrono::microseconds(50 * (r % 4)));
          if (res.result == WaitResult::kSatisfied) {
            grants.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          (void)p.WaitAny();
          grants.fetch_add(1, std::memory_order_relaxed);
        }
      }
      done.fetch_add(1, std::memory_order_release);
    }));
  }
  Thread all_waiter = Thread::Fork([&] {
    Poll p;
    p.Add(b);
    p.Add(m);
    for (int r = 0; r < rounds; ++r) {
      if (p.WaitAllFor(std::chrono::microseconds(80)) ==
          WaitResult::kSatisfied) {
        grants.fetch_add(1, std::memory_order_relaxed);
      }
    }
    done.fetch_add(1, std::memory_order_release);
  });
  Thread setter = Thread::Fork([&] {
    // Over-provision pulses until every waiter retires: an auto pulse can
    // be consumed by a timed scan that then reports kTimeout on its next
    // round, so a counted feed cannot guarantee termination.
    int i = 0;
    while (done.load(std::memory_order_acquire) < 3) {
      switch (i++ % 4) {
        case 0: a.Set(); break;
        case 1: b.Set(); break;
        case 2: m.Set(); break;
        case 3: m.Reset(); break;
      }
      if (i % 8 == 0) {
        std::this_thread::yield();
      }
    }
  });
  for (Thread& t : waiters) {
    t.Join();
  }
  all_waiter.Join();
  setter.Join();
  EXPECT_GT(grants.load(std::memory_order_relaxed), 0);
  CheckConformance();
}

// Alertable poll waits racing Alert, grants, and timeouts: the PollAlert
// RAISES exit must serialize like AlertWait's (alert consumed, no member
// consumed), and a grant that beats the alert leaves the flag pending.
TEST_P(ConformanceTest, PollAlertRaces) {
  const int rounds = 8 * Scale();
  Event a(EventReset::kAuto);
  int raised = 0;
  int granted = 0;
  for (int r = 0; r < rounds; ++r) {
    Thread waiter = Thread::Fork([&] {
      Poll p;
      p.Add(a);
      try {
        if ((r % 2) == 0) {
          (void)p.AlertWaitAny();
          ++granted;
        } else {
          const Poll::AnyResult res =
              p.AlertWaitAnyFor(std::chrono::milliseconds(50));
          if (res.result == WaitResult::kSatisfied) {
            ++granted;
          } else {
            ++raised;  // kAlerted or kTimeout: count as a non-grant exit
          }
        }
      } catch (const Alerted&) {
        ++raised;
      }
    });
    if (r % 3 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Alert(waiter.Handle());
    a.Set();
    waiter.Join();
    // Drain the round's leftover pulse (present iff the waiter raised or
    // timed out); a leftover alert dies with the round's thread.
    (void)a.TryWait();
  }
  EXPECT_EQ(raised + granted, rounds);
  CheckConformance();
}

// The MessageQueue composition in traced mode: its Mutex, Events, and the
// receiver's WaitAny all interleave in one trace, and the checker holds the
// whole fabric — queue edges under the mutex, level events, poll grants —
// to a single serialization.
TEST_P(ConformanceTest, MessageQueueFanIn) {
  const int items = 12 * Scale();
  MessageQueue<int> q0(2);
  MessageQueue<int> q1(2);
  Event shutdown;
  std::int64_t sum = 0;
  Thread receiver = Thread::Fork([&] {
    Poll p;
    p.Add(q0.readable());
    p.Add(q1.readable());
    p.Add(shutdown);
    int received = 0;
    while (received < 2 * items) {
      const std::size_t idx = p.WaitAny();
      int v;
      if (idx == 0 && q0.TryRecv(&v) == QueueResult::kOk) {
        sum += v;
        ++received;
      } else if (idx == 1 && q1.TryRecv(&v) == QueueResult::kOk) {
        sum += v;
        ++received;
      }
    }
  });
  Thread p0 = Thread::Fork([&] {
    for (int i = 1; i <= items; ++i) {
      ASSERT_EQ(q0.Send(i), QueueResult::kOk);
    }
  });
  Thread p1 = Thread::Fork([&] {
    for (int i = 1; i <= items; ++i) {
      ASSERT_EQ(q1.SendFor(i, std::chrono::seconds(30)), QueueResult::kOk);
    }
  });
  p0.Join();
  p1.Join();
  receiver.Join();
  shutdown.Set();
  const std::int64_t n = items;
  EXPECT_EQ(sum, 2 * (n * (n + 1) / 2));
  CheckConformance();
}

INSTANTIATE_TEST_SUITE_P(LockModes, ConformanceTest,
                         ::testing::Values(LockMode::kSharded,
                                           LockMode::kGlobal),
                         ModeName);

// ---------------------------------------------------------------------------
// Rwlock checker semantics on hand-built traces: what the storm above can
// only exercise probabilistically is pinned here exactly — the checker
// ADMITS reader/reader overlap and REJECTS every overlap involving a writer.
// ---------------------------------------------------------------------------

TEST(RwlockCheckerTest, ReaderReaderOverlapAdmitted) {
  const spec::ObjId rw = 1;
  std::vector<spec::Action> actions = {
      spec::MakeRwAcquireShared(1, rw), spec::MakeRwAcquireShared(2, rw),
      spec::MakeRwReleaseShared(1, rw), spec::MakeRwReleaseShared(2, rw)};
  spec::TraceChecker checker;
  spec::CheckResult r = checker.CheckTrace(actions);
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_EQ(r.actions_checked, 4u);
}

TEST(RwlockCheckerTest, WriterOverlapsRejected) {
  const spec::ObjId rw = 1;
  spec::TraceChecker checker;
  {
    // A writer acquiring while a reader is inside: WHEN requires
    // rw.readers = {}.
    std::vector<spec::Action> actions = {spec::MakeRwAcquireShared(1, rw),
                                         spec::MakeRwAcquire(2, rw)};
    spec::CheckResult r = checker.CheckTrace(actions);
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.failed_index, 1u);
  }
  {
    // A reader admitted while a writer holds: WHEN requires rw.writer = NIL.
    std::vector<spec::Action> actions = {spec::MakeRwAcquire(1, rw),
                                         spec::MakeRwAcquireShared(2, rw)};
    spec::CheckResult r = checker.CheckTrace(actions);
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.failed_index, 1u);
  }
  {
    // Two writers.
    std::vector<spec::Action> actions = {spec::MakeRwAcquire(1, rw),
                                         spec::MakeRwAcquire(2, rw)};
    spec::CheckResult r = checker.CheckTrace(actions);
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.failed_index, 1u);
  }
  {
    // REQUIRES: releasing a shared hold it does not have.
    std::vector<spec::Action> actions = {spec::MakeRwReleaseShared(1, rw)};
    spec::CheckResult r = checker.CheckTrace(actions);
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.message.find("REQUIRES"), std::string::npos) << r.message;
  }
}

}  // namespace
}  // namespace taos
