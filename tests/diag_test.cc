// The contention-diagnosis layer (src/obs/diag): seqlock slot publication
// and snapshots, the owner table, cycle detection over the waits-for graph
// (pure), report formatting, a live blocked-thread snapshot against the
// real runtime, the watchdog's stall dump, and a nested-monitor deadlock
// through a condition wake deferred to the mutex release.
//
// The real-deadlock end-to-end check lives in diag_deadlock_fixture.cc (a
// deliberately hung process cannot share a gtest binary).

#include "src/obs/diag.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/threads/threads.h"

namespace taos {
namespace {

using namespace std::chrono_literals;
using obs::diag::BlockedEdge;
using obs::diag::Cycle;
using obs::diag::FindCycles;
using obs::diag::WaitKind;

BlockedEdge Edge(std::uint64_t tid, std::uint64_t obj, std::uint64_t owner,
                 WaitKind kind = WaitKind::kMutex) {
  BlockedEdge e;
  e.tid = tid;
  e.obj = obj;
  e.owner = owner;
  e.kind = kind;
  e.since_ns = 1000 * tid;
  return e;
}

// FindCycles requires edges sorted by tid (SnapshotBlocked's postcondition).
std::vector<BlockedEdge> Sorted(std::vector<BlockedEdge> edges) {
  std::sort(edges.begin(), edges.end(),
            [](const BlockedEdge& a, const BlockedEdge& b) {
              return a.tid < b.tid;
            });
  return edges;
}

TEST(DiagFindCyclesTest, EmptyAndAcyclic) {
  EXPECT_TRUE(FindCycles({}).empty());
  // t1 waits for an object held by t2, but t2 is running: no cycle.
  EXPECT_TRUE(FindCycles(Sorted({Edge(1, 10, 2)})).empty());
  // A chain t1 -> t2 -> t3 with t3 running: still none.
  EXPECT_TRUE(
      FindCycles(Sorted({Edge(1, 10, 2), Edge(2, 11, 3)})).empty());
  // Owner unknown (semaphore-like) terminates the walk.
  EXPECT_TRUE(
      FindCycles(Sorted({Edge(1, 10, 0, WaitKind::kSemaphore)})).empty());
}

TEST(DiagFindCyclesTest, TwoThreadCycleReportedOnceFromSmallestTid) {
  const auto cycles =
      FindCycles(Sorted({Edge(2, 11, 1), Edge(1, 10, 2)}));
  ASSERT_EQ(cycles.size(), 1u);
  ASSERT_EQ(cycles[0].edges.size(), 2u);
  EXPECT_EQ(cycles[0].edges[0].tid, 1u);  // walk starts at the smallest
  EXPECT_EQ(cycles[0].edges[0].obj, 10u);
  EXPECT_EQ(cycles[0].edges[1].tid, 2u);
  EXPECT_EQ(cycles[0].edges[1].obj, 11u);
}

TEST(DiagFindCyclesTest, ThreeThreadCycleAndDisjointCycles) {
  // 1 -> 2 -> 3 -> 1, plus a separate 7 <-> 8.
  const auto cycles = FindCycles(Sorted({
      Edge(1, 10, 2),
      Edge(2, 11, 3),
      Edge(3, 12, 1),
      Edge(7, 20, 8),
      Edge(8, 21, 7),
  }));
  ASSERT_EQ(cycles.size(), 2u);
  EXPECT_EQ(cycles[0].edges.size(), 3u);
  EXPECT_EQ(cycles[0].edges[0].tid, 1u);
  EXPECT_EQ(cycles[1].edges.size(), 2u);
  EXPECT_EQ(cycles[1].edges[0].tid, 7u);
}

TEST(DiagFindCyclesTest, LassoTailDoesNotFabricateMembership) {
  // t5 leads into the 1 <-> 2 cycle but is not part of it.
  const auto cycles =
      FindCycles(Sorted({Edge(1, 10, 2), Edge(2, 11, 1), Edge(5, 12, 1)}));
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].edges.size(), 2u);
  for (const BlockedEdge& e : cycles[0].edges) {
    EXPECT_NE(e.tid, 5u);
  }
}

TEST(DiagReportTest, FormatNamesThreadsObjectsAndCycles) {
  const auto edges = Sorted({Edge(1, 10, 2), Edge(2, 11, 1)});
  const auto cycles = FindCycles(edges);
  const std::string report =
      obs::diag::FormatBlockedReport(edges, cycles, 5'000'000);
  EXPECT_NE(report.find("2 blocked thread(s)"), std::string::npos) << report;
  EXPECT_NE(report.find("thread 1 blocked on mutex obj 10"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("held by thread 2"), std::string::npos) << report;
  EXPECT_NE(report.find("DEADLOCK: cycle of 2 thread(s):"), std::string::npos)
      << report;
  EXPECT_NE(report.find("thread 2 waits for mutex obj 11 held by thread 1"),
            std::string::npos)
      << report;
}

TEST(DiagSlotTest, PublishSnapshotClearRoundTrip) {
  obs::diag::WaiterSlot* slot = obs::diag::RegisterWaiterSlot(990001);
  obs::diag::PublishBlocked(slot, WaitKind::kCondition, 777, 123456,
                            /*alertable=*/true);
  bool found = false;
  for (const BlockedEdge& e : obs::diag::SnapshotBlocked()) {
    if (e.tid == 990001) {
      found = true;
      EXPECT_EQ(e.kind, WaitKind::kCondition);
      EXPECT_EQ(e.obj, 777u);
      EXPECT_EQ(e.since_ns, 123456u);
      EXPECT_TRUE(e.alertable);
    }
  }
  EXPECT_TRUE(found);
  obs::diag::ClearBlocked(slot);
  for (const BlockedEdge& e : obs::diag::SnapshotBlocked()) {
    EXPECT_NE(e.tid, 990001u);
  }
}

TEST(DiagOwnerTableTest, StampQueryRestampClear) {
  // Large ids: well clear of the spec ObjIds live tests allocate.
  const std::uint64_t obj = 0x7000'0001;
  EXPECT_EQ(obs::diag::OwnerOf(obj), 0u);
  obs::diag::StampOwner(obj, 41);
  EXPECT_EQ(obs::diag::OwnerOf(obj), 41u);
  obs::diag::StampOwner(obj, 42);  // restamp in place (barging handoff)
  EXPECT_EQ(obs::diag::OwnerOf(obj), 42u);
  obs::diag::ClearOwner(obj);
  EXPECT_EQ(obs::diag::OwnerOf(obj), 0u);
  // The freed cell is reusable by another object.
  obs::diag::StampOwner(obj + 1, 43);
  EXPECT_EQ(obs::diag::OwnerOf(obj + 1), 43u);
  EXPECT_EQ(obs::diag::OwnerOf(obj), 0u);
  obs::diag::ClearOwner(obj + 1);
}

// A real blocked thread is visible in a snapshot, with the owner resolved
// through the acquire-epilogue stamp, and disappears after the grant.
TEST(DiagRuntimeTest, LiveBlockedEdgeNamesObjectAndOwner) {
  obs::diag::SetEnabled(true);
  Mutex m;
  m.Acquire();
  const spec::ThreadId holder = Thread::Self().id();
  EXPECT_EQ(obs::diag::OwnerOf(m.id()), holder);

  std::atomic<spec::ThreadId> waiter_tid{spec::kNil};
  Thread t = Thread::Fork([&] {
    waiter_tid.store(Thread::Self().id(), std::memory_order_release);
    m.Acquire();
    m.Release();
  });
  while (waiter_tid.load(std::memory_order_acquire) == spec::kNil) {
    std::this_thread::yield();
  }

  // Poll until the waiter's published edge shows up (it is about to park).
  bool seen = false;
  for (int i = 0; i < 10000 && !seen; ++i) {
    for (const BlockedEdge& e : obs::diag::SnapshotBlocked()) {
      if (e.tid == waiter_tid.load(std::memory_order_relaxed) &&
          e.obj == m.id()) {
        seen = true;
        EXPECT_EQ(e.kind, WaitKind::kMutex);
        EXPECT_EQ(e.owner, holder);
        EXPECT_FALSE(e.alertable);
        EXPECT_GT(e.since_ns, 0u);
      }
    }
    std::this_thread::sleep_for(100us);
  }
  EXPECT_TRUE(seen) << "blocked edge never appeared";

  m.Release();
  t.Join();
  for (const BlockedEdge& e : obs::diag::SnapshotBlocked()) {
    EXPECT_NE(e.tid, waiter_tid.load(std::memory_order_relaxed));
  }
  EXPECT_EQ(obs::diag::OwnerOf(m.id()), 0u);
  obs::diag::SetEnabled(false);
}

// The watchdog flags a long-blocked thread as a stall and dumps the edge
// (no cycle required), including the flight-recorder tail markers.
TEST(DiagWatchdogTest, StallDumpNamesTheBlockedThread) {
  obs::diag::SetEnabled(true);
  Mutex m;
  m.Acquire();
  std::atomic<bool> started{false};
  Thread t = Thread::Fork([&] {
    started.store(true, std::memory_order_release);
    m.Acquire();
    m.Release();
  });
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(20ms);  // let the waiter publish and park

  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  obs::diag::Watchdog watchdog;
  obs::diag::Watchdog::Options options;
  options.interval_ms = 10;
  options.stall_ms = 5;  // everything parked by now counts as stalled
  options.out = out;
  watchdog.Start(options);
  while (watchdog.scans() < 3) {
    std::this_thread::sleep_for(5ms);
  }
  watchdog.Stop();

  m.Release();
  t.Join();
  obs::diag::SetEnabled(false);

  std::rewind(out);
  std::string dump;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), out)) > 0) {
    dump.append(buf, n);
  }
  std::fclose(out);
  EXPECT_NE(dump.find("taos waits-for snapshot"), std::string::npos) << dump;
  EXPECT_NE(dump.find("blocked on mutex obj"), std::string::npos) << dump;
  EXPECT_NE(dump.find("flight-recorder events"), std::string::npos) << dump;
}

// A nested-monitor deadlock through a deferred condition wake: W holds m2
// and waits on c with m; S signals c under m, so W's wake is owed to S's
// release of m, and then S acquires m2. W is off c's queue, yet it waits
// for m as surely as if it were queued there: the registry must keep the
// edge W -> m, or the walk stops at W and the cycle W -> m -> S -> m2 -> W
// is never named. S's timed acquire ends the deadlock after the watchdog
// has had its say.
TEST(DiagWatchdogTest, NamesNestedMonitorDeadlockThroughDeferredWake) {
  obs::diag::SetEnabled(true);
  Mutex m;
  Mutex m2;
  Condition c;
  std::atomic<spec::ThreadId> w_tid{spec::kNil};
  std::atomic<spec::ThreadId> s_tid{spec::kNil};
  std::atomic<bool> signalled{false};
  Thread w = Thread::Fork([&] {
    w_tid.store(Thread::Self().id(), std::memory_order_release);
    m2.Acquire();
    m.Acquire();
    while (!signalled.load(std::memory_order_relaxed)) {
      c.Wait(m);
    }
    m.Release();
    m2.Release();
  });
  // Let W queue on c, so the Signal below finds it there (not in the
  // wakeup-waiting window, which would send it to queue on m instead).
  bool queued = false;
  while (!queued) {
    for (const BlockedEdge& e : obs::diag::SnapshotBlocked()) {
      queued |= e.tid == w_tid.load(std::memory_order_acquire) &&
                e.kind == WaitKind::kCondition && e.obj == c.id();
    }
    std::this_thread::sleep_for(100us);
  }

  std::mutex named_mu;
  std::vector<Cycle> named;
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  obs::diag::Watchdog watchdog;
  obs::diag::Watchdog::Options options;
  options.interval_ms = 10;
  options.stall_ms = 0;  // deadlock detection only
  options.out = out;
  options.on_deadlock = [&](const std::string&,
                            const std::vector<Cycle>& cycles) {
    std::lock_guard<std::mutex> g(named_mu);
    named = cycles;
  };
  watchdog.Start(options);

  const obs::Stats before = obs::Snapshot();
  WaitResult acquired = WaitResult::kSatisfied;
  Thread s = Thread::Fork([&] {
    s_tid.store(Thread::Self().id(), std::memory_order_relaxed);
    m.Acquire();
    signalled.store(true, std::memory_order_relaxed);
    c.Signal();  // deferred: W re-acquires m, which this thread holds
    // W holds m2 until it has m. Shorter than two scans of the test
    // main's own 1 s watchdog, so only this test's watchdog names it.
    acquired = m2.AcquireFor(500ms);
    m.Release();
  });
  s.Join();
  w.Join();
  const obs::Stats after = obs::Snapshot();
  watchdog.Stop();
  // The owed wake took W's edge down before W ran again.
  for (const BlockedEdge& e : obs::diag::SnapshotBlocked()) {
    EXPECT_NE(e.tid, w_tid.load(std::memory_order_relaxed));
  }
  obs::diag::SetEnabled(false);
  std::fclose(out);

  EXPECT_EQ(after.Count(obs::Counter::kCondWakesDeferred) -
                before.Count(obs::Counter::kCondWakesDeferred),
            1u);
  EXPECT_EQ(acquired, WaitResult::kTimeout);
  std::lock_guard<std::mutex> g(named_mu);
  ASSERT_EQ(named.size(), 1u) << "the watchdog never named the cycle";
  ASSERT_EQ(named[0].edges.size(), 2u);
  for (const BlockedEdge& e : named[0].edges) {
    EXPECT_EQ(e.kind, WaitKind::kMutex);
    if (e.tid == w_tid.load(std::memory_order_relaxed)) {
      EXPECT_EQ(e.obj, m.id());
      EXPECT_EQ(e.owner, s_tid.load(std::memory_order_relaxed));
    } else {
      EXPECT_EQ(e.tid, s_tid.load(std::memory_order_relaxed));
      EXPECT_EQ(e.obj, m2.id());
      EXPECT_EQ(e.owner, w_tid.load(std::memory_order_relaxed));
    }
  }
}

// Watchdog lifecycle: restartable, stop is idempotent, scans advance.
TEST(DiagWatchdogTest, StartStopRestart) {
  obs::diag::Watchdog watchdog;
  EXPECT_FALSE(watchdog.running());
  watchdog.Stop();  // no-op
  obs::diag::Watchdog::Options options;
  options.interval_ms = 5;
  options.stall_ms = 0;  // never stall-dump
  watchdog.Start(options);
  EXPECT_TRUE(watchdog.running());
  while (watchdog.scans() < 2) {
    std::this_thread::sleep_for(2ms);
  }
  watchdog.Stop();
  EXPECT_FALSE(watchdog.running());
  const std::uint64_t scans = watchdog.scans();
  watchdog.Start(options);
  while (watchdog.scans() < scans + 2) {
    std::this_thread::sleep_for(2ms);
  }
  watchdog.Stop();
}

}  // namespace
}  // namespace taos
