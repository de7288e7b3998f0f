// The sharded runtime metrics (src/obs/metrics.h): fast-path vs Nub-entry
// attribution, cross-thread aggregation, and ResetStats.
//
// Every assertion is a delta between two Snapshot() calls, so the tests are
// insensitive to counts left behind by other tests in this binary (cells are
// per-thread; an exited thread's counts stay in the retired totals, which
// Snapshot aggregates with the live cells).

#include "src/obs/metrics.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/threads/threads.h"

namespace taos {
namespace {

using obs::Counter;
using obs::Histogram;
using obs::Snapshot;
using obs::Stats;

std::uint64_t Delta(const Stats& before, const Stats& after, Counter c) {
  return after.Count(c) - before.Count(c);
}

// The per-op Nub-entry counters, as a group: an uncontended run must leave
// every one of them untouched.
constexpr Counter kNubCounters[] = {
    Counter::kNubAcquire, Counter::kNubRelease,   Counter::kNubWait,
    Counter::kNubSignal,  Counter::kNubBroadcast, Counter::kNubP,
    Counter::kNubV,       Counter::kNubAlert,     Counter::kNubAlertWait,
    Counter::kNubAlertP,
};

TEST(ObsMetricsTest, UncontendedMutexPairIsAllFastPath) {
  Mutex m;
  const Stats before = Snapshot();
  for (int i = 0; i < 1000; ++i) {
    m.Acquire();
    m.Release();
  }
  const Stats after = Snapshot();
  EXPECT_EQ(Delta(before, after, Counter::kFastMutexAcquire), 1000u);
  EXPECT_EQ(Delta(before, after, Counter::kFastMutexRelease), 1000u);
  for (Counter c : kNubCounters) {
    EXPECT_EQ(Delta(before, after, c), 0u)
        << "Nub counter " << obs::CounterName(c)
        << " moved on an uncontended run";
  }
}

TEST(ObsMetricsTest, UncontendedSemaphorePairIsAllFastPath) {
  Semaphore s;
  const Stats before = Snapshot();
  for (int i = 0; i < 1000; ++i) {
    s.P();
    s.V();
  }
  const Stats after = Snapshot();
  EXPECT_EQ(Delta(before, after, Counter::kFastSemP), 1000u);
  EXPECT_EQ(Delta(before, after, Counter::kFastSemV), 1000u);
  for (Counter c : kNubCounters) {
    EXPECT_EQ(Delta(before, after, c), 0u) << obs::CounterName(c);
  }
}

TEST(ObsMetricsTest, SignalWithEmptyConditionIsFast) {
  Condition c;
  const Stats before = Snapshot();
  for (int i = 0; i < 100; ++i) {
    c.Signal();
    c.Broadcast();
  }
  const Stats after = Snapshot();
  EXPECT_EQ(Delta(before, after, Counter::kFastSignal), 100u);
  EXPECT_EQ(Delta(before, after, Counter::kFastBroadcast), 100u);
  EXPECT_EQ(Delta(before, after, Counter::kNubSignal), 0u);
  EXPECT_EQ(Delta(before, after, Counter::kNubBroadcast), 0u);
}

// A forced-contention wait/Signal round trip: the waiter's `wait` and the
// signaler's Signal each enter the Nub exactly once, and the Signal hands
// off to exactly one thread. Wait and AlertWait share one Block but keep
// their own Nub counters: `wait` moves `counted` and never `other`.
void ExpectWaitSignalRoundTrip(void (*wait)(Mutex&, Condition&),
                               Counter counted, Counter other) {
  Mutex m;
  Condition c;
  std::atomic<bool> waiting{false};

  const Stats before = Snapshot();
  Thread waiter = Thread::Fork([&] {
    m.Acquire();
    waiting.store(true, std::memory_order_release);
    wait(m, c);
    m.Release();
  });

  while (!waiting.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // Wait releases m only after enqueuing on c, so once we hold m the waiter
  // is on the condition queue (it may or may not have parked yet).
  m.Acquire();
  const Stats mid = Snapshot();
  c.Signal();
  const Stats after_signal = Snapshot();
  m.Release();
  waiter.Join();
  const Stats end = Snapshot();

  // Tight bracket around Signal: the waiter is enqueued and we hold m, so
  // exactly one Nub signal and one handoff happen, and nothing else moves.
  EXPECT_EQ(Delta(mid, after_signal, Counter::kNubSignal), 1u);
  EXPECT_EQ(Delta(mid, after_signal, Counter::kFastSignal), 0u);
  EXPECT_EQ(Delta(mid, after_signal, Counter::kHandoffs), 1u);

  // Whole round trip: one wait entered the Nub, one Signal did; the wakeup
  // was a real handoff, not an absorbed (wakeup-waiting) one.
  EXPECT_EQ(Delta(before, end, counted), 1u) << obs::CounterName(counted);
  EXPECT_EQ(Delta(before, end, other), 0u) << obs::CounterName(other);
  EXPECT_EQ(Delta(before, end, Counter::kNubSignal), 1u);
  EXPECT_EQ(Delta(before, end, Counter::kWakeupWaitingHits), 0u);
  EXPECT_GE(Delta(before, end, Counter::kHandoffs), 1u);
}

TEST(ObsMetricsTest, WaitSignalRoundTripEntersNubExactly) {
  {
    SCOPED_TRACE("Wait");
    ExpectWaitSignalRoundTrip([](Mutex& m, Condition& c) { c.Wait(m); },
                              Counter::kNubWait, Counter::kNubAlertWait);
  }
  {
    SCOPED_TRACE("AlertWait");
    ExpectWaitSignalRoundTrip(
        [](Mutex& m, Condition& c) { AlertWait(m, c); },
        Counter::kNubAlertWait, Counter::kNubWait);
  }
}

// A nonpositive timeout returns at once with m still held: neither the
// plain nor the alertable timed wait enters the Nub, so neither counts an
// entry.
TEST(ObsMetricsTest, ZeroTimeoutWaitsStayOutOfTheNub) {
  Mutex m;
  Condition c;
  m.Acquire();
  const Stats before = Snapshot();
  EXPECT_EQ(AlertWaitFor(m, c, std::chrono::nanoseconds(0)),
            WaitResult::kTimeout);
  EXPECT_EQ(c.WaitFor(m, std::chrono::nanoseconds(0)), WaitResult::kTimeout);
  const Stats after = Snapshot();
  m.Release();
  EXPECT_EQ(after.NubEntries(), before.NubEntries());
  EXPECT_EQ(Delta(before, after, Counter::kTimedWaitTimeouts), 2u);
}

// Eight threads hammering their own mutexes: the sharded cells must not
// lose a single increment when aggregated.
TEST(ObsMetricsTest, ConcurrentCountingLosesNothing) {
  constexpr int kThreads = 8;
  constexpr int kIters = 50000;
  const Stats before = Snapshot();
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        Mutex m;
        for (int i = 0; i < kIters; ++i) {
          m.Acquire();
          m.Release();
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  }
  const Stats after = Snapshot();
  EXPECT_EQ(Delta(before, after, Counter::kFastMutexAcquire),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(Delta(before, after, Counter::kFastMutexRelease),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(ObsMetricsTest, HistogramRecordsLandInOneBucket) {
  const Stats before = Snapshot();
  obs::Record(Histogram::kBlockedNanos, 0);
  obs::Record(Histogram::kBlockedNanos, 1);
  obs::Record(Histogram::kBlockedNanos, 1'000'000);
  const Stats after = Snapshot();
  EXPECT_EQ(after.HistogramTotal(Histogram::kBlockedNanos) -
                before.HistogramTotal(Histogram::kBlockedNanos),
            3u);
}

// ResetStats must zero every registered cell: counters bumped from several
// threads (whose cells outlive them) all read back as zero.
TEST(ObsMetricsTest, ResetStatsZeroesEverything) {
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([] {
        Mutex m;
        Semaphore s;
        for (int i = 0; i < 100; ++i) {
          m.Acquire();
          m.Release();
          s.P();
          s.V();
        }
        obs::Record(Histogram::kBlockedNanos, 42);
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  }
  ASSERT_GT(Snapshot().Count(Counter::kFastMutexAcquire), 0u);

  obs::ResetStats();
  const Stats zeroed = Snapshot();
  for (int c = 0; c < obs::kNumCounters; ++c) {
    EXPECT_EQ(zeroed.Count(static_cast<Counter>(c)), 0u)
        << obs::CounterName(static_cast<Counter>(c));
  }
  for (int h = 0; h < obs::kNumHistograms; ++h) {
    EXPECT_EQ(zeroed.HistogramTotal(static_cast<Histogram>(h)), 0u)
        << obs::HistogramName(static_cast<Histogram>(h));
  }
}

// Registry self-check: the enum-indexed name tables must cover every slot
// (the .cc static_asserts pin their sizes at compile time; this validates
// the content), with no empty, null or duplicate names — a duplicate would
// silently merge two series in every JSON report.
TEST(ObsMetricsTest, CounterAndHistogramRegistriesAreComplete) {
  std::set<std::string> seen;
  for (int c = 0; c < obs::kNumCounters; ++c) {
    const char* name = obs::CounterName(static_cast<Counter>(c));
    ASSERT_NE(name, nullptr) << "counter slot " << c;
    EXPECT_STRNE(name, "") << "counter slot " << c;
    EXPECT_TRUE(seen.insert(name).second) << "duplicate counter name " << name;
  }
  seen.clear();
  for (int h = 0; h < obs::kNumHistograms; ++h) {
    const char* name = obs::HistogramName(static_cast<Histogram>(h));
    ASSERT_NE(name, nullptr) << "histogram slot " << h;
    EXPECT_STRNE(name, "") << "histogram slot " << h;
    EXPECT_TRUE(seen.insert(name).second)
        << "duplicate histogram name " << name;
  }
}

// The JSON report must carry every registered series, including the last
// enum slot of each table (the one an off-by-one in the emission loop or a
// forgotten name-table entry would drop).
TEST(ObsMetricsTest, ReportJsonCoversEveryRegisteredSeries) {
  const std::string report = obs::ReportJson();
  for (int c = 0; c < obs::kNumCounters; ++c) {
    const std::string key =
        std::string("\"") + obs::CounterName(static_cast<Counter>(c)) + "\"";
    EXPECT_NE(report.find(key), std::string::npos) << key;
  }
  for (int h = 0; h < obs::kNumHistograms; ++h) {
    const std::string key =
        std::string("\"") + obs::HistogramName(static_cast<Histogram>(h)) +
        "\"";
    EXPECT_NE(report.find(key), std::string::npos) << key;
  }
}

TEST(ObsMetricsTest, ReportJsonParses) {
  Mutex m;
  m.Acquire();
  m.Release();
  const std::string report = obs::ReportJson();
  EXPECT_NE(report.find("\"counters\""), std::string::npos);
  EXPECT_NE(report.find("\"fast_mutex_acquire\""), std::string::npos);
  EXPECT_NE(report.find("\"histograms\""), std::string::npos);
}

}  // namespace
}  // namespace taos
