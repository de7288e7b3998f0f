// Unit tests for the Parker (src/waitq/parker.h), the one-permit
// park/unpark primitive every Nub slow path suspends threads on: the permit
// discipline, wakeups, repeated handoffs, spurious-wakeup tolerance and the
// check-to-sleep window, each on both the futex and condvar backends; the
// SpinGate's credit and probe schedule; the spin ledger (every gated Park
// counted exactly once, ungated ones never, and a deadline capping the
// spin); and the lock waits' one spinner on the lock bit, with its own
// ledger (src/threads/lock_spin.h).

#include "src/waitq/parker.h"

#include <atomic>
#include <chrono>
#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/threads/alert.h"
#include "src/threads/condition.h"
#include "src/threads/lock.h"
#include "src/threads/lock_spin.h"
#include "src/threads/mutex.h"
#include "src/threads/semaphore.h"

namespace taos::waitq {
namespace {

using obs::Counter;
using obs::Snapshot;
using obs::Stats;

std::uint64_t Delta(const Stats& before, const Stats& after, Counter c) {
  return after.Count(c) - before.Count(c);
}

class ParkerBackendTest : public ::testing::TestWithParam<Parker::Backend> {};

TEST_P(ParkerBackendTest, PermitDepositedBeforeParkIsConsumed) {
  Parker p(GetParam());
  p.Unpark();
  p.Park();  // must not block: the permit was waiting
}

TEST_P(ParkerBackendTest, UnparkWakesParkedThread) {
  Parker p(GetParam());
  std::atomic<bool> woke{false};
  std::thread t([&] {
    p.Park();
    woke.store(true, std::memory_order_release);
  });
  // No handshake needed: whether Unpark lands before or after the Park
  // starts sleeping, the permit discipline delivers exactly one wakeup.
  p.Unpark();
  t.join();
  EXPECT_TRUE(woke.load(std::memory_order_acquire));
}

TEST_P(ParkerBackendTest, PingPongHandsOffRepeatedly) {
  Parker ping(GetParam());
  Parker pong(GetParam());
  constexpr int kRounds = 10000;
  std::thread t([&] {
    for (int i = 0; i < kRounds; ++i) {
      ping.Park();
      pong.Unpark();
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    ping.Unpark();
    pong.Park();
  }
  t.join();
}

// A spurious wakeup (the kernel or the C++ runtime waking the sleeper with
// no permit deposited) must put the thread back to sleep, never let Park
// return. SpuriousWakeForDebug pokes the underlying futex/condvar directly.
TEST_P(ParkerBackendTest, SpuriousWakeupsDoNotForgeAPermit) {
  Parker p(GetParam());
  const Counter waits = GetParam() == Parker::Backend::kFutex
                            ? Counter::kParkFutexWaits
                            : Counter::kParkCondvarWaits;
  std::atomic<bool> returned{false};
  const Stats before = Snapshot();
  std::thread t([&] {
    p.Park();
    returned.store(true, std::memory_order_release);
  });
  // Keep injecting until the sleeper has demonstrably slept at least three
  // times — i.e. it absorbed at least two spurious wakeups by re-checking
  // the permit word and going back down.
  for (int i = 0; i < 4000 && Delta(before, Snapshot(), waits) < 3; ++i) {
    p.SpuriousWakeForDebug();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_GE(Delta(before, Snapshot(), waits), 3u);
  EXPECT_FALSE(returned.load(std::memory_order_acquire))
      << "Park returned without a permit";
  p.Unpark();
  t.join();
  EXPECT_TRUE(returned.load(std::memory_order_acquire));
}

// Same discipline on the timed path: spurious wakeups neither end the wait
// early nor turn it into a timeout; the one real Unpark does.
TEST_P(ParkerBackendTest, SpuriousWakeupsDoNotEndATimedParkEarly) {
  Parker p(GetParam());
  std::atomic<int> outcome{-1};
  std::thread t([&] {
    outcome.store(
        p.Park(Parker::Spin::kNever, obs::NowNanos() + 2'000'000'000ull) ? 1
                                                                        : 0,
        std::memory_order_release);
  });
  for (int i = 0; i < 50; ++i) {
    p.SpuriousWakeForDebug();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_EQ(outcome.load(std::memory_order_acquire), -1)
      << "timed park ended on a spurious wakeup";
  p.Unpark();
  t.join();
  EXPECT_EQ(outcome.load(std::memory_order_acquire), 1);
}

// Regression for the CondvarPark ordering fix: the permit store must happen
// under mu_ (with the notify after), or an Unpark landing in the waiter's
// check-to-sleep window is published after the check but notifies before
// the sleep — a lost wakeup. Swept here by staggering the Unpark across
// that window a few thousand times; run on both backends (the futex word
// protocol has the same window between the kParked CAS and FUTEX_WAIT).
// A lost wakeup surfaces as the timed Park timing out despite the Unpark.
TEST_P(ParkerBackendTest, UnparkInTheCheckToSleepWindowIsNeverLost) {
  Parker p(GetParam());
  constexpr int kRounds = 4000;
  std::atomic<int> completed{0};
  std::atomic<bool> all_notified{true};
  std::thread waiter([&] {
    for (int i = 0; i < kRounds; ++i) {
      if (!p.Park(Parker::Spin::kNever,
                  obs::NowNanos() + 10'000'000'000ull)) {
        all_notified.store(false, std::memory_order_relaxed);
      }
      completed.store(i + 1, std::memory_order_release);
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    // Variable stagger: some Unparks land before the waiter reaches the
    // permit check, some inside the window, some after it is asleep.
    std::atomic<int> stagger{(i * 7) % 120};
    while (stagger.fetch_sub(1, std::memory_order_relaxed) > 0) {
    }
    if (i % 16 == 0) {
      std::this_thread::yield();
    }
    p.Unpark();
    // One permit at a time: the next Unpark only after this one is consumed.
    while (completed.load(std::memory_order_acquire) < i + 1) {
      std::this_thread::yield();
    }
  }
  waiter.join();
  EXPECT_TRUE(all_notified.load(std::memory_order_relaxed))
      << "an Unpark was lost in the check-to-sleep window";
}

// Oversubscribed: four gated ping-pong pairs, eight threads on at most four
// CPUs, so spinners and their wakers contend for CPUs. No lost wakeup.
TEST_P(ParkerBackendTest, OversubscribedGatedPingPongLosesNoWakeup) {
  constexpr int kPairs = 4;
  constexpr int kRounds = 2000;
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<Parker>> parkers;
  for (int p = 0; p < 2 * kPairs; ++p) {
    parkers.push_back(std::make_unique<Parker>(GetParam()));
  }
  for (int p = 0; p < kPairs; ++p) {
    Parker& ping = *parkers[2 * p];
    Parker& pong = *parkers[2 * p + 1];
    threads.emplace_back([&ping, &pong] {
      for (int i = 0; i < kRounds; ++i) {
        ping.Park(Parker::Spin::kGated);
        pong.Unpark();
      }
    });
    threads.emplace_back([&ping, &pong] {
      for (int i = 0; i < kRounds; ++i) {
        ping.Unpark();
        pong.Park(Parker::Spin::kGated);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

// The spin ledger, exactly: a permit deposited before the Park counts
// park_permit_ready and nothing else.
TEST_P(ParkerBackendTest, PermitOnEntryCountsReadyOnly) {
  Parker p(GetParam());
  constexpr int kRounds = 100;
  const Stats before = Snapshot();
  for (int i = 0; i < kRounds; ++i) {
    p.Unpark();
    p.Park(Parker::Spin::kGated);
  }
  const Stats after = Snapshot();
  EXPECT_EQ(Delta(before, after, Counter::kParkPermitReady), kRounds);
  EXPECT_EQ(Delta(before, after, Counter::kParkSpinHits), 0u);
  EXPECT_EQ(Delta(before, after, Counter::kParkSpinMisses), 0u);
  EXPECT_EQ(Delta(before, after, Counter::kParkSpinSkipped), 0u);
}

// A Park whose permit arrives only after the Park has been counted (the
// unparker waits for the ledger to move) found no permit on entry and saw
// none during any spin: it is exactly one miss or one skip.
TEST_P(ParkerBackendTest, LatePermitCountsOneMissOrSkipPerPark) {
  Parker p(GetParam());
  constexpr std::uint64_t kRounds = 40;
  const Stats before = Snapshot();
  const auto slept = [&] {
    const Stats now = Snapshot();
    return Delta(before, now, Counter::kParkSpinMisses) +
           Delta(before, now, Counter::kParkSpinSkipped);
  };
  std::atomic<bool> done{false};
  std::thread waiter([&] {
    for (std::uint64_t i = 0; i < kRounds; ++i) {
      p.Park(Parker::Spin::kGated);
    }
    done.store(true, std::memory_order_release);
  });
  bool stalled = false;
  for (std::uint64_t i = 0; i < kRounds && !stalled; ++i) {
    // A Park the ledger never counts would wait here forever.
    const std::uint64_t give_up = obs::NowNanos() + 5'000'000'000ull;
    while (!stalled && slept() < i + 1) {
      stalled = obs::NowNanos() > give_up;
      std::this_thread::yield();
    }
    if (!stalled) {
      p.Unpark();
    }
  }
  while (!done.load(std::memory_order_acquire)) {  // after a stall
    p.Unpark();
    std::this_thread::yield();
  }
  waiter.join();
  ASSERT_FALSE(stalled) << "a Park with no permit was never counted";
  const Stats after = Snapshot();
  EXPECT_EQ(slept(), kRounds);
  EXPECT_EQ(Delta(before, after, Counter::kParkPermitReady), 0u);
  EXPECT_EQ(Delta(before, after, Counter::kParkSpinHits), 0u);
}

// Under free-running handoffs: hits + misses + skipped equals the gated
// Parks that found no permit on entry (all of them but the ready ones).
// A lost wakeup with the spin phase in front would hang the ping-pong
// instead (the test watchdog then dumps the waiters).
TEST_P(ParkerBackendTest, LedgerCountsEveryGatedParkOnce) {
  Parker ping(GetParam());
  Parker pong(GetParam());
  constexpr std::uint64_t kRounds = 5000;
  const Stats before = Snapshot();
  std::thread t([&] {
    for (std::uint64_t i = 0; i < kRounds; ++i) {
      ping.Park(Parker::Spin::kGated);
      pong.Unpark();
    }
  });
  for (std::uint64_t i = 0; i < kRounds; ++i) {
    ping.Unpark();
    pong.Park(Parker::Spin::kGated);
  }
  t.join();
  const Stats after = Snapshot();
  const std::uint64_t ready = Delta(before, after, Counter::kParkPermitReady);
  EXPECT_EQ(Delta(before, after, Counter::kParkSpinHits) +
                Delta(before, after, Counter::kParkSpinMisses) +
                Delta(before, after, Counter::kParkSpinSkipped),
            2 * kRounds - ready);
}

// Ungated parks never spin, timed or not: they leave the ledger alone.
TEST_P(ParkerBackendTest, UngatedParksMoveNoSpinCounter) {
  Parker p(GetParam());
  const Stats before = Snapshot();
  p.Unpark();
  p.Park();
  EXPECT_FALSE(p.Park(Parker::Spin::kNever, obs::NowNanos() + 1'000'000));
  std::thread t([&] { p.Park(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  p.Unpark();
  t.join();
  const Stats after = Snapshot();
  for (Counter c : {Counter::kParkPermitReady, Counter::kParkSpinHits,
                    Counter::kParkSpinMisses, Counter::kParkSpinSkipped}) {
    EXPECT_EQ(Delta(before, after, c), 0u) << obs::CounterName(c);
  }
}

// A gated Park whose deadline falls inside the spin budget spins at most
// up to the deadline and returns false there, consuming nothing: one
// ledger entry (a miss, or a skip if the gate was closed), never a hit.
TEST_P(ParkerBackendTest, GatedParkTimesOutAtADeadlineInsideTheSpinBudget) {
  Parker p(GetParam());
  constexpr std::uint64_t kTimeoutNs = Parker::kSpinBudgetNs / 4;
  const Stats before = Snapshot();
  const std::uint64_t deadline = obs::NowNanos() + kTimeoutNs;
  EXPECT_FALSE(p.Park(Parker::Spin::kGated, deadline));
  EXPECT_GE(obs::NowNanos(), deadline);
  const Stats after = Snapshot();
  EXPECT_EQ(Delta(before, after, Counter::kParkSpinMisses) +
                Delta(before, after, Counter::kParkSpinSkipped),
            1u);
  EXPECT_EQ(Delta(before, after, Counter::kParkPermitReady), 0u);
  EXPECT_EQ(Delta(before, after, Counter::kParkSpinHits), 0u);
  // No permit was consumed or left behind: the parker is reusable at once.
  p.Unpark();
  EXPECT_TRUE(p.Park(Parker::Spin::kNever, obs::NowNanos() + 1'000'000'000));
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ParkerBackendTest,
    ::testing::Values(Parker::Backend::kFutex, Parker::Backend::kCondvar),
    [](const ::testing::TestParamInfo<Parker::Backend>& backend) {
      return backend.param == Parker::Backend::kFutex ? "Futex" : "Condvar";
    });

// --- SpinGate: the credit and probe schedule, on a private gate ---

// Closes the cell of `cpu`, which starts at full credit, by misses alone.
void CloseByMisses(SpinGate& gate, unsigned cpu) {
  while (gate.IsOpen(cpu)) {
    ASSERT_TRUE(gate.Admit(cpu));
    gate.Record(cpu, /*hit=*/false);
  }
}

// The number of Admit calls up to and including the next probe.
std::uint32_t CallsToNextProbe(SpinGate& gate, unsigned cpu) {
  for (std::uint32_t calls = 1; calls <= 2 * SpinGate::kMaxProbeGap;
       ++calls) {
    if (gate.Admit(cpu)) {
      return calls;
    }
  }
  return 0;
}

TEST(SpinGateTest, OpenCellAdmitsAndHitsKeepItOpen) {
  SpinGate gate(4);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(gate.Admit(0));
    gate.Record(0, /*hit=*/true);
  }
  EXPECT_TRUE(gate.IsOpen(0));
}

TEST(SpinGateTest, MissesCloseItFasterThanHitsEarn) {
  SpinGate gate(1);
  // Full credit closes after kMaxCredit / kMissCost misses.
  constexpr int kMisses = SpinGate::kMaxCredit / SpinGate::kMissCost;
  for (int i = 0; i < kMisses; ++i) {
    EXPECT_TRUE(gate.IsOpen(0)) << "closed after " << i << " misses";
    ASSERT_TRUE(gate.Admit(0));
    gate.Record(0, /*hit=*/false);
  }
  EXPECT_FALSE(gate.IsOpen(0));
  // A miss costs more than a hit earns: alternating hit/miss drains it.
  SpinGate mixed(1);
  for (int i = 0; i < 2 * SpinGate::kMaxCredit && mixed.IsOpen(0); ++i) {
    mixed.Record(0, i % 2 == 0);
  }
  EXPECT_FALSE(mixed.IsOpen(0));
}

TEST(SpinGateTest, ClosedCellProbesWithExponentialBackoff) {
  SpinGate gate(1);
  CloseByMisses(gate, 0);
  std::uint32_t gap = SpinGate::kFirstProbeGap;
  for (int probe = 0; probe < 14; ++probe) {
    EXPECT_EQ(CallsToNextProbe(gate, 0), gap) << "probe " << probe;
    gate.Record(0, /*hit=*/false);
    EXPECT_FALSE(gate.IsOpen(0));
    gap = std::min(gap * 2, SpinGate::kMaxProbeGap);
  }
  EXPECT_EQ(gap, SpinGate::kMaxProbeGap);  // the cap was reached and held
}

TEST(SpinGateTest, ProbeHitReopensAndRestartsTheBackoff) {
  SpinGate gate(1);
  CloseByMisses(gate, 0);
  for (int i = 0; i < 3; ++i) {  // back off to a gap of 8 << 3
    ASSERT_GT(CallsToNextProbe(gate, 0), 0u);
    gate.Record(0, /*hit=*/false);
  }
  ASSERT_EQ(CallsToNextProbe(gate, 0), SpinGate::kFirstProbeGap << 3);
  gate.Record(0, /*hit=*/true);
  EXPECT_TRUE(gate.IsOpen(0));
  EXPECT_TRUE(gate.Admit(0));
  // One miss closes the barely reopened cell; probing restarts at the
  // first gap, not where it left off.
  gate.Record(0, /*hit=*/false);
  EXPECT_FALSE(gate.IsOpen(0));
  EXPECT_EQ(CallsToNextProbe(gate, 0), SpinGate::kFirstProbeGap);
}

TEST(SpinGateTest, CpuCellsAreIndependent) {
  SpinGate gate(4);
  CloseByMisses(gate, 1);
  EXPECT_FALSE(gate.IsOpen(1));
  EXPECT_FALSE(gate.IsOpen(5));  // indices wrap modulo the cell count
  for (unsigned cpu : {0u, 2u, 3u}) {
    EXPECT_TRUE(gate.IsOpen(cpu)) << cpu;
    EXPECT_TRUE(gate.Admit(cpu)) << cpu;
  }
}

// --- Timed event waits in the ledger ---

// Condition::WaitFor timeouts: each of the waiter's ParkBlocked calls is a
// gated event wait with a deadline, counted exactly once in the ledger, and
// a waiter that times out parks nowhere else (it dequeues itself without
// sleeping again). So the ledger moves by exactly the number of
// kBlockedNanos samples.
TEST(ParkerTimedWaitTest, TimedEventWaitsCountOnceEachInTheLedger) {
  taos::Mutex m;
  taos::Condition c;
  constexpr int kWaits = 5;
  const Stats before = Snapshot();
  for (int i = 0; i < kWaits; ++i) {
    taos::Lock l(m);
    EXPECT_EQ(c.WaitFor(m, std::chrono::milliseconds(2)),
              WaitResult::kTimeout);
  }
  const Stats after = Snapshot();
  const std::uint64_t blocked =
      after.HistogramTotal(obs::Histogram::kBlockedNanos) -
      before.HistogramTotal(obs::Histogram::kBlockedNanos);
  EXPECT_GE(blocked, static_cast<std::uint64_t>(kWaits));
  EXPECT_EQ(Delta(before, after, Counter::kParkPermitReady) +
                Delta(before, after, Counter::kParkSpinHits) +
                Delta(before, after, Counter::kParkSpinMisses) +
                Delta(before, after, Counter::kParkSpinSkipped),
            blocked);
}

// --- Lock waits: one spinner on the lock bit, then an ungated park ---

// Gives every cell of the process-wide gate full credit, so the next lock
// spin on any CPU is admitted (an earlier test's misses may have closed
// the cell this thread runs on).
void OpenSpinGate() {
  SpinGate& gate = SpinGate::Get();
  const unsigned cpus = std::max(std::thread::hardware_concurrency(), 1u);
  for (unsigned cpu = 0; cpu < cpus; ++cpu) {
    for (int i = 0; i < SpinGate::kMaxCredit; ++i) {
      gate.Record(cpu, /*hit=*/true);
    }
  }
}

constexpr Counter kLockSpinLedger[] = {
    Counter::kLockSpinHits, Counter::kLockSpinMisses,
    Counter::kLockSpinSkipped, Counter::kLockSpinBusy};

std::uint64_t LockSpinLedgerTotal(const Stats& before, const Stats& after) {
  std::uint64_t total = 0;
  for (Counter c : kLockSpinLedger) {
    total += Delta(before, after, c);
  }
  return total;
}

// A Mutex waiter first spins on the lock bit (its one spin, counted in the
// lock_spin ledger); a hold longer than the budget makes that spin a miss,
// and the waiter then parks at once: the Parker's park of a lock wait is
// ungated and moves no park_spin counter.
TEST(ParkerLockWaitTest, ContendedMutexSpinsOnTheBitThenParksUngated) {
  taos::Mutex m;
  OpenSpinGate();
  const Stats before = Snapshot();
  m.Acquire();
  std::thread waiter([&] {
    m.Acquire();
    m.Release();
  });
  while (Delta(before, Snapshot(), Counter::kNubAcquire) == 0) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1));  // let it park
  m.Release();
  waiter.join();
  const Stats after = Snapshot();
  EXPECT_EQ(Delta(before, after, Counter::kNubAcquire), 1u);
  EXPECT_EQ(Delta(before, after, Counter::kLockSpinMisses), 1u);
  EXPECT_EQ(LockSpinLedgerTotal(before, after), 1u);
  for (Counter c : {Counter::kParkPermitReady, Counter::kParkSpinHits,
                    Counter::kParkSpinMisses, Counter::kParkSpinSkipped}) {
    EXPECT_EQ(Delta(before, after, c), 0u) << obs::CounterName(c);
  }
}

// The exact ledger: every unalertable Nub lock acquire (LockCore::AcquireFor
// for Mutex and Semaphore) lands in exactly one lock_spin counter, whatever
// mix of hits, misses, closed gates and busy spinners the contention
// produces.
TEST(ParkerLockWaitTest, EveryNubLockAcquireCountsOnceInTheLockSpinLedger) {
  taos::Mutex m;
  taos::Semaphore s;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  const Stats before = Snapshot();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        m.Acquire();
        m.Release();
        s.P();
        s.V();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const Stats after = Snapshot();
  EXPECT_EQ(LockSpinLedgerTotal(before, after),
            Delta(before, after, Counter::kNubAcquire) +
                Delta(before, after, Counter::kNubP));
}

// At most one waiter per lock spins at a time. N waiters keep calling the
// spin helper on a bit that stays taken: a waiter that wins the spinner
// flag spins its whole budget and misses, the others count lock_spin_busy
// and return at once (to queue, in a real lock wait). If the spins never
// overlap, misses x budget fits inside the wall time; concurrent spinners
// would overrun it about N-fold.
TEST(ParkerLockWaitTest, AtMostOneWaiterSpinsAtATime) {
  std::atomic<std::uint32_t> bit{1};
  std::atomic<bool> spinner{false};
  constexpr int kThreads = 4;
  constexpr int kCalls = 500;
  const Stats before = Snapshot();
  const std::uint64_t start = obs::NowNanos();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCalls; ++i) {
        OpenSpinGate();
        EXPECT_FALSE(SpinForLockBit(bit, spinner, kNoDeadline));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const std::uint64_t wall = obs::NowNanos() - start;
  const Stats after = Snapshot();
  const std::uint64_t misses = Delta(before, after, Counter::kLockSpinMisses);
  EXPECT_GT(misses, 0u);
  EXPECT_LE(misses * Parker::kSpinBudgetNs, wall)
      << misses << " misses of " << Parker::kSpinBudgetNs << " ns in "
      << wall << " ns: spins overlapped";
  EXPECT_EQ(Delta(before, after, Counter::kLockSpinHits), 0u);
  EXPECT_EQ(LockSpinLedgerTotal(before, after),
            static_cast<std::uint64_t>(kThreads * kCalls));
  EXPECT_FALSE(spinner.load());
}

// An alertable lock wait never spins on the bit: a spinner is not blocked,
// so an Alert could only set its flag, not end the wait. A contended AlertP
// queues at once, with the spin gate open, and moves no lock_spin counter.
TEST(ParkerLockWaitTest, ContendedAlertPSkipsTheLockSpin) {
  taos::Semaphore s;
  OpenSpinGate();
  s.P();
  const Stats before = Snapshot();
  std::thread waiter([&] { taos::AlertP(s); });
  while (Delta(before, Snapshot(), Counter::kNubAlertP) == 0) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1));  // let it park
  s.V();
  waiter.join();
  const Stats after = Snapshot();
  EXPECT_EQ(Delta(before, after, Counter::kNubAlertP), 1u);
  EXPECT_EQ(LockSpinLedgerTotal(before, after), 0u);
  s.V();
}

// A timed lock wait whose deadline falls inside the spin budget spins to
// the deadline and times out there without queueing: one lock_spin miss,
// no deadline park, no blocked episode.
void ExpectTimesOutInsideTheSpin(const std::function<WaitResult()>& wait) {
  OpenSpinGate();
  const Stats before = Snapshot();
  const std::uint64_t start = obs::NowNanos();
  EXPECT_EQ(wait(), WaitResult::kTimeout);
  EXPECT_GE(obs::NowNanos() - start, Parker::kSpinBudgetNs / 4);
  const Stats after = Snapshot();
  EXPECT_EQ(Delta(before, after, Counter::kLockSpinMisses), 1u);
  EXPECT_EQ(LockSpinLedgerTotal(before, after), 1u);
  EXPECT_EQ(Delta(before, after, Counter::kTimersArmed), 0u);
  EXPECT_EQ(after.HistogramTotal(obs::Histogram::kBlockedNanos),
            before.HistogramTotal(obs::Histogram::kBlockedNanos));
}

TEST(ParkerLockWaitTest, AcquireForWithADeadlineInsideTheSpinTimesOutUnqueued) {
  taos::Mutex m;
  m.Acquire();
  std::thread waiter([&] {
    ExpectTimesOutInsideTheSpin([&] {
      return m.AcquireFor(std::chrono::nanoseconds(Parker::kSpinBudgetNs / 4));
    });
  });
  waiter.join();
  m.Release();
}

TEST(ParkerLockWaitTest, PForWithADeadlineInsideTheSpinTimesOutUnqueued) {
  taos::Semaphore s;
  s.P();
  ExpectTimesOutInsideTheSpin([&] {
    return s.PFor(std::chrono::nanoseconds(Parker::kSpinBudgetNs / 4));
  });
  s.V();
}

}  // namespace
}  // namespace taos::waitq
