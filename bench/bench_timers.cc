// E29 — deadlines: self-timed deadline parks against the retired
// thread-per-timeout watchdog, and the fast-path tax of a deadline.
//
//   UncontendedAcquireRelease     baseline fast path (no deadline involved)
//   UncontendedAcquireForRelease  same, via AcquireFor: the parity check
//   ExpiryDeadlinePark            one timed wait expiring: the waiter parks
//                                 on its own deadline and dequeues itself
//   ExpiryWatchdog                same contract, watchdog construction
//   TimedWaitersDeadlinePark/N    N concurrent expiring waiters, zero
//                                 threads created per wait
//   TimedWaitersWatchdog/N        N concurrent waiters, one watchdog thread
//                                 forked and joined per wait
//   GrantedPingPongDeadlinePark/N 2N threads ping-ponging under timed waits
//                                 whose deadline never fires (the common
//                                 case) — the headline ratio
//   GrantedPingPongWatchdog/N     same, watchdog construction
//
// The watchdog is the construction this repo used before deadlines became
// first-class in the Nub (src/threads/timer.h): a forked thread that polls
// a done-flag at millisecond granularity and Alerts the waiter once the
// deadline passes. It is reproduced here, not imported, so the comparison
// survives the original's deletion.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "src/threads/threads.h"
#include "src/threads/wait_result.h"
#include "src/workload/timeout.h"

namespace {

using namespace std::chrono_literals;

// The pre-deadline construction, verbatim in shape: one thread creation, one
// join, and a 1 ms polling loop per timed wait.
bool WatchdogWaitWithTimeout(taos::Mutex& m, taos::Condition& c,
                             const std::function<bool()>& predicate,
                             std::chrono::microseconds timeout) {
  std::atomic<bool> done{false};
  const taos::ThreadHandle self = taos::Thread::Self();
  taos::Thread watchdog = taos::Thread::Fork([&] {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!done.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    if (!done.load(std::memory_order_acquire)) {
      taos::Alert(self);
    }
  });
  bool ok = true;
  try {
    while (!predicate()) {
      taos::AlertWait(m, c);
    }
  } catch (const taos::Alerted&) {
    ok = predicate();
  }
  done.store(true, std::memory_order_release);
  m.Release();
  watchdog.Join();
  m.Acquire();
  (void)taos::TestAlert();  // the alert may have landed post-catch
  return ok;
}

// --- fast-path parity ---

void BM_UncontendedAcquireRelease(benchmark::State& state) {
  taos::Mutex m;
  for (auto _ : state) {
    m.Acquire();
    m.Release();
  }
}
BENCHMARK(BM_UncontendedAcquireRelease);

void BM_UncontendedAcquireForRelease(benchmark::State& state) {
  // Uncontended AcquireFor takes the same inline test-and-set as Acquire
  // and never parks with a deadline; this must track the baseline above.
  taos::Mutex m;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.AcquireFor(10s));
    m.Release();
  }
}
BENCHMARK(BM_UncontendedAcquireForRelease);

// --- one expiring wait, round trip ---

void BM_ExpiryDeadlinePark(benchmark::State& state) {
  taos::Mutex m;
  taos::Condition c;
  m.Acquire();
  for (auto _ : state) {
    benchmark::DoNotOptimize(taos::AlertWaitFor(m, c, 200us));
  }
  m.Release();
}
BENCHMARK(BM_ExpiryDeadlinePark)->UseRealTime();

void BM_ExpiryWatchdog(benchmark::State& state) {
  taos::Mutex m;
  taos::Condition c;
  m.Acquire();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        WatchdogWaitWithTimeout(m, c, [] { return false; }, 200us));
  }
  m.Release();
}
BENCHMARK(BM_ExpiryWatchdog)->UseRealTime();

// --- many concurrent expiring waiters ---
//
// Each benchmark iteration runs one batch: N waiter threads, each
// performing kWaitsPerThread 200 us timed waits that all expire. The
// deadline is deliberately sub-millisecond: the deadline park serves it at
// the kernel's timed-sleep granularity, while the watchdog cannot express
// it at all — its 1 ms polling loop is the floor, and that floor (plus a
// thread fork and join per wait) is precisely what made short timeouts
// impractical before. Each waiter parks on its own deadline; the watchdog
// forks and joins a thread per wait. items_processed counts waits, so the report's
// items_per_second ratio is the headline number.

constexpr int kWaitsPerThread = 32;

void RunDeadlineParkBatch(int waiters) {
  std::vector<taos::Thread> threads;
  threads.reserve(static_cast<std::size_t>(waiters));
  for (int t = 0; t < waiters; ++t) {
    threads.push_back(taos::Thread::Fork([] {
      taos::Mutex m;
      taos::Condition c;
      m.Acquire();
      for (int i = 0; i < kWaitsPerThread; ++i) {
        taos::AlertWaitFor(m, c, 200us);
      }
      m.Release();
    }));
  }
  for (taos::Thread& t : threads) {
    t.Join();
  }
}

void RunWatchdogBatch(int waiters) {
  std::vector<taos::Thread> threads;
  threads.reserve(static_cast<std::size_t>(waiters));
  for (int t = 0; t < waiters; ++t) {
    threads.push_back(taos::Thread::Fork([] {
      taos::Mutex m;
      taos::Condition c;
      m.Acquire();
      for (int i = 0; i < kWaitsPerThread; ++i) {
        WatchdogWaitWithTimeout(m, c, [] { return false; }, 200us);
      }
      m.Release();
    }));
  }
  for (taos::Thread& t : threads) {
    t.Join();
  }
}

void BM_TimedWaitersDeadlinePark(benchmark::State& state) {
  const int waiters = static_cast<int>(state.range(0));
  for (auto _ : state) {
    RunDeadlineParkBatch(waiters);
  }
  state.SetItemsProcessed(state.iterations() * waiters * kWaitsPerThread);
}
BENCHMARK(BM_TimedWaitersDeadlinePark)->Arg(8)->Arg(64)->UseRealTime();

void BM_TimedWaitersWatchdog(benchmark::State& state) {
  const int waiters = static_cast<int>(state.range(0));
  for (auto _ : state) {
    RunWatchdogBatch(waiters);
  }
  state.SetItemsProcessed(state.iterations() * waiters * kWaitsPerThread);
}
BENCHMARK(BM_TimedWaitersWatchdog)->Arg(8)->Arg(64)->UseRealTime();

// --- granted timed waits: the common case ---
//
// N producer/consumer pairs (2N threads) ping-pong a value under a timed
// predicate wait whose generous deadline practically never fires. This is
// what WaitWithTimeout does all day in a healthy system: the deadline is
// insurance, the signal always wins. The deadline park's insurance premium
// is the deadline itself, carried into the park; the watchdog's is a thread
// fork, a 1 ms polling loop, and a join per wait — the headline gap.

constexpr int kRoundsPerPair = 16;

template <typename TimedWait>
void PingPongBatch(int pairs, const TimedWait& timed_wait) {
  struct Pair {
    taos::Mutex m;
    taos::Condition not_empty;
    taos::Condition not_full;
    int value = 0;
  };
  std::vector<std::unique_ptr<Pair>> state(static_cast<std::size_t>(pairs));
  for (auto& p : state) {
    p = std::make_unique<Pair>();
  }
  std::vector<taos::Thread> threads;
  threads.reserve(static_cast<std::size_t>(2 * pairs));
  for (int i = 0; i < pairs; ++i) {
    Pair* p = state[static_cast<std::size_t>(i)].get();
    threads.push_back(taos::Thread::Fork([p, &timed_wait] {
      for (int r = 0; r < kRoundsPerPair; ++r) {
        p->m.Acquire();
        while (!timed_wait(p->m, p->not_full, [p] { return p->value == 0; })) {
        }
        p->value = 1;
        p->not_empty.Signal();
        p->m.Release();
      }
    }));
    threads.push_back(taos::Thread::Fork([p, &timed_wait] {
      for (int r = 0; r < kRoundsPerPair; ++r) {
        p->m.Acquire();
        while (!timed_wait(p->m, p->not_empty, [p] { return p->value == 1; })) {
        }
        p->value = 0;
        p->not_full.Signal();
        p->m.Release();
      }
    }));
  }
  for (taos::Thread& t : threads) {
    t.Join();
  }
}

void BM_GrantedPingPongDeadlinePark(benchmark::State& state) {
  const int pairs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    PingPongBatch(pairs, [](taos::Mutex& m, taos::Condition& c,
                            const std::function<bool()>& pred) {
      return taos::workload::WaitWithTimeout(m, c, pred, 200ms);
    });
  }
  state.SetItemsProcessed(state.iterations() * 2 * pairs * kRoundsPerPair);
}
BENCHMARK(BM_GrantedPingPongDeadlinePark)->Arg(4)->Arg(32)->UseRealTime();

void BM_GrantedPingPongWatchdog(benchmark::State& state) {
  const int pairs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    PingPongBatch(pairs, [](taos::Mutex& m, taos::Condition& c,
                            const std::function<bool()>& pred) {
      return WatchdogWaitWithTimeout(m, c, pred, 200ms);
    });
  }
  state.SetItemsProcessed(state.iterations() * 2 * pairs * kRoundsPerPair);
}
BENCHMARK(BM_GrantedPingPongWatchdog)->Arg(4)->Arg(32)->UseRealTime();

}  // namespace

#include "bench/bench_main.h"
TAOS_BENCH_MAIN("timers");
