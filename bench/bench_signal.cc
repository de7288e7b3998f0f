// E2 — the user-code fast paths of Signal and Broadcast ("avoid calling the
// Nub if there are no threads to unblock") versus the full unblock path, and
// the ablations DESIGN.md calls out:
//
//   SignalNoWaiters / BroadcastNoWaiters    fast path (no Nub entry)
//   SignalNubAlways                          ablation: what every signal
//                                            would cost without the waiter-
//                                            count gate (forced Nub entry)
//   SignalWakeRoundTrip                      full wake: one blocked thread
//                                            signalled awake, per iteration
//   BroadcastNWaiters                        unblock N queued threads
//                                            (one spin-lock hold, N wakes)

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/threads/threads.h"

namespace {

using taos::obs::Counter;

// Events of kind `c` counted by the obs cells since `before`.
double CountSince(const taos::obs::Stats& before, Counter c) {
  return static_cast<double>(taos::obs::Snapshot().Count(c) - before.Count(c));
}

void BM_SignalNoWaiters(benchmark::State& state) {
  taos::Condition c;
  const taos::obs::Stats before = taos::obs::Snapshot();
  for (auto _ : state) {
    c.Signal();
  }
  state.counters["nub_entries"] = static_cast<double>(
      taos::obs::Snapshot().NubEntries() - before.NubEntries());
  state.counters["fast_signals"] = CountSince(before, Counter::kFastSignal);
}
BENCHMARK(BM_SignalNoWaiters);

void BM_BroadcastNoWaiters(benchmark::State& state) {
  taos::Condition c;
  const taos::obs::Stats before = taos::obs::Snapshot();
  for (auto _ : state) {
    c.Broadcast();
  }
  state.counters["fast_signals"] = CountSince(before, Counter::kFastBroadcast);
}
BENCHMARK(BM_BroadcastNoWaiters);

// Ablation: the cost a Signal pays when it cannot skip the Nub.
void BM_SignalNubAlways(benchmark::State& state) {
  taos::Condition c;
  const taos::obs::Stats before = taos::obs::Snapshot();
  // Every Signal forced down the Nub path (spin-lock, eventcount advance,
  // queue inspection): the per-signal cost the user-code no-waiters gate
  // saves. Compare against BM_SignalNoWaiters.
  for (auto _ : state) {
    c.SignalNubPathForBench();
  }
  state.counters["nub_signals"] = CountSince(before, Counter::kNubSignal);
}
BENCHMARK(BM_SignalNubAlways);

// Full wake round trip: each iteration parks a consumer and signals it
// awake (ping-pong through one condition variable).
void BM_SignalWakeRoundTrip(benchmark::State& state) {
  taos::Mutex m;
  taos::Condition c;
  int token = 0;  // 0: consumer's turn to sleep, 1: consumer may go
  bool stop = false;
  const taos::obs::Stats before = taos::obs::Snapshot();
  taos::Thread consumer = taos::Thread::Fork([&] {
    taos::Lock lock(m);
    for (;;) {
      while (token == 0 && !stop) {
        c.Wait(m);
      }
      if (stop) {
        return;
      }
      token = 0;
      c.Broadcast();
    }
  });
  for (auto _ : state) {
    taos::Lock lock(m);
    token = 1;
    c.Broadcast();
    while (token == 1) {
      c.Wait(m);
    }
  }
  {
    taos::Lock lock(m);
    stop = true;
  }
  c.Broadcast();
  consumer.Join();
  state.counters["absorbed"] = CountSince(before, Counter::kWakeupWaitingHits);
}
BENCHMARK(BM_SignalWakeRoundTrip)->UseRealTime();

// Broadcast with N parked waiters: cost of the single spin-lock hold that
// drains the queue, plus N unparks.
void BM_BroadcastNWaiters(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  taos::Mutex m;
  taos::Condition c;
  taos::Semaphore all_parked;
  std::atomic<int> parked{0};
  int generation = 0;
  bool stop = false;

  std::vector<taos::Thread> waiters;
  for (int i = 0; i < n; ++i) {
    waiters.push_back(taos::Thread::Fork([&] {
      taos::Lock lock(m);
      int seen = 0;
      for (;;) {
        parked.fetch_add(1, std::memory_order_relaxed);
        while (generation == seen && !stop) {
          c.Wait(m);
        }
        if (stop) {
          return;
        }
        seen = generation;
      }
    }));
  }
  for (auto _ : state) {
    // Gather phase (untimed: manual time below measures only the
    // Broadcast). Yield while waiting so the waiters can park — this
    // benchmark must work on a single-core host.
    for (;;) {
      {
        taos::Lock lock(m);
        if (parked.load(std::memory_order_relaxed) >= n) {
          parked.store(0, std::memory_order_relaxed);
          ++generation;
          break;
        }
      }
      std::this_thread::yield();
    }
    const auto t0 = std::chrono::steady_clock::now();
    c.Broadcast();
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(
        std::chrono::duration<double>(t1 - t0).count());
  }
  {
    taos::Lock lock(m);
    stop = true;
  }
  c.Broadcast();
  for (taos::Thread& t : waiters) {
    t.Join();
  }
}
BENCHMARK(BM_BroadcastNWaiters)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Iterations(200);

}  // namespace

#include "bench/bench_main.h"
TAOS_BENCH_MAIN("signal");
