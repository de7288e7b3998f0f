// E6 — "It is possible (though unlikely) that Signal will acquire the
// spin-lock while more than one thread is trying to acquire it in Wait; if
// so, Signal will unblock all such threads."
//
// This bench hammers the read-eventcount -> Block window with several
// waiters per signal and reports how often wakeups were "absorbed" (a Wait
// returned from Block without sleeping because a Signal landed in its
// window) — each absorption is an extra thread unblocked by some single
// Signal. The deterministic witness schedules are in the model tests; this
// measures how often the race occurs on real threads.

#include <benchmark/benchmark.h>

#include <atomic>
#include <vector>

#include "src/obs/metrics.h"
#include "src/threads/threads.h"

namespace {

void BM_WindowAbsorption(benchmark::State& state) {
  const int waiters = static_cast<int>(state.range(0));
  taos::Mutex m;
  taos::Condition c;
  std::uint64_t tickets = 0;  // protected by m
  bool stop = false;          // protected by m
  std::atomic<std::uint64_t> consumed{0};
  const taos::obs::Stats before = taos::obs::Snapshot();

  std::vector<taos::Thread> threads;
  for (int i = 0; i < waiters; ++i) {
    threads.push_back(taos::Thread::Fork([&] {
      taos::Lock lock(m);
      for (;;) {
        while (tickets == 0 && !stop) {
          c.Wait(m);
        }
        if (tickets == 0) {
          return;  // stop
        }
        --tickets;
        consumed.fetch_add(1, std::memory_order_relaxed);
      }
    }));
  }

  std::uint64_t produced = 0;
  for (auto _ : state) {
    {
      taos::Lock lock(m);
      ++tickets;
      ++produced;
    }
    c.Signal();
  }
  {
    taos::Lock lock(m);
    stop = true;
  }
  c.Broadcast();
  for (taos::Thread& t : threads) {
    t.Join();
  }

  // The obs cells of every thread, the joined waiters' included.
  using taos::obs::Counter;
  const taos::obs::Stats after = taos::obs::Snapshot();
  auto since = [&](Counter k) {
    return static_cast<double>(after.Count(k) - before.Count(k));
  };
  const double absorbed = since(Counter::kWakeupWaitingHits);
  state.counters["absorbed"] = absorbed;
  state.counters["absorbed_per_1k_signals"] =
      produced == 0 ? 0.0 : 1000.0 * absorbed / static_cast<double>(produced);
  state.counters["nub_signals"] = since(Counter::kNubSignal);
  state.counters["fast_signals"] =
      since(Counter::kFastSignal) + since(Counter::kFastBroadcast);
}
BENCHMARK(BM_WindowAbsorption)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// The deliberate stampede: every round parks all N waiters on one condition
// and releases them with a single Broadcast, so the broadcaster dequeues
// and unparks the whole herd inside its Broadcast slice. Run with --trace
// and feed TRACE_multiwake.json to taos-diag: the "broadcast stampedes"
// section should report roughly N threads woken per waking broadcast (E32).
void BM_BroadcastStampede(benchmark::State& state) {
  const int waiters = static_cast<int>(state.range(0));
  taos::Mutex m;
  taos::Condition c;    // the herd sleeps here, per generation
  taos::Condition ack;  // the broadcaster waits for the round to land
  std::uint64_t gen = 0;  // protected by m
  int awake = 0;          // protected by m
  bool stop = false;      // protected by m

  std::vector<taos::Thread> threads;
  for (int i = 0; i < waiters; ++i) {
    threads.push_back(taos::Thread::Fork([&] {
      taos::Lock lock(m);
      // Start from generation 0, not the current gen: a waiter that forks
      // after the first broadcast must still ack the in-flight round, or
      // the broadcaster waits for an ack that never comes.
      std::uint64_t seen = 0;
      for (;;) {
        while (gen == seen && !stop) {
          c.Wait(m);
        }
        if (stop) {
          return;
        }
        seen = gen;
        if (++awake == waiters) {
          ack.Signal();
        }
      }
    }));
  }

  for (auto _ : state) {
    {
      taos::Lock lock(m);
      ++gen;
      awake = 0;
    }
    c.Broadcast();
    {
      taos::Lock lock(m);
      while (awake < waiters) {
        ack.Wait(m);
      }
    }
  }
  {
    taos::Lock lock(m);
    stop = true;
  }
  c.Broadcast();
  for (taos::Thread& t : threads) {
    t.Join();
  }
  // Per-broadcast slow/fast split lands in the report's metrics block
  // (nub_broadcast / fast_broadcast counters).
  state.counters["waiters"] = static_cast<double>(waiters);
}
BENCHMARK(BM_BroadcastStampede)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace

#include "bench/bench_main.h"
TAOS_BENCH_MAIN("multiwake");
