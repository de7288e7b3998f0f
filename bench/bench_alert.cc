// E10/E11 — alerting costs and the RETURNS/RAISES nondeterminism rate.
//
//   AlertTestAlert        post + poll an alert, no blocking involved
//   TestAlertNegative     the common no-alert-pending poll
//   AlertWakesAlertP      end-to-end: alert a blocked AlertP, thread raises
//   AlertWakesAlertWait   end-to-end: alert a blocked AlertWait
//   AlertPRace            hammer V-vs-Alert races; counters report how often
//                         AlertP returned normally vs raised when both were
//                         possible (the paper's deliberate nondeterminism)

#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "src/threads/threads.h"
#include "tests/await_blocked.h"

namespace {

void BM_AlertTestAlert(benchmark::State& state) {
  const taos::ThreadHandle self = taos::Thread::Self();
  for (auto _ : state) {
    taos::Alert(self);
    benchmark::DoNotOptimize(taos::TestAlert());
  }
}
BENCHMARK(BM_AlertTestAlert);

void BM_TestAlertNegative(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(taos::TestAlert());
  }
}
BENCHMARK(BM_TestAlertNegative);

void BM_AlertWakesAlertP(benchmark::State& state) {
  taos::Semaphore blocked;
  blocked.P();
  std::atomic<bool> stop{false};
  std::atomic<bool> done{false};
  taos::Thread worker = taos::Thread::Fork([&] {
    for (;;) {
      try {
        taos::AlertP(blocked);
      } catch (const taos::Alerted&) {
      }
      if (stop.load(std::memory_order_acquire)) {
        done.store(true, std::memory_order_release);
        return;
      }
    }
  });
  const taos::ThreadHandle target = worker.Handle();
  for (auto _ : state) {
    // Alert only once the worker is parked in its AlertP: an Alert that
    // lands before the park is found at the alerted check, and a row mixing
    // the two paths moves with the scheduler, not the code.
    taos::AwaitBlocked(worker);
    taos::Alert(target);
  }
  stop.store(true, std::memory_order_release);
  while (!done.load(std::memory_order_acquire)) {
    taos::Alert(target);
    std::this_thread::yield();
  }
  worker.Join();
  (void)taos::TestAlert();
}
BENCHMARK(BM_AlertWakesAlertP)->UseRealTime();

void BM_AlertWakesAlertWait(benchmark::State& state) {
  taos::Mutex m;
  taos::Condition c;
  taos::Semaphore ready;
  ready.P();
  std::atomic<bool> stop{false};
  std::atomic<bool> done{false};
  taos::Thread worker = taos::Thread::Fork([&] {
    for (;;) {
      {
        taos::Lock lock(m);
        ready.V();
        try {
          taos::AlertWait(m, c);
        } catch (const taos::Alerted&) {
        }
      }
      if (stop.load(std::memory_order_acquire)) {
        done.store(true, std::memory_order_release);
        return;
      }
    }
  });
  const taos::ThreadHandle target = worker.Handle();
  for (auto _ : state) {
    ready.P();
    taos::Alert(target);
  }
  stop.store(true, std::memory_order_release);
  while (!done.load(std::memory_order_acquire)) {
    taos::Alert(target);
    std::this_thread::yield();
  }
  worker.Join();
}
BENCHMARK(BM_AlertWakesAlertWait)->UseRealTime();

void BM_AlertPRace(benchmark::State& state) {
  std::uint64_t returned = 0;
  std::uint64_t raised = 0;
  std::uint64_t round = 0;
  for (auto _ : state) {
    taos::Semaphore s;
    s.P();
    taos::Semaphore ready;
    ready.P();
    std::atomic<bool> outcome_raised{false};
    taos::Thread taker = taos::Thread::Fork([&] {
      ready.V();
      try {
        taos::AlertP(s);
        s.V();
      } catch (const taos::Alerted&) {
        outcome_raised.store(true, std::memory_order_relaxed);
      }
    });
    ready.P();
    // Let the taker actually park in AlertP, then deliver the wakeup and
    // the alert adjacently, in alternating order: both WHEN clauses hold
    // and the implementation picks an outcome.
    for (int i = 0; i < 20; ++i) {
      std::this_thread::yield();
    }
    if (++round % 2 == 0) {
      s.V();
      taos::Alert(taker.Handle());
    } else {
      taos::Alert(taker.Handle());
      s.V();
    }
    taker.Join();
    if (outcome_raised.load(std::memory_order_relaxed)) {
      ++raised;
    } else {
      ++returned;
    }
  }
  state.counters["returned"] = static_cast<double>(returned);
  state.counters["raised"] = static_cast<double>(raised);
}
BENCHMARK(BM_AlertPRace)->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace

#include "bench/bench_main.h"
TAOS_BENCH_MAIN("alert");
