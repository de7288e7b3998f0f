// E1 — the paper's headline number: "an Acquire-Release pair executes a
// total of 5 instructions, taking 10 microseconds on a MicroVAX II. This
// code is compiled entirely in-line."
//
// Series reported:
//   AcquireRelease      the user-code pair, no contention (never enters Nub)
//   LockClause          the LOCK sugar (RAII guard)
//   TryAcquireRelease   the single-attempt variant
//   StdMutexPair        std::mutex baseline, in a process with one thread
//   StdMutexPairThreaded  the same with a second (idle) thread alive
//   RawSpinLockPair     the Nub's own spin-lock bit, for the floor
//   TicketLockPair      FIFO ticket lock baseline
//
// The `nub_entries` counter (the obs kNub* delta over the run) is exported
// to prove the fast path held: it must stay 0 for the whole run (the modern
// analogue of "5 instructions in-line" is "two atomic RMWs, zero
// kernel-layer entries").

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "src/base/spinlock.h"
#include "src/baseline/ticket_lock.h"
#include "src/obs/diag.h"
#include "src/obs/metrics.h"
#include "src/threads/threads.h"

namespace {

void BM_AcquireRelease(benchmark::State& state) {
  taos::Mutex m;
  const std::uint64_t nub_before = taos::obs::Snapshot().NubEntries();
  for (auto _ : state) {
    m.Acquire();
    m.Release();
  }
  state.counters["nub_entries"] = static_cast<double>(
      taos::obs::Snapshot().NubEntries() - nub_before);
}
BENCHMARK(BM_AcquireRelease);

// The same pair with the contention-diagnosis registry actively stamping
// owners (obs::diag::SetEnabled(true)): the A/B row for E32's parity claim.
// BM_AcquireRelease above already carries the compiled-in-but-off cost:
// diag is one bit of the slow-mode word the in-line pair tests anyway, and
// turning it on sends the pair to its out-of-line path.
void BM_AcquireReleaseDiagOn(benchmark::State& state) {
  taos::obs::diag::SetEnabled(true);
  taos::Mutex m;
  for (auto _ : state) {
    m.Acquire();
    m.Release();
  }
  taos::obs::diag::SetEnabled(false);
}
BENCHMARK(BM_AcquireReleaseDiagOn);

void BM_LockClause(benchmark::State& state) {
  taos::Mutex m;
  for (auto _ : state) {
    taos::Lock lock(m);
    benchmark::DoNotOptimize(&m);
  }
}
BENCHMARK(BM_LockClause);

void BM_TryAcquireRelease(benchmark::State& state) {
  taos::Mutex m;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.TryAcquire());
    m.Release();
  }
}
BENCHMARK(BM_TryAcquireRelease);

void BM_StdMutexPair(benchmark::State& state) {
  std::mutex m;
  for (auto _ : state) {
    m.lock();
    m.unlock();
  }
}
BENCHMARK(BM_StdMutexPair);

// glibc's pthread_mutex_lock tests __libc_single_threaded and takes a free
// mutex with no atomic instruction while the process has one thread, so
// BM_StdMutexPair does not time a locked pair. Any program that needs a
// mutex has a second thread; keep one alive (asleep) to time the locked
// pair the taos rows pay. glibc never clears the multi-threaded state, so
// this row runs after every row that wants the one-thread process.
void BM_StdMutexPairThreaded(benchmark::State& state) {
  std::atomic<bool> stop{false};
  std::thread idle([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  std::mutex m;
  for (auto _ : state) {
    m.lock();
    m.unlock();
  }
  stop.store(true, std::memory_order_relaxed);
  idle.join();
}
BENCHMARK(BM_StdMutexPairThreaded);

void BM_RawSpinLockPair(benchmark::State& state) {
  taos::SpinLock s;
  for (auto _ : state) {
    s.Acquire();
    s.Release();
  }
}
BENCHMARK(BM_RawSpinLockPair);

void BM_TicketLockPair(benchmark::State& state) {
  taos::baseline::TicketSpinMutex m;
  for (auto _ : state) {
    m.Acquire();
    m.Release();
  }
}
BENCHMARK(BM_TicketLockPair);

}  // namespace

#include "bench/bench_main.h"
TAOS_BENCH_MAIN("uncontended");
