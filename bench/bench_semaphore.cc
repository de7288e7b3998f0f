// E5 — "The implementation of semaphores is identical to mutexes: P is the
// same as Acquire and V is the same as Release." The uncontended P/V pair
// must therefore cost the same as the Acquire/Release pair of E1 (modulo
// the mutex's holder bookkeeping), and the alertable AlertP the same plus
// one flag test.

#include <benchmark/benchmark.h>

#include "src/obs/metrics.h"
#include "src/threads/threads.h"

namespace {

void BM_PVPair(benchmark::State& state) {
  taos::Semaphore s;
  const std::uint64_t nub_before = taos::obs::Snapshot().NubEntries();
  for (auto _ : state) {
    s.P();
    s.V();
  }
  state.counters["nub_entries"] = static_cast<double>(
      taos::obs::Snapshot().NubEntries() - nub_before);
}
BENCHMARK(BM_PVPair);

void BM_AcquireReleasePairReference(benchmark::State& state) {
  taos::Mutex m;
  for (auto _ : state) {
    m.Acquire();
    m.Release();
  }
}
BENCHMARK(BM_AcquireReleasePairReference);

void BM_AlertPVPair(benchmark::State& state) {
  taos::Semaphore s;
  for (auto _ : state) {
    taos::AlertP(s);
    s.V();
  }
}
BENCHMARK(BM_AlertPVPair);

// Semaphore handoff latency: one V-to-P wake round trip between two
// threads (the interrupt-synchronization path).
void BM_HandoffRoundTrip(benchmark::State& state) {
  taos::Semaphore ping;
  taos::Semaphore pong;
  ping.P();
  pong.P();
  std::atomic<bool> stop{false};
  taos::Thread peer = taos::Thread::Fork([&] {
    for (;;) {
      ping.P();
      if (stop.load(std::memory_order_acquire)) {
        return;
      }
      pong.V();
    }
  });
  for (auto _ : state) {
    ping.V();
    pong.P();
  }
  stop.store(true, std::memory_order_release);
  ping.V();
  peer.Join();
}
BENCHMARK(BM_HandoffRoundTrip)->UseRealTime();

}  // namespace

#include "bench/bench_main.h"
TAOS_BENCH_MAIN("semaphore");
