// Parker ping-pong: two threads hand one permit back and forth through a
// pair of Parkers (src/waitq/parker.h), once per backend. This is the
// park/unpark floor under every blocking handoff in the Nub.
//
// Run: ./build/bench/bench_parker [--quick] (writes BENCH_parker.json).

#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "src/waitq/parker.h"

namespace {

void ParkerPingPong(benchmark::State& state, taos::waitq::Parker::Backend b) {
  taos::waitq::Parker ping(b);
  taos::waitq::Parker pong(b);
  std::atomic<bool> stop{false};
  std::thread worker([&] {
    for (;;) {
      ping.Park();
      if (stop.load(std::memory_order_acquire)) {
        return;
      }
      pong.Unpark();
    }
  });
  for (auto _ : state) {
    ping.Unpark();
    pong.Park();
  }
  stop.store(true, std::memory_order_release);
  ping.Unpark();
  worker.join();
}
void BM_ParkerPingPongFutex(benchmark::State& state) {
  ParkerPingPong(state, taos::waitq::Parker::Backend::kFutex);
}
void BM_ParkerPingPongCondvar(benchmark::State& state) {
  ParkerPingPong(state, taos::waitq::Parker::Backend::kCondvar);
}
BENCHMARK(BM_ParkerPingPongFutex)->UseRealTime();
BENCHMARK(BM_ParkerPingPongCondvar)->UseRealTime();

}  // namespace

#include "bench/bench_main.h"
TAOS_BENCH_MAIN("parker");
