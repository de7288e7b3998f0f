// Parker ping-pong: two threads hand one permit back and forth through a
// pair of Parkers (src/waitq/parker.h). This is the park/unpark floor under
// every blocking handoff in the Nub. Rows, per backend:
//
//   PingPong{Futex,Condvar}        deadline-style parks (no spin phase)
//   PingPongGated{Futex,Condvar}   handoff parks, the SpinGate deciding
//
// each at threads:1 (one pair) and threads:4 (four independent pairs, eight
// threads: oversubscribed on a 4-CPU host), and
//
//   PingPongOneCpu{,Gated}Futex    one pair with both threads pinned to one
//                                  CPU, the shape where every spin misses
//                                  because the spinner holds its waker's CPU
//
// Run: ./build/bench/bench_parker [--quick] (writes BENCH_parker.json).

#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "src/waitq/parker.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace {

using taos::waitq::Parker;

// Pins the calling thread to `cpu` (where supported) for the object's
// lifetime, then restores its old affinity; cpu < 0 leaves it alone.
struct CpuPin {
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;
#if defined(__linux__)
  explicit CpuPin(int cpu) : active(cpu >= 0) {
    if (active) {
      pthread_getaffinity_np(pthread_self(), sizeof(saved), &saved);
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    }
  }
  ~CpuPin() {
    if (active) {
      pthread_setaffinity_np(pthread_self(), sizeof(saved), &saved);
    }
  }
  bool active;
  cpu_set_t saved{};
#else
  explicit CpuPin(int) {}
#endif
};

// The first CPU this process may run on, or -1 where pinning is unsupported.
int FirstAllowedCpu() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        return cpu;
      }
    }
  }
#endif
  return -1;
}

void ParkerPingPong(benchmark::State& state, Parker::Backend b,
                    Parker::Spin spin, int pin_cpu = -1) {
  CpuPin pin(pin_cpu);
  Parker ping(b);
  Parker pong(b);
  std::atomic<bool> stop{false};
  std::thread worker([&] {
    CpuPin worker_pin(pin_cpu);
    for (;;) {
      ping.Park(spin);
      if (stop.load(std::memory_order_acquire)) {
        return;
      }
      pong.Unpark();
    }
  });
  for (auto _ : state) {
    ping.Unpark();
    pong.Park(spin);
  }
  stop.store(true, std::memory_order_release);
  ping.Unpark();
  worker.join();
}

void BM_ParkerPingPongFutex(benchmark::State& state) {
  ParkerPingPong(state, Parker::Backend::kFutex, Parker::Spin::kNever);
}
void BM_ParkerPingPongCondvar(benchmark::State& state) {
  ParkerPingPong(state, Parker::Backend::kCondvar, Parker::Spin::kNever);
}
void BM_ParkerPingPongGatedFutex(benchmark::State& state) {
  ParkerPingPong(state, Parker::Backend::kFutex, Parker::Spin::kGated);
}
void BM_ParkerPingPongGatedCondvar(benchmark::State& state) {
  ParkerPingPong(state, Parker::Backend::kCondvar, Parker::Spin::kGated);
}
void BM_ParkerPingPongOneCpuFutex(benchmark::State& state) {
  ParkerPingPong(state, Parker::Backend::kFutex, Parker::Spin::kNever,
                 FirstAllowedCpu());
}
void BM_ParkerPingPongOneCpuGatedFutex(benchmark::State& state) {
  ParkerPingPong(state, Parker::Backend::kFutex, Parker::Spin::kGated,
                 FirstAllowedCpu());
}

BENCHMARK(BM_ParkerPingPongFutex)->UseRealTime()->Threads(1)->Threads(4);
BENCHMARK(BM_ParkerPingPongCondvar)->UseRealTime()->Threads(1)->Threads(4);
BENCHMARK(BM_ParkerPingPongGatedFutex)->UseRealTime()->Threads(1)->Threads(4);
BENCHMARK(BM_ParkerPingPongGatedCondvar)
    ->UseRealTime()
    ->Threads(1)
    ->Threads(4);
BENCHMARK(BM_ParkerPingPongOneCpuFutex)->UseRealTime();
BENCHMARK(BM_ParkerPingPongOneCpuGatedFutex)->UseRealTime();

}  // namespace

#include "bench/bench_main.h"
TAOS_BENCH_MAIN("parker");
