// E33 — multi-object wait: the fan-in server shape. N producers feed a
// single consumer through K bounded queues, two ways:
//
//   WaitAny     one receiver thread multiplexes all K queues through
//               Poll::WaitAny over their readable() events — the
//               motivating client shape (one server thread, many request
//               sources), K-1 threads cheaper.
//   Dedicated   K receiver threads, one blocking Recv loop per queue —
//               the shape you are forced into without multi-object wait.
//
// Each iteration moves `items` values end to end; items/sec (wall) is
// reported, plus a single-threaded WaitAny fast-path entry (member already
// set — no registration, no park) that is meaningful on any host. Emits
// BENCH_poll.json.
//
// Honesty rules match bench_contention: every entry records num_cpus, and
// entries whose claim is about concurrent handoff REFUSE to report on a
// single-CPU host — producers, consumers and the poller time-sharing one
// core measure the scheduler, not the wait machinery. The refusal is a
// skipped entry with an error string in the JSON, which is itself the
// honest datum.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "src/threads/threads.h"

namespace {

using taos::Event;
using taos::EventReset;
using taos::MessageQueue;
using taos::Poll;
using taos::QueueResult;
using taos::Thread;

constexpr std::uint64_t kItems = 4000;  // total per iteration, split evenly
constexpr std::size_t kCapacity = 16;

// Records the core count on the entry and refuses concurrent-handoff claims
// on one CPU. Returns true when the benchmark must bail (after draining
// state).
bool RefuseContendedOn1Cpu(benchmark::State& state) {
  const unsigned n = std::thread::hardware_concurrency();
  // kAvgThreads: every benchmark thread sets it, and plain counters are
  // summed across threads.
  state.counters["num_cpus"] = benchmark::Counter(
      static_cast<double>(n), benchmark::Counter::kAvgThreads);
  if (n <= 1) {
    state.SkipWithError(
        "1 CPU: fan-in handoff numbers would be scheduling noise");
    return true;
  }
  return false;
}

struct FanInResult {
  std::uint64_t items = 0;
  std::uint64_t checksum = 0;
  std::uint64_t nanos = 0;
};

// P producers push kItems/P values each, round-robin assigned to K queues
// by producer index; the last producer out of each queue closes it, so
// receivers drain to kClosed with no side-channel counts. `waitany` picks
// the receiver shape.
FanInResult RunFanIn(int producers, int queues, bool waitany) {
  std::vector<std::unique_ptr<MessageQueue<std::uint64_t>>> qs;
  std::vector<std::unique_ptr<std::atomic<int>>> live;  // producers per queue
  qs.reserve(queues);
  for (int q = 0; q < queues; ++q) {
    qs.push_back(std::make_unique<MessageQueue<std::uint64_t>>(kCapacity));
    live.push_back(std::make_unique<std::atomic<int>>(0));
  }
  for (int p = 0; p < producers; ++p) {
    live[p % queues]->fetch_add(1, std::memory_order_relaxed);
  }
  const std::uint64_t per_producer = kItems / producers;
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> checksum{0};

  const auto start = std::chrono::steady_clock::now();
  std::vector<Thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.push_back(Thread::Fork([&, p] {
      MessageQueue<std::uint64_t>& q = *qs[p % queues];
      for (std::uint64_t v = 0; v < per_producer; ++v) {
        (void)q.Send(v);
      }
      if (live[p % queues]->fetch_sub(1, std::memory_order_acq_rel) == 1) {
        q.Close();  // last producer out: receivers drain then see kClosed
      }
    }));
  }
  if (waitany) {
    threads.push_back(Thread::Fork([&] {
      // A closed queue's readable() stays set and WaitAny grants the first
      // set member, so a closed queue left in the wait set would starve
      // the queues after it: the wait set is rebuilt without each queue as
      // it closes.
      std::vector<std::size_t> open(qs.size());
      std::iota(open.begin(), open.end(), std::size_t{0});
      std::uint64_t sum = 0;
      std::uint64_t count = 0;
      while (!open.empty()) {
        Poll poll;
        for (std::size_t q : open) {
          poll.Add(qs[q]->readable());
        }
        for (;;) {
          const std::size_t idx = poll.WaitAny();
          std::uint64_t v;
          const QueueResult r = qs[open[idx]]->TryRecv(&v);
          if (r == QueueResult::kOk) {
            sum += v;
            ++count;
          } else if (r == QueueResult::kClosed) {
            open.erase(open.begin() + static_cast<std::ptrdiff_t>(idx));
            break;
          }
          // kWouldBlock: readable() is a hint, not a handoff.
        }
      }
      checksum.fetch_add(sum, std::memory_order_relaxed);
      received.fetch_add(count, std::memory_order_relaxed);
    }));
  } else {
    for (int q = 0; q < queues; ++q) {
      threads.push_back(Thread::Fork([&, q] {
        std::uint64_t sum = 0;
        std::uint64_t count = 0;
        std::uint64_t v;
        while (qs[q]->Recv(&v) == QueueResult::kOk) {
          sum += v;
          ++count;
        }
        checksum.fetch_add(sum, std::memory_order_relaxed);
        received.fetch_add(count, std::memory_order_relaxed);
      }));
    }
  }
  for (Thread& t : threads) {
    t.Join();
  }
  FanInResult r;
  r.nanos = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  r.items = received.load(std::memory_order_relaxed);
  r.checksum = checksum.load(std::memory_order_relaxed);
  return r;
}

void FanInBench(benchmark::State& state, bool waitany) {
  if (RefuseContendedOn1Cpu(state)) {
    for (auto _ : state) {
    }
    return;
  }
  const int producers = static_cast<int>(state.range(0));
  const int queues = static_cast<int>(state.range(1));
  const std::uint64_t per_producer = kItems / producers;
  const std::uint64_t expect_sum = static_cast<std::uint64_t>(producers) *
                                   (per_producer * (per_producer - 1) / 2);
  std::uint64_t items_total = 0;
  std::uint64_t nanos_total = 0;
  for (auto _ : state) {
    const FanInResult r = RunFanIn(producers, queues, waitany);
    if (r.items != per_producer * producers || r.checksum != expect_sum) {
      state.SkipWithError("checksum mismatch: items lost or duplicated");
      return;
    }
    items_total += r.items;
    nanos_total += r.nanos;
  }
  // Wall-clock throughput measured inside the driver (the benchmark thread
  // itself mostly sleeps, so CPU-time-based rates would mislead).
  state.counters["items_per_sec_wall"] =
      nanos_total == 0 ? 0.0
                       : static_cast<double>(items_total) * 1e9 /
                             static_cast<double>(nanos_total);
  state.counters["receiver_threads"] =
      static_cast<double>(waitany ? 1 : queues);
}

void BM_FanInWaitAny(benchmark::State& state) { FanInBench(state, true); }
void BM_FanInDedicated(benchmark::State& state) { FanInBench(state, false); }

// Single-threaded WaitAny with a member already set: no registration, no
// park — the scan-and-consume path alone. Valid on any core count (nothing
// contends), so it still reports on the 1-CPU CI host.
void BM_WaitAnyFastPath(benchmark::State& state) {
  state.counters["num_cpus"] = benchmark::Counter(
      static_cast<double>(std::thread::hardware_concurrency()),
      benchmark::Counter::kAvgThreads);
  Event a(EventReset::kAuto);
  Event b(EventReset::kAuto);
  Poll poll;
  poll.Add(a);
  poll.Add(b);
  for (auto _ : state) {
    b.Set();
    benchmark::DoNotOptimize(poll.WaitAny());
  }
}

// Same path through Event alone: Set-then-Wait on an auto event, the
// quiescent pulse a fan-in server pays per request even with no queueing.
void BM_EventSetThenWait(benchmark::State& state) {
  state.counters["num_cpus"] = benchmark::Counter(
      static_cast<double>(std::thread::hardware_concurrency()),
      benchmark::Counter::kAvgThreads);
  Event e(EventReset::kAuto);
  for (auto _ : state) {
    e.Set();
    e.Wait();
  }
}

// {producers, queues}
BENCHMARK(BM_FanInWaitAny)
    ->Args({1, 1})
    ->Args({2, 2})
    ->Args({4, 4})
    ->Args({8, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_FanInDedicated)
    ->Args({1, 1})
    ->Args({2, 2})
    ->Args({4, 4})
    ->Args({8, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_WaitAnyFastPath);
BENCHMARK(BM_EventSetThenWait);

}  // namespace

#include "bench/bench_main.h"
TAOS_BENCH_MAIN("poll");
