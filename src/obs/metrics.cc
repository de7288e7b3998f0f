#include "src/obs/metrics.h"

#include <bit>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <mutex>
#include <sstream>
#include <vector>

#include <pthread.h>

namespace taos::obs {

namespace {

// The registry guards cold operations only (thread birth and exit,
// snapshot, reset), so a std::mutex is fine; the hot path never touches it.
std::mutex& RegistryLock() {
  static std::mutex* m = new std::mutex();
  return *m;
}

// Every cell ever allocated, live or free. The first entry is the
// retired-totals cell: the counts of every exited thread are folded into
// it, so Snapshot and ResetStats need not know that cells are recycled.
// Guarded by RegistryLock.
std::vector<Cell*>& Registry() {
  static std::vector<Cell*>* v = new std::vector<Cell*>{new Cell()};
  return *v;
}

// Zeroed cells of exited threads, reused by RegisterCell. Guarded by
// RegistryLock.
std::vector<Cell*>& FreeCells() {
  static std::vector<Cell*>* v = new std::vector<Cell*>();
  return *v;
}

// Runs on an exiting thread that registered `arg` (its cell), after its
// thread_local destructors. It folds the cell into the retired totals,
// zeroes it and frees it, all under the registry lock, so a concurrent
// Snapshot sees the counts exactly once. A later bump on this thread (from
// another key's destructor) registers a cell again, which re-arms the key,
// and the next destructor round folds that one too.
void RetireCell(void* arg) {
  Cell* cell = static_cast<Cell*>(arg);
  {
    std::lock_guard<std::mutex> g(RegistryLock());
    Cell* retired = Registry().front();
    for (int c = 0; c < kNumCounters; ++c) {
      BumpSlot(retired->counters[c],
               cell->counters[c].load(std::memory_order_relaxed));
      cell->counters[c].store(0, std::memory_order_relaxed);
    }
    for (int h = 0; h < kNumHistograms; ++h) {
      for (int b = 0; b < kHistogramBuckets; ++b) {
        BumpSlot(retired->histograms[h][b],
                 cell->histograms[h][b].load(std::memory_order_relaxed));
        cell->histograms[h][b].store(0, std::memory_order_relaxed);
      }
    }
    FreeCells().push_back(cell);
  }
  internal::g_cell = nullptr;
}

pthread_key_t CellKey() {
  static const pthread_key_t key = [] {
    pthread_key_t k;
    if (pthread_key_create(&k, RetireCell) != 0) {
      std::abort();  // out of keys: thread exit could not reclaim cells
    }
    return k;
  }();
  return key;
}

// Deliberately unsized: the static_asserts below pin the table lengths to
// the enums, so adding a Counter/Histogram without naming it (or naming one
// twice) is a compile error instead of a silent trailing null that
// Snapshot/StatsJson would walk into.
constexpr const char* kCounterNames[] = {
    "fast_mutex_acquire",
    "fast_mutex_release",
    "fast_sem_p",
    "fast_sem_v",
    "fast_signal",
    "fast_broadcast",
    "nub_acquire",
    "nub_release",
    "nub_wait",
    "nub_signal",
    "nub_broadcast",
    "nub_p",
    "nub_v",
    "nub_alert",
    "nub_alert_wait",
    "nub_alert_p",
    "nub_event_wait",
    "nub_event_set",
    "wakeup_waiting_hits",
    "spurious_wakeups",
    "handoffs",
    "lock_bit_retries",
    "spin_iterations",
    "contended_spin_acquires",
    "eventcount_advances",
    "park_futex_waits",
    "park_condvar_waits",
    "park_permit_ready",
    "park_spin_hits",
    "park_spin_misses",
    "park_spin_skipped",
    "lock_spin_hits",
    "lock_spin_misses",
    "lock_spin_skipped",
    "lock_spin_busy",
    "timers_armed",
    "timers_cancelled",
    "timers_expired",
    "timed_wait_satisfied",
    "timed_wait_timeouts",
    "timed_wait_alerted",
    "poll_registrations",
    "poll_spurious_scans",
};
static_assert(std::size(kCounterNames) == static_cast<std::size_t>(kNumCounters),
              "kCounterNames must name every Counter exactly once");

constexpr const char* kHistogramNames[] = {
    "spin_acquire_ns",
    "spin_iters_per_acquire",
    "lock_handoff_ns",
    "blocked_ns",
    "park_wait_ns",
    "unpark_ns",
    "timer_expiry_lag_ns",
    "wakeup_latency_ns",
};
static_assert(
    std::size(kHistogramNames) == static_cast<std::size_t>(kNumHistograms),
    "kHistogramNames must name every Histogram exactly once");

}  // namespace

const char* CounterName(Counter c) {
  return kCounterNames[static_cast<int>(c)];
}

const char* HistogramName(Histogram h) {
  return kHistogramNames[static_cast<int>(h)];
}

namespace internal {
constinit thread_local Cell* g_cell = nullptr;
std::atomic<std::uint32_t> g_slow_mode{0};
}  // namespace internal

void SetSlowMode(SlowMode m, bool on) {
  const auto bit = static_cast<std::uint32_t>(m);
  if (on) {
    internal::g_slow_mode.fetch_or(bit, std::memory_order_relaxed);
  } else {
    internal::g_slow_mode.fetch_and(~bit, std::memory_order_relaxed);
  }
}

Cell* RegisterCell() {
  const pthread_key_t key = CellKey();
  Cell* cell;
  {
    std::lock_guard<std::mutex> g(RegistryLock());
    if (FreeCells().empty()) {
      cell = new Cell();  // value-initialized: all slots zero
      Registry().push_back(cell);
    } else {
      cell = FreeCells().back();
      FreeCells().pop_back();
    }
  }
  pthread_setspecific(key, cell);
  internal::g_cell = cell;
  return cell;
}

std::size_t RegisteredCells() {
  std::lock_guard<std::mutex> g(RegistryLock());
  return Registry().size();
}

int HistogramBucket(std::uint64_t value) {
  const int b = std::bit_width(value);  // 0 for 0, else floor(log2)+1
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

std::uint64_t NowNanos() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

std::uint64_t Stats::HistogramTotal(Histogram h) const {
  std::uint64_t total = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    total += histograms[static_cast<int>(h)][b];
  }
  return total;
}

std::uint64_t Stats::NubEntries() const {
  std::uint64_t total = 0;
  for (int c = static_cast<int>(Counter::kNubAcquire);
       c <= static_cast<int>(Counter::kNubEventSet); ++c) {
    total += counters[c];
  }
  return total;
}

Stats Snapshot() {
  Stats out;
  std::lock_guard<std::mutex> g(RegistryLock());
  for (Cell* cell : Registry()) {
    for (int c = 0; c < kNumCounters; ++c) {
      out.counters[c] += cell->counters[c].load(std::memory_order_relaxed);
    }
    for (int h = 0; h < kNumHistograms; ++h) {
      for (int b = 0; b < kHistogramBuckets; ++b) {
        out.histograms[h][b] +=
            cell->histograms[h][b].load(std::memory_order_relaxed);
      }
    }
  }
  return out;
}

std::string StatsJson(const Stats& stats) {
  std::ostringstream os;
  os << "{\"counters\": {";
  for (int c = 0; c < kNumCounters; ++c) {
    os << (c ? ", " : "") << '"' << kCounterNames[c]
       << "\": " << stats.counters[c];
  }
  os << "}, \"histograms\": {";
  for (int h = 0; h < kNumHistograms; ++h) {
    os << (h ? ", " : "") << '"' << kHistogramNames[h] << "\": [";
    for (int b = 0; b < kHistogramBuckets; ++b) {
      os << (b ? "," : "") << stats.histograms[h][b];
    }
    os << ']';
  }
  os << "}}";
  return os.str();
}

std::string ReportJson() { return StatsJson(Snapshot()); }

void ResetStats() {
  std::lock_guard<std::mutex> g(RegistryLock());
  for (Cell* cell : Registry()) {
    for (int c = 0; c < kNumCounters; ++c) {
      cell->counters[c].store(0, std::memory_order_relaxed);
    }
    for (int h = 0; h < kNumHistograms; ++h) {
      for (int b = 0; b < kHistogramBuckets; ++b) {
        cell->histograms[h][b].store(0, std::memory_order_relaxed);
      }
    }
  }
}

}  // namespace taos::obs
