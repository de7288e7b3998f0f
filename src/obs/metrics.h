// Sharded runtime metrics: the always-compiled counting half of the
// observability layer (the other half is the flight recorder, recorder.h).
//
// Why sharding: the paper's headline claim is that the uncontended fast
// paths never leave user code, so the measurement of the fast path must not
// itself create sharing. Every thread owns one cache-line-aligned Cell of
// counters; an increment is a plain load+add+store through the thread's own
// cell (no lock prefix, no cross-core traffic), legal because the cell has a
// single writer and every reader aggregates with relaxed atomic loads.
// Snapshot() walks the registry of cells and sums; totals are therefore
// eventually consistent (exact once the counting threads are quiescent,
// which is when experiments read them). An exiting thread's counts move
// into the retired-totals cell under the registry lock, so thread exit
// never loses or double-counts them.
//
// ResetStats() also walks the registry and zeroes every slot of every cell
// by array length, so a counter or histogram added to the enums below can
// never be silently missed by a reset. Reset while other threads are
// actively counting loses increments that race the zeroing; callers reset
// between measurement phases, while quiescent, as with Snapshot().
//
// This header is self-contained (standard library only): it is included by
// src/base/spinlock.h and eventcount.h, which everything else includes, so
// it must not depend on any other taos library.

#ifndef TAOS_SRC_OBS_METRICS_H_
#define TAOS_SRC_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace taos::obs {

// One slot per distinguishable runtime event. Grouped: the user-code fast
// paths (the ops the paper compiles in-line), the Nub slow-path entries by
// operation kind, the race/rescue accounting, and the spin-lock /
// eventcount internals. These cells are the runtime's only event counters:
// the primitives keep no per-object statistics.
enum class Counter : int {
  // --- user-code fast paths (never entered the Nub) ---
  kFastMutexAcquire,   // Acquire/TryAcquire won the in-line test-and-set
  kFastMutexRelease,   // Release cleared the bit, queue empty, no Nub call
  kFastSemP,           // P/TryP/AlertP won the in-line test-and-set
  kFastSemV,           // V cleared the bit, queue empty, no Nub call
  kFastSignal,         // Signal skipped the Nub: no threads to unblock
  kFastBroadcast,      // Broadcast skipped the Nub likewise

  // --- Nub (slow-path) entries, by operation kind; contiguous, from
  // kNubAcquire to kNubEventSet, for Stats::NubEntries ---
  kNubAcquire,
  kNubRelease,
  kNubWait,            // every Wait enters Block, the Nub subroutine
  kNubSignal,
  kNubBroadcast,
  kNubP,
  kNubV,
  kNubAlert,
  kNubAlertWait,
  kNubAlertP,
  kNubEventWait,       // Event Wait/WaitFor that entered the Nub
  kNubEventSet,        // Event Set that entered the Nub (waiters/pollers)

  // --- races covered and work handed over ---
  kWakeupWaitingHits,  // Block returned without sleeping: the eventcount
                       // moved in the window, a lost wakeup was prevented
  kSpuriousWakeups,    // unparked but the retried test-and-set lost (barging)
  kHandoffs,           // a slow path made another thread ready (unpark)
  kLockBitRetries,     // failed test-and-set retries inside a Nub slow loop

  // --- spin-lock and eventcount internals ---
  kSpinIterations,        // total busy-wait beats across contended Acquires
  kContendedSpinAcquires, // SpinLock::Acquire calls that had to spin
  kEventCountAdvances,    // EventCount::Advance calls (Signal/Broadcast)

  // --- parker backends (src/waitq/parker) ---
  kParkFutexWaits,    // FUTEX_WAIT calls (incl. re-checks after EAGAIN)
  kParkCondvarWaits,  // condition_variable::wait calls (incl. spurious)
  // The spin phase's ledger: each gated Park (Parker::Spin::kGated, the
  // Nub's event waits) bumps exactly one of these four; others bump none.
  kParkPermitReady,   // the permit was already deposited on entry
  kParkSpinHits,      // the spin saw the permit arrive within the budget
  kParkSpinMisses,    // the spin ran out its budget, then slept
  kParkSpinSkipped,   // the CPU's SpinGate cell was closed: slept at once
  // The lock-wait spin's ledger (src/threads/lock_spin.h): each Nub Mutex
  // or Semaphore acquire (LockCore::AcquireFor, unalertable) bumps exactly
  // one.
  kLockSpinHits,      // took the lock bit within the budget
  kLockSpinMisses,    // the budget or the deadline ran out first
  kLockSpinSkipped,   // won the spinner flag, but the CPU's SpinGate cell
                      // was closed: queued at once
  kLockSpinBusy,      // another waiter was already spinning: queued at once

  // --- timed waits (src/threads/timer) ---
  kTimersArmed,          // parks with a deadline
  kTimersCancelled,      // ...ended by a grant or Alert
  kTimersExpired,        // ...ended by the waiter dequeuing itself
  kTimedWaitSatisfied,   // timed waits that ended by grant/signal
  kTimedWaitTimeouts,    // timed waits that ended by expiry
  kTimedWaitAlerted,     // timed alertable waits that ended by Alert

  // --- multi-object wait (src/threads/poll) ---
  kPollRegistrations,    // pollable-list registrations installed
  kPollSpuriousScans,    // wait-set scans after a wake that granted nothing

  kNumCounters,
};

// Log2-bucket histograms. Bucket 0 holds the value 0; bucket i (i >= 1)
// holds values in [2^(i-1), 2^i); the last bucket is a catch-all.
enum class Histogram : int {
  kSpinAcquireNanos,        // contended SpinLock::Acquire wall latency
  kSpinIterationsPerAcquire,// busy-wait beats per contended Acquire
  kLockHandoffNanos,        // diag on: releaser's stamp to spinner's win
  kBlockedNanos,            // park duration (de-scheduled time)
  kParkWaitNanos,           // Parker::Park wall latency (inside kBlockedNanos)
  kUnparkNanos,             // Parker::Unpark wall latency (the waker's cost)
  kTimerExpiryLagNanos,     // timed-out waiter's wake time minus deadline
  kWakeupLatencyNanos,      // waker's permit grant to wakee's Park return

  kNumHistograms,
};

inline constexpr int kNumCounters = static_cast<int>(Counter::kNumCounters);
inline constexpr int kNumHistograms =
    static_cast<int>(Histogram::kNumHistograms);
inline constexpr int kHistogramBuckets = 32;
inline constexpr std::size_t kCacheLineBytes = 64;

const char* CounterName(Counter c);
const char* HistogramName(Histogram h);

// A thread's private block of counters. Cache-line aligned (and therefore
// cache-line padded: alignas rounds sizeof up to a multiple of 64) so two
// threads' cells never share a line. Written only by the owning thread;
// read (and zeroed) cross-thread via the relaxed atomic API.
struct alignas(kCacheLineBytes) Cell {
  std::atomic<std::uint64_t> counters[kNumCounters];
  std::atomic<std::uint64_t> histograms[kNumHistograms][kHistogramBuckets];
};

// Registers a cell for the calling thread: a free one if any, else a new
// one. When the thread exits, its counts are folded into the registry's
// retired-totals cell and the zeroed cell goes back on the free list, so
// a thread's counts survive its exit and the registry holds about as many
// cells as threads were ever alive at once, not as were ever created.
Cell* RegisterCell();

// Cells allocated so far, free ones and the retired-totals cell included.
std::size_t RegisteredCells();

namespace internal {
// Namespace-scope and constinit: access compiles to a plain TLS load with
// no init-on-first-use guard or TLS wrapper call, which matters because
// every fast-path increment goes through here. RegisterCell() sets it.
extern constinit thread_local Cell* g_cell;
}  // namespace internal

inline Cell& LocalCell() {
  Cell* cell = internal::g_cell;
  if (cell == nullptr) [[unlikely]] {
    cell = RegisterCell();
  }
  return *cell;
}

// Single-writer increment: a relaxed load+store pair instead of fetch_add.
// The owning thread is the only writer, so no update can be lost, and the
// atomic API keeps concurrent Snapshot()/ResetStats() readers race-free —
// without the lock-prefixed RMW that would otherwise be the fast path's
// single most expensive instruction.
inline void BumpSlot(std::atomic<std::uint64_t>& slot, std::uint64_t n) {
  slot.store(slot.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

inline void Inc(Counter c) {
  BumpSlot(LocalCell().counters[static_cast<int>(c)], 1);
}

inline void Add(Counter c, std::uint64_t n) {
  BumpSlot(LocalCell().counters[static_cast<int>(c)], n);
}

// Bucket index for a log2 histogram: 0 -> 0, v -> bit_width(v) capped.
int HistogramBucket(std::uint64_t value);

inline void Record(Histogram h, std::uint64_t value) {
  BumpSlot(
      LocalCell().histograms[static_cast<int>(h)][HistogramBucket(value)], 1);
}

// The slow-mode word: one bit per runtime switch that sends every
// synchronization call off its in-line fast path — spec tracing
// (Nub::SetTrace), the flight recorder (SetRecorderEnabled) and diagnosis
// owner stamps (diag::SetEnabled). An in-line fast path tests the whole
// word once, relaxed, and takes its out-of-line path if any bit is set;
// that path then asks which switch is on. Flip switches while quiescent.
enum class SlowMode : std::uint32_t {
  kTrace = 1u << 0,
  kRecorder = 1u << 1,
  kDiag = 1u << 2,
};

namespace internal {
extern std::atomic<std::uint32_t> g_slow_mode;
}  // namespace internal

inline bool AnySlowMode() {
  return internal::g_slow_mode.load(std::memory_order_relaxed) != 0;
}

inline bool SlowModeOn(SlowMode m) {
  return (internal::g_slow_mode.load(std::memory_order_relaxed) &
          static_cast<std::uint32_t>(m)) != 0;
}

void SetSlowMode(SlowMode m, bool on);

// Monotonic nanoseconds since the first call in the process (steady clock).
// Shared by the latency histograms and the flight recorder so their
// timestamps are directly comparable.
std::uint64_t NowNanos();

// Aggregated totals across every registered cell.
struct Stats {
  std::uint64_t counters[kNumCounters] = {};
  std::uint64_t histograms[kNumHistograms][kHistogramBuckets] = {};

  std::uint64_t Count(Counter c) const {
    return counters[static_cast<int>(c)];
  }
  // Total samples recorded into a histogram.
  std::uint64_t HistogramTotal(Histogram h) const;
  // Every Nub (slow-path) entry, all operation kinds: the kNub* sum.
  std::uint64_t NubEntries() const;
};

Stats Snapshot();

// The snapshot rendered as a JSON object:
//   {"counters": {"fast_mutex_acquire": 12, ...},
//    "histograms": {"spin_acquire_ns": [0,3,...], ...}}
std::string StatsJson(const Stats& stats);
std::string ReportJson();

// Zeroes every counter and histogram slot of every registered cell (by
// walking the registry and the enum-sized arrays — nothing to forget).
void ResetStats();

}  // namespace taos::obs

#endif  // TAOS_SRC_OBS_METRICS_H_
