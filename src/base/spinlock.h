// The Nub's "more primitive mutual exclusion mechanism": a spin-lock.
//
// SRC Report 20, Implementation section: "The spin-lock is represented by a
// globally shared bit: it is acquired by a processor busy-waiting in a
// test-and-set loop; it is released by clearing the bit."
//
// The Firefly's test-and-set instruction is modelled with std::atomic_flag:
// a test-then-test-and-set loop with a relaxed read in the inner spin keeps
// the cache line quiet while contended, and contended acquisitions back off
// (doubling pauses up to kMaxBackoffPauses, yielding past kYieldThreshold —
// essential on machines with fewer cores than spinners).
//
// Contended acquisitions feed the obs layer: total and per-acquire spin
// iterations, a log2 latency histogram of the spin wait, and — with the
// diag layer on — the releaser-to-winner handoff latency (metrics.h,
// kLockHandoffNanos).
//
// FIFO queue locks (MCS, CLH) lose to backed-off test-and-set at a
// handful of cores once spinners outnumber them: a preempted waiter stalls
// everyone queued behind it (DESIGN.md §13, EXPERIMENTS E31).

#ifndef TAOS_SRC_BASE_SPINLOCK_H_
#define TAOS_SRC_BASE_SPINLOCK_H_

#include <atomic>
#include <cstdint>

#include "src/base/chaos.h"
#include "src/obs/diag.h"
#include "src/obs/metrics.h"

namespace taos {

// The only mutual-exclusion core. Kept, with LockBackendName and
// Nub::lock_backend(), only because the repository benchmark
// (perfbench/main.cc) stamps the lock backend into its results.
enum class LockBackend : std::uint8_t { kTas };

inline const char* LockBackendName(LockBackend) { return "tas"; }

class SpinLock {
 public:
  SpinLock() = default;
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void Acquire() {
    if (!bit_.test_and_set(std::memory_order_acquire)) {
      // A delay here stretches every Nub critical section, which is what
      // makes the try-lock dances and guard-ordered paths actually contend.
      TAOS_CHAOS(kSpinAcquired);
      return;
    }
    AcquireSlow();
  }

  // Single acquisition attempt; returns true if the lock was taken.
  bool TryAcquire() { return !bit_.test_and_set(std::memory_order_acquire); }

  void Release() {
    TAOS_CHAOS(kSpinBeforeRelease);
    // Handoff stamp for kLockHandoffNanos: there is no successor to
    // address, so the stamp lives on the lock and the clock read is gated
    // on the diag layer being on (one relaxed load and a predicted branch
    // otherwise — the same fast-path budget as the recorder checks).
    if (obs::diag::Enabled()) [[unlikely]] {
      release_ns_.store(obs::NowNanos(), std::memory_order_relaxed);
    }
    bit_.clear(std::memory_order_release);
  }

  // True if some thread currently holds the lock (racy; for diagnostics).
  bool IsHeld() const { return bit_.test(std::memory_order_relaxed); }

  // One polite busy-wait beat, exposed for callers running their own retry
  // loops (e.g. Alert's try-lock dance in src/threads/alert.cc).
  static void Pause() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }

 private:
  static constexpr std::uint64_t kMaxBackoffPauses = 64;
  static constexpr std::uint64_t kYieldThreshold = 1024;

  void AcquireSlow();  // contended path, with backoff

  // release_ns_ is the last releaser's NowNanos stamp (diag-enabled runs
  // only): a contended AcquireSlow that wins the bit reads it to
  // approximate releaser-to-winner handoff latency. It is shared by all
  // spinners, so under multi-waiter contention it measures the handoff to
  // whichever waiter barged in first — which is exactly test-and-set's
  // handoff discipline.
  std::atomic_flag bit_ = ATOMIC_FLAG_INIT;
  std::atomic<std::uint64_t> release_ns_{0};
};

// RAII bracket for a spin-lock critical section (the Nub subroutines in the
// paper all have the shape: acquire spin-lock; act; release spin-lock).
class SpinGuard {
 public:
  explicit SpinGuard(SpinLock& lock) : lock_(lock) { lock_.Acquire(); }
  ~SpinGuard() { lock_.Release(); }

  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

 private:
  SpinLock& lock_;
};

}  // namespace taos

#endif  // TAOS_SRC_BASE_SPINLOCK_H_
