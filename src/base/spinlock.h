// The Nub's "more primitive mutual exclusion mechanism": a spin-lock, now
// with a pluggable core.
//
// SRC Report 20, Implementation section: "The spin-lock is represented by a
// globally shared bit: it is acquired by a processor busy-waiting in a
// test-and-set loop; it is released by clearing the bit."
//
// The paper-faithful core (kTas) models the Firefly's test-and-set
// instruction with std::atomic_flag: a test-then-test-and-set loop with a
// relaxed read in the inner spin keeps the cache line quiet while contended,
// and contended acquisitions back off (doubling pauses up to
// kMaxBackoffPauses, yielding past kYieldThreshold — essential on machines
// with fewer cores than spinners). The backoff can be disabled process-wide
// (SetBackoffEnabled) for A/B runs.
//
// Mellor-Crummey & Scott showed that even backed-off test-and-set collapses
// under real multicore contention because every spinner hammers the same
// line; the two queue-lock cores fix that with local spinning and FIFO
// handoff:
//
//   kMcs — each waiter enqueues a cache-line-aligned qnode on a tail
//     pointer, links itself to its predecessor, and spins on its OWN node;
//     the releaser writes exactly one remote line (the successor's flag).
//   kClh — each waiter enqueues its qnode and spins on its PREDECESSOR's
//     flag; the releaser writes its own node's flag and the successor
//     adopts (recycles) the predecessor node. This variant keeps the
//     classic CLH spin topology but uses a null tail at quiescence (no
//     per-lock dummy node), so TryAcquire is a simple nullptr->node CAS
//     that never dereferences anything — the same shape as MCS, and the
//     reason rule 3's try-lock dance stays safe under both cores.
//
// The core is selected process-wide at runtime: TAOS_LOCK={tas,mcs,clh} at
// startup, or SetBackend() while the process is quiescent — every SpinLock
// instance must be free across a switch, because each core keeps its own
// idea of "held" (the TAS bit vs the queue tail).
//
// Contended acquisitions feed the obs layer per-backend: total and
// per-acquire spin iterations, a log2 latency histogram of the spin wait,
// and — for the queue cores — the releaser-to-successor handoff latency
// (metrics.h, kLockHandoffNanos).

#ifndef TAOS_SRC_BASE_SPINLOCK_H_
#define TAOS_SRC_BASE_SPINLOCK_H_

#include <atomic>
#include <cstdint>
#include <thread>

#include "src/base/chaos.h"
#include "src/obs/diag.h"
#include "src/obs/metrics.h"

namespace taos {

// Which mutual-exclusion core every SpinLock in the process runs on.
enum class LockBackend : std::uint8_t { kTas, kMcs, kClh };

const char* LockBackendName(LockBackend b);
// Accepts "tas", "mcs", "clh" (case-sensitive); returns false on junk.
bool ParseLockBackend(const char* text, LockBackend* out);

// One waiter's queue node for the MCS/CLH cores. Cache-line aligned so two
// waiters never false-share their spin flags. Nodes come from per-thread
// pools backed by a global, never-freed registry (type-stable storage, same
// idiom as the ThreadRecord registry), so a stale pointer read during a
// race window dereferences real memory.
struct alignas(obs::kCacheLineBytes) LockQNode {
  std::atomic<LockQNode*> next{nullptr};  // MCS successor link
  std::atomic<bool> locked{false};        // MCS: own wait flag; CLH: holder's
  std::uint64_t handoff_ns = 0;           // releaser's NowNanos stamp; read by
                                          // the waiter after the flag flips
};

class SpinLock {
 public:
  SpinLock() = default;
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void Acquire() {
    switch (backend()) {
      case LockBackend::kTas:
        if (!bit_.test_and_set(std::memory_order_acquire)) {
          // A delay here stretches every Nub critical section, which is what
          // makes the try-lock dances and guard-ordered paths actually
          // contend.
          TAOS_CHAOS(kSpinAcquired);
          return;
        }
        AcquireSlow();
        return;
      case LockBackend::kMcs:
        McsAcquire();
        return;
      case LockBackend::kClh:
        ClhAcquire();
        return;
    }
  }

  // Single acquisition attempt; returns true if the lock was taken. Under
  // the queue cores this is a nullptr->node CAS on the tail — it never
  // dereferences another waiter's node, which is what keeps rule 3's
  // try-lock dance (and the timer's expiry path) free of use-after-free
  // and ABA hazards.
  bool TryAcquire() {
    if (backend() == LockBackend::kTas) {
      return !bit_.test_and_set(std::memory_order_acquire);
    }
    return QueueTryAcquire();
  }

  void Release() {
    TAOS_CHAOS(kSpinBeforeRelease);
    switch (backend()) {
      case LockBackend::kTas:
        // Handoff stamp for the TAS core, so kLockHandoffNanos is
        // comparable across all three backends. The queue cores stamp
        // their successor's qnode for free at handoff; TAS has no
        // successor to address, so the stamp lives on the lock and the
        // clock read is gated on the diag layer being on (one relaxed
        // load and a predicted branch otherwise — the same fast-path
        // budget as the recorder checks).
        if (obs::diag::Enabled()) [[unlikely]] {
          tas_release_ns_.store(obs::NowNanos(), std::memory_order_relaxed);
        }
        bit_.clear(std::memory_order_release);
        return;
      case LockBackend::kMcs:
        McsRelease();
        return;
      case LockBackend::kClh:
        ClhRelease();
        return;
    }
  }

  // True if some thread currently holds the lock (racy; for diagnostics).
  bool IsHeld() const {
    if (backend() == LockBackend::kTas) {
      return bit_.test(std::memory_order_relaxed);
    }
    return tail_.load(std::memory_order_relaxed) != nullptr;
  }

  // The queue-core tail, as an opaque token (racy; for tests). Every
  // enqueue exchanges a distinct node into the tail, and a node in flight
  // is in exactly one queue, so "the tail changed from the value observed
  // before forking waiter i" certifies that waiter i has enqueued — the
  // arrival-serialization hook the FIFO fairness tests use. Always null
  // under the TAS core.
  const void* TailForDebug() const {
    return tail_.load(std::memory_order_acquire);
  }

  // One polite busy-wait beat, exposed for callers running their own retry
  // loops (e.g. Alert's try-lock dance in src/threads/alert.cc).
  static void Pause() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }

  // Process-wide core selection. Initialized from TAOS_LOCK at startup;
  // switching requires every SpinLock in the process to be free (the same
  // quiescence contract as Nub::SetGlobalLockMode).
  static LockBackend backend() {
    return BackendFlag().load(std::memory_order_relaxed);
  }
  static void SetBackend(LockBackend b) {
    BackendFlag().store(b, std::memory_order_relaxed);
  }

  // Process-wide backoff switch for A/B measurement (bench_contention).
  // Default on. Affects only contended TAS acquisitions.
  static void SetBackoffEnabled(bool on) {
    BackoffEnabled().store(on, std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint64_t kMaxBackoffPauses = 64;
  static constexpr std::uint64_t kYieldThreshold = 1024;

  static std::atomic<bool>& BackoffEnabled() {
    static std::atomic<bool> enabled{true};
    return enabled;
  }

  // Defined in spinlock.cc: reads TAOS_LOCK once at first use.
  static std::atomic<LockBackend>& BackendFlag();

  void AcquireSlow();       // contended TAS path
  void McsAcquire();
  void McsRelease();
  void ClhAcquire();
  void ClhRelease();
  bool QueueTryAcquire();   // shared by MCS and CLH

  // TAS core state. tas_release_ns_ is the last releaser's NowNanos stamp
  // (diag-enabled runs only): a contended AcquireSlow that wins the bit
  // reads it to approximate releaser-to-winner handoff latency. Unlike the
  // queue cores' per-qnode stamp it is shared by all spinners, so under
  // multi-waiter contention it measures the handoff to whichever waiter
  // barged in first — which is exactly TAS's handoff discipline.
  std::atomic_flag bit_ = ATOMIC_FLAG_INIT;
  std::atomic<std::uint64_t> tas_release_ns_{0};
  // Queue-core state: the tail of the waiter queue (null iff free with no
  // waiters — the quiescent state both cores share), and the node the
  // current holder will release with. holder_node_ is logically owned by
  // the holder; it is atomic only so the cross-thread happens-before chain
  // through the tail keeps the accesses data-race-free.
  std::atomic<LockQNode*> tail_{nullptr};
  std::atomic<LockQNode*> holder_node_{nullptr};
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
