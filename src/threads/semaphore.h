// Binary semaphores: P / V.
//
// Specification (SRC Report 20):
//
//   TYPE Semaphore = (available, unavailable) INITIALLY available
//   ATOMIC PROCEDURE P(VAR s)  MODIFIES AT MOST [s]
//     WHEN s = available  ENSURES spost = unavailable
//   ATOMIC PROCEDURE V(VAR s)  MODIFIES AT MOST [s]
//     ENSURES spost = available
//
// "The implementation of semaphores is identical to mutexes: P is the same
// as Acquire and V is the same as Release" — but the types are distinct:
// there is no notion of a thread holding a semaphore and no precondition on
// V, so P and V need not be textually linked. Semaphores are the primitive
// for synchronizing with interrupt routines, which cannot use mutexes (the
// interrupt may have pre-empted a thread inside the critical section).

#ifndef TAOS_SRC_THREADS_SEMAPHORE_H_
#define TAOS_SRC_THREADS_SEMAPHORE_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "src/base/chaos.h"
#include "src/base/intrusive_queue.h"
#include "src/obs/metrics.h"
#include "src/spec/state.h"
#include "src/threads/nub.h"
#include "src/threads/thread_record.h"
#include "src/threads/wait_result.h"

namespace taos {

class Semaphore {
 public:
  Semaphore();
  ~Semaphore();
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  // Blocks until the semaphore is available, then atomically makes it
  // unavailable. In-line like Mutex::Acquire: one test of the slow-mode
  // word, one test-and-set.
  void P() {
    if (!obs::AnySlowMode() && TestAndSet()) [[likely]] {
      return;
    }
    PSlow();
  }

  // Single attempt; returns true if the semaphore was taken.
  bool TryP() {
    if (obs::AnySlowMode()) [[unlikely]] {
      return TryPSlow();
    }
    return TestAndSet();
  }

  // P with a deadline: kSatisfied with the semaphore taken, or kTimeout
  // (not taken) once `timeout` has elapsed. A zero or negative timeout
  // degenerates to a single TryP. Not alertable — AlertP is the alertable
  // variant; kAlerted is impossible here. A V that grants this thread
  // always wins a race with the deadline.
  WaitResult PFor(std::chrono::nanoseconds timeout);

  // Makes the semaphore available. Safe to call from any thread — including
  // one acting as an interrupt routine — with no precondition.
  void V() {
    if (obs::AnySlowMode()) [[unlikely]] {
      VSlow();
      return;
    }
    ClearBit();
  }

  spec::ObjId id() const { return id_; }

  // Racy snapshot for tests/debuggers.
  bool AvailableForDebug() const {
    return bit_.load(std::memory_order_relaxed) == 0;
  }

 private:
  friend bool ParkBlockedUntil(ThreadRecord* t, std::uint64_t deadline_ns,
                               waitq::Parker::Spin spin);
  friend void Alert(ThreadHandle t);
  friend void AlertP(Semaphore& s);

  // The user-code halves of P (and TryP, PFor, AlertP) and V, as in Mutex.
  bool TestAndSet() {
    if (bit_.exchange(1, std::memory_order_acquire) != 0) {
      return false;
    }
    obs::Inc(obs::Counter::kFastSemP);
    return true;
  }
  void ClearBit() {
    bit_.store(0, std::memory_order_seq_cst);
    TAOS_CHAOS(kSemReleaseWindow);
    if (queue_len_.load(std::memory_order_seq_cst) > 0) {
      NubV();
    } else {
      obs::Inc(obs::Counter::kFastSemV);
    }
  }

  // Out-of-line paths: a slow-mode bit is set, or P found the bit taken.
  void PSlow();
  bool TryPSlow();
  void VSlow();

  // The Nub and traced slow paths of P and PFor, with the same shape as
  // Mutex::NubAcquireFor (the same lock-bit spin ahead of the enqueue) and
  // Mutex::TracedAcquireFor: P passes kNoDeadline.
  // Return false on timeout.
  bool NubPFor(ThreadRecord* self, std::uint64_t deadline_ns);
  bool TracedPFor(ThreadRecord* self, std::uint64_t deadline_ns);
  void NubV();
  void TracedV(ThreadRecord* self);

  std::atomic<std::uint32_t> bit_{0};   // 1 iff unavailable
  std::atomic<bool> spinner_{false};    // one P spinning (lock_spin.h)
  ObjLock nub_lock_;                    // guards queue_ (the slow paths)
  IntrusiveQueue<ThreadRecord> queue_;
  std::atomic<std::int32_t> queue_len_{0};
  spec::ObjId id_;
};

}  // namespace taos

#endif  // TAOS_SRC_THREADS_SEMAPHORE_H_
