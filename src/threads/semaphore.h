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
// as Acquire and V is the same as Release" — here literally: a Semaphore is
// the LockCore a Mutex holds (src/threads/lock_core.h), without the holder.
// The types are distinct: there is no notion of a thread holding a
// semaphore and no precondition on V, so P and V need not be textually
// linked. Semaphores are the primitive for synchronizing with interrupt
// routines, which cannot use mutexes (the interrupt may have pre-empted a
// thread inside the critical section).

#ifndef TAOS_SRC_THREADS_SEMAPHORE_H_
#define TAOS_SRC_THREADS_SEMAPHORE_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "src/obs/metrics.h"
#include "src/spec/state.h"
#include "src/threads/lock_core.h"
#include "src/threads/wait_result.h"

namespace taos {

class Semaphore {
 public:
  Semaphore();
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

  spec::ObjId id() const { return core_.id(); }

  // Racy snapshot for tests/debuggers.
  bool AvailableForDebug() const { return !core_.IsSetForDebug(); }

 private:
  friend void AlertP(Semaphore& s);

  // The user-code halves of P (and TryP, PFor, AlertP) and V, as in Mutex.
  bool TestAndSet() {
    if (!core_.TestAndSet()) {
      return false;
    }
    obs::Inc(obs::Counter::kFastSemP);
    return true;
  }
  void ClearBit() {
    obs::Inc(core_.Clear() ? obs::Counter::kNubV : obs::Counter::kFastSemV);
  }

  // Out-of-line paths: a slow-mode bit is set, or P found the bit taken.
  void PSlow();
  bool TryPSlow();
  void VSlow();

  // The body of PSlow and PFor, as Mutex::AcquireUntil.
  WaitResult PUntil(std::uint64_t deadline_ns);

  LockCore core_;
};

}  // namespace taos

#endif  // TAOS_SRC_THREADS_SEMAPHORE_H_
