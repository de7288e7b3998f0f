// Mutex: Acquire / Release.
//
// Specification (SRC Report 20):
//
//   TYPE Mutex = Thread INITIALLY NIL
//   ATOMIC PROCEDURE Acquire(VAR m: Mutex)
//     MODIFIES AT MOST [m]  WHEN m = NIL  ENSURES mpost = SELF
//   ATOMIC PROCEDURE Release(VAR m: Mutex)
//     REQUIRES m = SELF  MODIFIES AT MOST [m]  ENSURES mpost = NIL
//
// Implementation (faithful to the paper's): a mutex is a pair
// (Lock-bit, Queue). The user-code fast path, compiled in-line below, is a
// test-and-set for Acquire and a clear for Release — one atomic
// read-modify-write per transition, after one relaxed test of the
// slow-mode word (src/obs/metrics.h). The Nub slow paths in mutex.cc
// enqueue the caller / unblock one queued thread under the spin-lock. The
// design barges: a releasing thread makes one queued thread ready, but any
// thread may win the retried test-and-set first, so the spec deliberately
// does not say which blocked thread acquires next.
//
// Departures from the paper, documented in DESIGN.md:
//  - holder_ records the owning thread. The paper's implementation kept no
//    holder (clients complained the debugger could not show one); we keep it
//    to check the REQUIRES clause of Release and to support HolderForDebug().
//  - before queueing, one waiter at a time (spinner_) may spin on the
//    Lock-bit for a few microseconds, taking it with the user-code
//    test-and-set (src/threads/lock_spin.h): one more barging order.
//  - queue_len_ is an atomic mirror of the queue length so Release's
//    user-code "is the Queue non-empty?" test is a data-race-free load.
//  - the Queue is guarded by this mutex's own ObjLock rather than the global
//    Nub spin-lock (sharded slow paths; see nub.h for the discipline and the
//    TAOS_NUB_GLOBAL_LOCK fallback).

#ifndef TAOS_SRC_THREADS_MUTEX_H_
#define TAOS_SRC_THREADS_MUTEX_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>

#include "src/base/chaos.h"
#include "src/base/check.h"
#include "src/base/intrusive_queue.h"
#include "src/obs/metrics.h"
#include "src/spec/action.h"
#include "src/spec/state.h"
#include "src/threads/nub.h"
#include "src/threads/thread_record.h"
#include "src/threads/wait_result.h"

namespace taos {

class Condition;
class Mutex;

namespace internal {
// The one body of AlertWait and AlertWaitFor (src/threads/alert.cc).
WaitResult AlertWaitUntil(Mutex& m, Condition& c, std::uint64_t deadline_ns);
}  // namespace internal

class Mutex {
 public:
  Mutex();
  ~Mutex();
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Acquire() {
    if (!obs::AnySlowMode() && TestAndSet()) [[likely]] {
      return;
    }
    AcquireSlow();
  }

  // Single attempt; returns true on success. (Not in the paper's interface,
  // but implied by the user-code fast path; handy for tests.)
  bool TryAcquire() {
    if (obs::AnySlowMode()) [[unlikely]] {
      return TryAcquireSlow();
    }
    return TestAndSet();
  }

  // Acquire with a deadline: kSatisfied with the mutex held, or kTimeout
  // (mutex not held) once `timeout` has elapsed. A zero or negative timeout
  // degenerates to a single TryAcquire. Timed acquires are not alertable
  // (kAlerted is impossible), matching Acquire. A release that grants this
  // thread the mutex always wins a race with the deadline: the grant is
  // kept, never converted into a timeout.
  WaitResult AcquireFor(std::chrono::nanoseconds timeout);

  void Release() {
    if (obs::AnySlowMode()) [[unlikely]] {
      ReleaseSlow();
      return;
    }
    ClearBit(Nub::Current());
  }

  // The thread currently holding the mutex, or kNil. Racy; for debuggers and
  // tests only — the spec exposes no such query to clients.
  spec::ThreadId HolderForDebug() const {
    return holder_.load(std::memory_order_relaxed);
  }

  spec::ObjId id() const { return id_; }

 private:
  friend class Condition;
  friend bool ParkBlockedUntil(ThreadRecord* t, std::uint64_t deadline_ns,
                               waitq::Parker::Spin spin);
  friend WaitResult internal::AlertWaitUntil(Mutex& m, Condition& c,
                                             std::uint64_t deadline_ns);

  // The user-code test-and-set of Acquire and TryAcquire. On success it
  // counts the fast acquire and records the holder; diagnosis is off here
  // (its bit is in the slow-mode word), so there is no owner stamp.
  bool TestAndSet() {
    if (bit_.exchange(1, std::memory_order_acquire) != 0) {
      return false;
    }
    obs::Inc(obs::Counter::kFastMutexAcquire);
    holder_.store(Nub::Current()->id, std::memory_order_relaxed);
    return true;
  }

  // Release's user code: clear the Lock-bit; call the Nub only if the Queue
  // is non-empty. The seq_cst store/load pair pairs with the
  // enqueue-then-test in NubAcquireFor so that at least one side sees the
  // other (no thread is left parked with the mutex free).
  void ClearBit(ThreadRecord* self) {
    // REQUIRES m = SELF. (Checked here as a library extension; the paper's
    // implementation trusted the caller.)
    TAOS_CHECK(holder_.load(std::memory_order_relaxed) == self->id);
    holder_.store(spec::kNil, std::memory_order_relaxed);
    bit_.store(0, std::memory_order_seq_cst);
    TAOS_CHAOS(kMutexReleaseWindow);
    if (queue_len_.load(std::memory_order_seq_cst) > 0) {
      NubRelease();
    } else {
      obs::Inc(obs::Counter::kFastMutexRelease);
    }
  }

  // The out-of-line paths the in-line ones fall back to: taken when a
  // slow-mode bit is set (they emit recorder events, stamp diag owners and
  // divert to the traced paths) or, for Acquire, when the bit is held.
  void AcquireSlow();
  bool TryAcquireSlow();
  void ReleaseSlow();

  // Nub subroutine for Acquire and AcquireFor: first spin on the lock bit
  // if no other waiter is spinning (SpinForLockBit, lock_spin.h); then
  // enqueue, re-test the lock bit, de-schedule if still held; retry the
  // whole Acquire from the test-and-set. With a deadline (kNoDeadline for
  // Acquire) each parked episode parks until it, and an expired waiter
  // dequeues itself under the same locks a Release takes
  // (ParkBlockedUntil, src/threads/timer.h). Returns false on timeout.
  bool NubAcquireFor(ThreadRecord* self, std::uint64_t deadline_ns);

  // Nub subroutine for Release: unblock one queued thread.
  void NubRelease();

  // Marks `self` as the holder (out-of-line epilogue; the in-line one is
  // TestAndSet), with the diag owner stamp when diagnosis is on.
  void NoteAcquired(ThreadRecord* self) {
    holder_.store(self->id, std::memory_order_relaxed);
    if (obs::diag::Enabled()) [[unlikely]] {
      TAOS_CHAOS(kDiagOwnerStamp);
      obs::diag::StampOwner(id_, self->id);
    }
  }

  // The traced (spec-emitting) acquire, with a deadline like NubAcquireFor.
  // `emit` is the action recorded when the acquisition succeeds: plain
  // Acquire, or the Resume half of Wait / AlertWait (which must be emitted
  // at the instant the mutex is regained, and never carries a deadline).
  // On timeout it emits AcquireFor/TIMEOUT and returns false. When the
  // successful action also touches a condition's state (the
  // AlertResume/RAISES case leaves c's pending-raise set), `co_lock` names
  // that condition's ObjLock; every attempt then takes both object locks in
  // NubGuard2 order. `at_success` runs just before the emission, with the
  // object lock(s) and self's record lock held, so the raise can atomically
  // leave the pending-raise set and the alerts set as part of the same
  // atomic action.
  bool TracedAcquireFor(ThreadRecord* self, std::uint64_t deadline_ns,
                        const spec::Action& emit, ObjLock* co_lock = nullptr,
                        const std::function<void()>& at_success = nullptr);
  void TracedRelease(ThreadRecord* self);

  // Core of TracedRelease; caller holds this mutex's ObjLock. Returns the
  // thread to unpark (after the lock is dropped), if any.
  ThreadRecord* TracedReleaseLocked(ThreadRecord* self, bool emit_release);

  std::atomic<std::uint32_t> bit_{0};  // the Lock-bit: 1 iff inside a
                                       // critical section
  // Set while one waiter spins on bit_ ahead of queueing (lock_spin.h).
  std::atomic<bool> spinner_{false};
  ObjLock nub_lock_;                   // guards queue_ (the slow paths)
  IntrusiveQueue<ThreadRecord> queue_;
  std::atomic<std::int32_t> queue_len_{0};
  std::atomic<spec::ThreadId> holder_{spec::kNil};
  spec::ObjId id_;
};

}  // namespace taos

#endif  // TAOS_SRC_THREADS_MUTEX_H_
