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
// (Lock-bit, Queue). The user-code fast path is an inline test-and-set for
// Acquire and a clear for Release; the Nub slow paths enqueue the caller /
// unblock one queued thread under the global spin-lock. The design barges:
// a releasing thread makes one queued thread ready, but any thread may win
// the retried test-and-set first, so the spec deliberately does not say
// which blocked thread acquires next.
//
// Departures from the paper, documented in DESIGN.md:
//  - holder_ records the owning thread. The paper's implementation kept no
//    holder (clients complained the debugger could not show one); we keep it
//    to check the REQUIRES clause of Release and to support HolderForDebug().
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

#include "src/base/intrusive_queue.h"
#include "src/spec/action.h"
#include "src/spec/state.h"
#include "src/threads/nub.h"
#include "src/threads/thread_record.h"
#include "src/threads/wait_result.h"

namespace taos {

class Condition;

class Mutex {
 public:
  Mutex();
  ~Mutex();
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Acquire();

  // Single attempt; returns true on success. (Not in the paper's interface,
  // but implied by the user-code fast path; handy for tests.)
  bool TryAcquire();

  // Acquire with a deadline: kSatisfied with the mutex held, or kTimeout
  // (mutex not held) once `timeout` has elapsed. A zero or negative timeout
  // degenerates to a single TryAcquire. Timed acquires are not alertable
  // (kAlerted is impossible), matching Acquire. A release that grants this
  // thread the mutex always wins a race with the deadline: the grant is
  // kept, never converted into a timeout.
  WaitResult AcquireFor(std::chrono::nanoseconds timeout);

  void Release();

  // The thread currently holding the mutex, or kNil. Racy; for debuggers and
  // tests only — the spec exposes no such query to clients.
  spec::ThreadId HolderForDebug() const {
    return holder_.load(std::memory_order_relaxed);
  }

  spec::ObjId id() const { return id_; }

  // --- statistics (relaxed counters) ---
  std::uint64_t fast_acquires() const {
    return fast_acquires_.load(std::memory_order_relaxed);
  }
  std::uint64_t slow_acquires() const {
    return slow_acquires_.load(std::memory_order_relaxed);
  }
  void ResetStats() {
    fast_acquires_.store(0, std::memory_order_relaxed);
    slow_acquires_.store(0, std::memory_order_relaxed);
  }

 private:
  friend class Condition;
  friend class Timer;
  friend void AlertWait(Mutex& m, Condition& c);
  friend WaitResult AlertWaitFor(Mutex& m, Condition& c,
                                 std::chrono::nanoseconds timeout);

  // Nub subroutine for Acquire: enqueue, re-test the lock bit, de-schedule
  // if still held; retry the whole Acquire from the test-and-set.
  void NubAcquire(ThreadRecord* self);

  // Deadline-carrying slow paths (AcquireFor). Each parked episode arms the
  // process timer wheel (src/threads/timer.h); the timer dequeues an expired
  // waiter exactly as Alert dequeues an alertable one. Return false on
  // timeout.
  bool NubAcquireFor(ThreadRecord* self, std::uint64_t deadline_ns);
  bool TracedAcquireFor(ThreadRecord* self, std::uint64_t deadline_ns);

  // Nub subroutine for Release: unblock one queued thread.
  void NubRelease();

  // Marks `self` as the holder (fast- and slow-path epilogue). The diag
  // owner stamp rides the same funnel: one predicted branch on the
  // uncontended path when diagnosis is off.
  void NoteAcquired(ThreadRecord* self) {
    holder_.store(self->id, std::memory_order_relaxed);
    if (obs::diag::Enabled()) [[unlikely]] {
      TAOS_CHAOS(kDiagOwnerStamp);
      obs::diag::StampOwner(id_, self->id);
    }
  }

  // Clears the holder (every Release path, traced included).
  void NoteReleased() {
    holder_.store(spec::kNil, std::memory_order_relaxed);
    if (obs::diag::Enabled()) [[unlikely]] {
      obs::diag::ClearOwner(id_);
    }
  }

  // Traced (spec-emitting) paths. `emit` is the action recorded when the
  // acquisition succeeds: plain Acquire, or the Resume half of Wait /
  // AlertWait (which must be emitted at the instant the mutex is regained).
  // When the successful action also touches a condition's state (the
  // AlertResume/RAISES case leaves c's pending-raise set), `co_lock` names
  // that condition's ObjLock; every attempt then takes both object locks in
  // NubGuard2 order. `at_success` runs just before the emission, with the
  // object lock(s) and self's record lock held, so the raise can atomically
  // leave the pending-raise set and the alerts set as part of the same
  // atomic action.
  void TracedAcquire(ThreadRecord* self, const spec::Action& emit);
  void TracedAcquire(ThreadRecord* self, const spec::Action& emit,
                     ObjLock* co_lock,
                     const std::function<void()>& at_success);
  void TracedRelease(ThreadRecord* self);

  // Core of TracedRelease; caller holds this mutex's ObjLock. Returns the
  // thread to unpark (after the lock is dropped), if any.
  ThreadRecord* TracedReleaseLocked(ThreadRecord* self, bool emit_release);

  std::atomic<std::uint32_t> bit_{0};  // the Lock-bit: 1 iff inside a
                                       // critical section
  ObjLock nub_lock_;                   // guards queue_ (the slow paths)
  IntrusiveQueue<ThreadRecord> queue_;
  std::atomic<std::int32_t> queue_len_{0};
  std::atomic<spec::ThreadId> holder_{spec::kNil};
  spec::ObjId id_;

  std::atomic<std::uint64_t> fast_acquires_{0};
  std::atomic<std::uint64_t> slow_acquires_{0};
};

}  // namespace taos

#endif  // TAOS_SRC_THREADS_MUTEX_H_
