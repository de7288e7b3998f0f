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
// (Lock-bit, Queue), the LockCore that Semaphore shares
// (src/threads/lock_core.h, which describes the algorithm and its
// departures from the paper). The user-code fast path, compiled in-line
// below, is the core's test-and-set for Acquire and its clear for Release
// — one atomic read-modify-write per transition, after one relaxed test of
// the slow-mode word (src/obs/metrics.h).
//
// What the mutex adds to the core: holder_ records the owning thread. The
// paper's implementation kept no holder (clients complained the debugger
// could not show one); we keep it to check the REQUIRES clause of Release
// and to support HolderForDebug().

#ifndef TAOS_SRC_THREADS_MUTEX_H_
#define TAOS_SRC_THREADS_MUTEX_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>

#include "src/base/chaos.h"
#include "src/base/check.h"
#include "src/obs/metrics.h"
#include "src/spec/action.h"
#include "src/spec/state.h"
#include "src/threads/lock_core.h"
#include "src/threads/nub.h"
#include "src/threads/thread_record.h"
#include "src/threads/wait_result.h"

namespace taos {

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

  spec::ObjId id() const { return core_.id(); }

 private:
  friend class Condition;

  // The user-code test-and-set of Acquire and TryAcquire. On success it
  // counts the fast acquire and records the holder; diagnosis is off here
  // (its bit is in the slow-mode word), so there is no owner stamp.
  bool TestAndSet() {
    if (!core_.TestAndSet()) {
      return false;
    }
    obs::Inc(obs::Counter::kFastMutexAcquire);
    holder_.store(Nub::Current()->id, std::memory_order_relaxed);
    return true;
  }

  // Release's user code: clear the Lock-bit; the core calls the Nub only if
  // the Queue is non-empty. Then pay the wakes of any Signal this thread
  // made under a mutex it held (Condition::Ready): a plain load and a
  // branch, no atomic RMW.
  void ClearBit(ThreadRecord* self) {
    // REQUIRES m = SELF. (Checked here as a library extension; the paper's
    // implementation trusted the caller.)
    TAOS_CHECK(holder_.load(std::memory_order_relaxed) == self->id);
    holder_.store(spec::kNil, std::memory_order_relaxed);
    obs::Inc(core_.Clear() ? obs::Counter::kNubRelease
                           : obs::Counter::kFastMutexRelease);
    if (self->owed_wakes != nullptr) [[unlikely]] {
      WakeOwed(self);
    }
  }

  // The out-of-line paths the in-line ones fall back to: taken when a
  // slow-mode bit is set (they emit recorder events, stamp diag owners and
  // divert to the traced paths) or, for Acquire, when the bit is held.
  void AcquireSlow();
  bool TryAcquireSlow();
  void ReleaseSlow();

  // The body of AcquireSlow and AcquireFor: the traced acquire, or the
  // user-code test-and-set and then the Nub. `deadline_ns` is kNoDeadline
  // for Acquire, and 0 (always past: one attempt) for a nonpositive
  // AcquireFor timeout.
  WaitResult AcquireUntil(std::uint64_t deadline_ns);

  // Marks `self` as the holder (out-of-line epilogue; the in-line one is
  // TestAndSet), with the diag owner stamp when diagnosis is on.
  void NoteAcquired(ThreadRecord* self) {
    holder_.store(self->id, std::memory_order_relaxed);
    if (obs::diag::Enabled()) [[unlikely]] {
      TAOS_CHAOS(kDiagOwnerStamp);
      obs::diag::StampOwner(id(), self->id);
    }
  }

  // The traced releases' prologue, run before the bit is freed: checks
  // REQUIRES m = SELF and clears the holder and its diag owner stamp.
  void NoteReleased(ThreadRecord* self) {
    TAOS_CHECK(holder_.load(std::memory_order_relaxed) == self->id);
    holder_.store(spec::kNil, std::memory_order_relaxed);
    if (obs::diag::Enabled()) [[unlikely]] {
      obs::diag::ClearOwner(id());
    }
  }

  // The traced acquire: LockCore::TracedAcquireFor, then the holder.
  // `emit` is the action recorded on success: Acquire, or the Resume half
  // of Wait / AlertWait (emitted at the instant the mutex is regained,
  // never with a deadline). On timeout it emits AcquireFor/TIMEOUT and
  // returns false. `co_lock` and `at_success` are the core's.
  bool TracedAcquireFor(ThreadRecord* self, std::uint64_t deadline_ns,
                        const spec::Action& emit, ObjLock* co_lock = nullptr,
                        const std::function<void()>& at_success = nullptr);

  // Wait's and AlertWait's traced Enqueue releases the mutex inside its
  // own action: caller holds this mutex's ObjLock. Returns the thread to
  // pass to LockCore::Wake once the lock is dropped, if any.
  ThreadRecord* TracedReleaseLocked(ThreadRecord* self) {
    NoteReleased(self);
    return core_.TracedReleaseLocked(nullptr);
  }

  LockCore core_;
  std::atomic<spec::ThreadId> holder_{spec::kNil};
};

}  // namespace taos

#endif  // TAOS_SRC_THREADS_MUTEX_H_
