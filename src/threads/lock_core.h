// LockCore: the one (Lock-bit, Queue) lock behind Mutex, Semaphore and
// AlertP. Report 20: "The implementation of semaphores is identical to
// mutexes: P is the same as Acquire and V is the same as Release." This is
// that one implementation; the wrappers keep only what differs (their obs
// counters, spec actions and BlockKind, and Mutex's holder and REQUIRES
// checks).
//
// Acquire is a test-and-set (in-line, TestAndSet). If it fails, the Nub
// (AcquireFor) spins on the bit as the lock's one spinner (lock_spin.h),
// then adds the caller to the Queue, tests the bit again, de-schedules the
// caller if it is still set, and once woken retries from the test-and-set.
// Any thread may win that retry (the design barges), so the spec does not
// say which blocked thread acquires next. Release clears the bit (in-line,
// Clear) and enters the Nub (ReleaseSlow) only if the Queue is non-empty,
// to make one queued thread ready.
//
// Departures from the paper (DESIGN.md §8, §10, §11, §13): the Queue is
// guarded by the core's own ObjLock, not the global Nub spin-lock (unless
// TAOS_NUB_GLOBAL_LOCK); queue_len_ mirrors the Queue's length so that
// Release's "is the Queue non-empty?" test is a data-race-free load; a
// waiter may spin before it queues; and every wait may carry a deadline.

#ifndef TAOS_SRC_THREADS_LOCK_CORE_H_
#define TAOS_SRC_THREADS_LOCK_CORE_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "src/base/chaos.h"
#include "src/base/intrusive_queue.h"
#include "src/spec/action.h"
#include "src/spec/state.h"
#include "src/threads/nub.h"
#include "src/threads/thread_record.h"
#include "src/threads/wait_result.h"

namespace taos {

// The spec actions a traced acquire emits: `acquired` when it takes the
// bit, `timeout` when its deadline passes first, and `raises` when an
// alertable wait consumes an alert. An entry the wait cannot reach is
// unused.
struct LockActions {
  spec::Action acquired;
  spec::Action timeout{};
  spec::Action raises{};
};

class LockCore {
 public:
  explicit LockCore(spec::ObjId id) : id_(id) {}
  ~LockCore();
  LockCore(const LockCore&) = delete;
  LockCore& operator=(const LockCore&) = delete;

  spec::ObjId id() const { return id_; }
  ObjLock& lock() { return lock_; }

  // Racy: whether the bit is set. For destructor checks and debuggers.
  bool IsSetForDebug() const {
    return bit_.load(std::memory_order_relaxed) != 0;
  }

  // The user-code test-and-set: true iff it took the bit.
  bool TestAndSet() {
    return bit_.exchange(1, std::memory_order_acquire) == 0;
  }

  // The user-code clear; returns true iff it entered the Nub. The seq_cst
  // store/load pair pairs with the enqueue-then-test in AcquireFor, so at
  // least one side sees the other (no thread is left parked with the bit
  // free). The core may be destroyed once the bit is clear: the caller's
  // bookkeeping after this must not touch it.
  bool Clear() {
    bit_.store(0, std::memory_order_seq_cst);
    TAOS_CHAOS(kLockReleaseWindow);
    if (queue_len_.load(std::memory_order_seq_cst) > 0) {
      ReleaseSlow();
      return true;
    }
    return false;
  }

  // The Nub half of an acquire whose test-and-set failed. Returns
  // kSatisfied with the bit taken, kTimeout once `deadline_ns` passes
  // (kNoDeadline for none; an expired waiter dequeues itself, timer.h), or,
  // for an alertable wait, kAlerted with the alert consumed. The record
  // lock is held once across the alerted check, the enqueue and the block
  // publication, so an Alert either finds the flag unconsumed or finds
  // `self` blocked and dequeues it. Alertable waits do not spin: a spinner
  // is not blocked, so an Alert could only set its flag.
  WaitResult AcquireFor(ThreadRecord* self, std::uint64_t deadline_ns,
                        ThreadRecord::BlockKind kind, bool alertable);

  // Release's Nub subroutine: pops one queued thread and unparks it.
  void ReleaseSlow();

  // Removes `t`, found blocked here, from the Queue: the dequeue of an
  // expired waiter and of an alerted one. Caller holds lock() and t's
  // record lock.
  void DequeueLocked(ThreadRecord* t) {
    queue_.Remove(t);
    queue_len_.fetch_sub(1, std::memory_order_relaxed);
  }

  // The traced (spec-emitting) acquire. Each attempt holds lock(),
  // `co_lock` if the acquired action also touches a condition (NubGuard2
  // order) and self's record lock, and then consumes a pending alert
  // (alertable waits), takes a free bit, times out, or queues and parks; a
  // grant beats a co-incident expiry. `at_success` runs just before
  // actions.acquired is emitted, with every lock held.
  WaitResult TracedAcquireFor(ThreadRecord* self, std::uint64_t deadline_ns,
                              ThreadRecord::BlockKind kind, bool alertable,
                              const LockActions& actions,
                              ObjLock* co_lock = nullptr,
                              const std::function<void()>& at_success =
                                  nullptr);

  // The traced single attempt: emits `acquired` iff it took the bit.
  bool TracedTryAcquire(const spec::Action& acquired);

  // The traced release. The Locked form requires lock() held; it emits
  // `emit` if non-null (Wait's Enqueue releases the mutex inside its own
  // action) and returns the popped thread, for Wake once the lock is
  // dropped.
  void TracedRelease(const spec::Action& emit);
  ThreadRecord* TracedReleaseLocked(const spec::Action* emit);

  // Makes a popped thread (if any) ready: counts the handoff, unparks it.
  static void Wake(ThreadRecord* t);

 private:
  std::atomic<std::uint32_t> bit_{0};  // the Lock-bit: 1 iff taken
  // Set while one waiter spins on bit_ ahead of queueing (lock_spin.h).
  std::atomic<bool> spinner_{false};
  ObjLock lock_;  // guards queue_ (the slow paths)
  IntrusiveQueue<ThreadRecord> queue_;
  std::atomic<std::int32_t> queue_len_{0};
  spec::ObjId id_;  // the wrapper's spec id, for the waits-for registry
};

}  // namespace taos

#endif  // TAOS_SRC_THREADS_LOCK_CORE_H_
