// Condition variables: Wait / Signal / Broadcast.
//
// Specification (SRC Report 20):
//
//   TYPE Condition = SET OF Thread INITIALLY {}
//   PROCEDURE Wait(VAR m: Mutex; VAR c: Condition) =
//     COMPOSITION OF Enqueue; Resume END
//     REQUIRES m = SELF  MODIFIES AT MOST [m, c]
//     ATOMIC ACTION Enqueue  ENSURES (cpost = insert(c, SELF)) & (mpost = NIL)
//     ATOMIC ACTION Resume   WHEN (m = NIL) & (SELF NOT-IN c)
//                            ENSURES mpost = SELF & UNCHANGED [c]
//   ATOMIC PROCEDURE Signal(VAR c)    ENSURES (cpost = {}) | (cpost PROPER-SUBSET c)
//   ATOMIC PROCEDURE Broadcast(VAR c) ENSURES cpost = {}
//
// Return from Wait is a hint: the caller re-evaluates its predicate and may
// Wait again (Mesa semantics, not Hoare's).
//
// Implementation (the paper's): a condition variable is a pair
// (Eventcount, Queue). Wait reads the eventcount, releases the mutex, then
// calls the Nub subroutine Block(c, i): under the spin-lock, if the
// eventcount still equals i the thread is queued and de-scheduled, otherwise
// a Signal/Broadcast intervened and Block returns at once. Signal/Broadcast
// increment the eventcount and unblock one/all queued threads. The
// eventcount closes the wakeup-waiting race and is why Signal may unblock
// more than one thread (every thread in the read-eventcount → Block window
// absorbs the same increment).
//
// AlertWait (alert.h) is this Wait with an alertable Block: the same
// Enqueue, the same (Eventcount, Queue), and a Block that also checks the
// caller's alert flag under its record lock and lets Alert dequeue it. One
// body (WaitUntil, BlockFor, TracedWaitFor) serves Wait, WaitFor,
// AlertWait and AlertWaitFor; the `alertable` flag picks the spec actions
// and whether the alert flag is read (DESIGN.md §13, "One condition wait").
//
// Departure from the paper (documented in DESIGN.md): waiters_ counts the
// threads between their eventcount read and their wakeup, incremented before
// the mutex is released, so the user-code "no threads to unblock" fast path
// of Signal/Broadcast cannot miss a waiter that is still on its way into
// Block.

#ifndef TAOS_SRC_THREADS_CONDITION_H_
#define TAOS_SRC_THREADS_CONDITION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "src/base/eventcount.h"
#include "src/base/intrusive_queue.h"
#include "src/threads/mutex.h"
#include "src/threads/thread_record.h"
#include "src/threads/wait_result.h"

namespace taos {

class Condition {
 public:
  Condition();
  ~Condition();
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  // Atomically releases m (ending the critical section) and suspends the
  // calling thread; returns inside a new critical section on m. The caller
  // must hold m and must re-evaluate its predicate on return.
  void Wait(Mutex& m);

  // Wait with a deadline: kSatisfied after a Signal/Broadcast wakeup,
  // kTimeout once `timeout` elapsed first. Either way the mutex is held
  // again on return (on the timeout path the caller re-acquires before
  // returning, like the spec's TimeoutResume action), and the caller must
  // re-evaluate its predicate — a kTimeout may race a just-missed Signal,
  // and Mesa semantics already force the re-check. A nonpositive timeout
  // returns kTimeout immediately without releasing m. A signal that
  // dequeues this thread always wins a race with the deadline.
  WaitResult WaitFor(Mutex& m, std::chrono::nanoseconds timeout);

  // Unblocks at least one waiting thread, if any are waiting. May unblock
  // more than one.
  void Signal();

  // Unblocks all waiting threads.
  void Broadcast();

  spec::ObjId id() const { return id_; }

  // Benchmark-only entry point (E2 ablation): the Nub path of Signal —
  // spin-lock, eventcount advance, queue inspection — taken
  // unconditionally, as every Signal would without the user-code
  // no-waiters gate. Semantically a valid Signal.
  void SignalNubPathForBench() { NubSignal(); }

 private:
  friend void DequeueBlockedLocked(ThreadRecord* t, bool alerted);
  friend void AlertWait(Mutex& m, Condition& c);
  friend WaitResult AlertWaitFor(Mutex& m, Condition& c,
                                 std::chrono::nanoseconds timeout);

  // The one body of Wait (kNoDeadline), WaitFor (0 for a nonpositive
  // timeout: return kTimeout at once, m held, nothing enqueued), AlertWait
  // and AlertWaitFor (alertable). An alertable wait returns kAlerted with
  // the alert consumed; kTimeout never consumes one.
  WaitResult WaitUntil(Mutex& m, std::uint64_t deadline_ns, bool alertable);

  // Nub subroutine Block(c, i): sleep unless the eventcount moved past i,
  // until the deadline (kNoDeadline for none). The record lock is held
  // once across the alerted check (alertable waits only), the eventcount
  // re-read and the enqueue, so an Alert either finds the flag set first or
  // finds `self` blocked and dequeues it. Returns kSatisfied, kTimeout, or
  // kAlerted with the alert still pending (WaitUntil consumes it once m is
  // held again).
  WaitResult BlockFor(ThreadRecord* self, EventCount::Value i,
                      std::uint64_t deadline_ns, bool alertable);
  void NubSignal();
  void NubBroadcast();

  // Makes `t`, which a Signal or Broadcast by `self` just took off the
  // Queue, ready: unparks it, or, if `self` holds the mutex t waits to
  // re-acquire (ThreadRecord::wait_mutex), adds it to self's owed wakes
  // for the release of that mutex to pay (WakeOwed, thread_record.h).
  static void Ready(ThreadRecord* self, ThreadRecord* t);

  // Removes `t`, found blocked here, from the Queue: the dequeue of an
  // expired waiter (alerted false) and of an alerted one. Caller holds
  // nub_lock_ and t's record lock. A traced waiter stays a spec-member of c
  // until its TimeoutResume or AlertResume action fires, so it moves to
  // pending_timeout_ or pending_raise_, where a Signal in between may still
  // remove it.
  void DequeueLocked(ThreadRecord* t, bool alerted);

  // The traced (spec-emitting) wait: Enqueue and Resume/TimeoutResume, or
  // AlertEnqueue and AlertResume when alertable.
  WaitResult TracedWaitFor(Mutex& m, ThreadRecord* self,
                           std::uint64_t deadline_ns, bool alertable);
  void TracedSignal(ThreadRecord* self);
  void TracedBroadcast(ThreadRecord* self);
  bool EraseWindow(ThreadRecord* rec);          // nub_lock_ held
  bool ErasePendingRaise(ThreadRecord* rec);    // nub_lock_ held
  bool ErasePendingTimeout(ThreadRecord* rec);  // nub_lock_ held

  EventCount ec_;
  ObjLock nub_lock_;  // guards queue_, window_, pending_raise_
  IntrusiveQueue<ThreadRecord> queue_;
  std::atomic<std::int32_t> waiters_{0};
  spec::ObjId id_;

  // Traced-mode bookkeeping (guarded by nub_lock_): threads between their
  // Enqueue action and their entry into Block (the wakeup-waiting window),
  // threads that have committed to raising Alerted but are still members of
  // the spec-level set c, and timed-out threads that dequeued themselves
  // but whose TimeoutResume action has not yet fired (still spec-members
  // likewise).
  std::vector<ThreadRecord*> window_;
  std::vector<ThreadRecord*> pending_raise_;
  std::vector<ThreadRecord*> pending_timeout_;
};

}  // namespace taos

#endif  // TAOS_SRC_THREADS_CONDITION_H_
