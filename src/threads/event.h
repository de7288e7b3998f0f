// Events: a boolean state variable threads can wait on, the base object of
// the multi-object wait subsystem (src/threads/poll.h, DESIGN.md §15).
//
// Specification (extension; not in SRC Report 20):
//
//   TYPE Event = BOOL INITIALLY FALSE
//   ATOMIC PROCEDURE Set(VAR e)    MODIFIES AT MOST [e]  ENSURES epost = TRUE
//   ATOMIC PROCEDURE Reset(VAR e)  MODIFIES AT MOST [e]  ENSURES epost = FALSE
//   Wait(e), manual-reset:  ATOMIC  WHEN e  ENSURES UNCHANGED [e]
//   Wait(e), auto-reset:    ATOMIC  WHEN e  ENSURES epost = FALSE
//
// The reset mode is a property of the object, fixed at construction: a
// manual-reset event stays set until Reset (a Wait observes it; any number
// of waiters get through), an auto-reset event is consumed by the granted
// waiter (exactly one waiter per Set gets through — the paper's binary
// semaphore with a WHEN clause instead of a handoff).
//
// Level-triggered, waiter-side consumption: Set publishes the flag and
// wakes; woken waiters re-test and (auto mode) race to consume, Mesa-style,
// exactly like the mutex's barging retry loop. There is no granter-side
// handoff, which is what makes the multi-object protocol's races benign —
// a notification that reaches a waiter that no longer wants the event
// consumes nothing (see poll.h for the full argument).
//
// Beyond the plain waiter queue (an intrusive queue, exactly Semaphore's),
// an Event carries a *pollable list*: registrations by Poll::WaitAny/WaitAll
// waiters that Set must notify, kept as an intrusive doubly-linked list of
// PollNodes guarded by the event's ObjLock. A Poll keeps its nodes linked
// between waits (poll.h), so a Poll that waits again and again registers
// once.
//
// Set is one call: the flag store, the Dekker load of the waiter and
// poller counts, and, only when either is non-zero, the wakeups under the
// event lock with the unparks after it. MessageQueue calls it on its
// readiness edges from no lock of its own (message_queue.h), so no caller
// holds a lock a woken thread would need.

#ifndef TAOS_SRC_THREADS_EVENT_H_
#define TAOS_SRC_THREADS_EVENT_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "src/base/intrusive_queue.h"
#include "src/base/small_vector.h"
#include "src/spec/state.h"
#include "src/threads/nub.h"
#include "src/threads/thread_record.h"
#include "src/threads/wait_result.h"
#include "src/waitq/parker.h"

namespace taos {

class Poll;
class Event;

// The parkers a wake path unparks once it has dropped the event lock.
using ParkerList = SmallVector<waitq::Parker*>;

enum class EventReset : std::uint8_t {
  kManual,  // Set satisfies every waiter until Reset
  kAuto,    // each Set is consumed by exactly one granted waiter
};

// One Poll's registration on one Event. Resident in the Poll, linked from
// its first wait until the Poll is destroyed; or, for a traced wait or a
// second thread waiting on the same Poll at once, in that waiter's frame
// for one call. The
// list links, `rec` and `latch` change only under the event's ObjLock while
// the node is linked; granters never dereference a PollNode outside it.
struct PollNode {
  PollNode* prev = nullptr;
  PollNode* next = nullptr;
  ThreadRecord* rec = nullptr;  // the thread a notify may wake
  // The latch the registrant re-arms and parks on: its Poll's own for a
  // resident node, rec->poll_latch for a frame node. A notify unblocks rec
  // only while rec is blocked on this very latch (poll.h).
  std::atomic<std::uint32_t>* latch = nullptr;
  bool linked = false;
};

class Event {
 public:
  explicit Event(EventReset reset = EventReset::kManual);
  // REQUIRES no blocked waiters and no live poll registrations: every Poll
  // this event was added to is already destroyed (poll.h).
  ~Event();
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  // ENSURES epost = TRUE, waking waiters: all of them for manual-reset, one
  // for auto-reset (pollers are notified when no plain waiter took the
  // pulse). Safe from any thread, no precondition — like V.
  void Set();

  // ENSURES epost = FALSE. No wakeups.
  void Reset();

  // Blocks until the event is set; auto-reset consumes it. Not alertable
  // (Poll's alertable variants are the composition point with Alert).
  void Wait();

  // Single attempt; true iff the event was set (and, auto mode, consumed).
  bool TryWait();

  // Wait with a deadline: kSatisfied (auto: consumed), or kTimeout once
  // `timeout` has elapsed. A Set that grants this thread always beats a
  // co-incident expiry. Zero/negative timeout degenerates to TryWait.
  WaitResult WaitFor(std::chrono::nanoseconds timeout);

  // Racy snapshot.
  bool IsSet() const { return set_.load(std::memory_order_relaxed) != 0; }

  EventReset reset_mode() const { return reset_; }
  spec::ObjId id() const { return id_; }

 private:
  friend class Poll;
  friend void DequeueBlockedLocked(ThreadRecord* t, bool alerted);

  // The Nub and traced slow paths of Wait (kNoDeadline) and WaitFor.
  // Return false on timeout.
  bool NubWaitFor(ThreadRecord* self, std::uint64_t deadline_ns);
  bool TracedWaitFor(ThreadRecord* self, std::uint64_t deadline_ns);
  void ResumeForSetLocked(ParkerList* unparks);
  void TracedSet(ThreadRecord* self);
  void TracedReset(ThreadRecord* self);

  // The waiter-side claim: auto-reset exchanges the flag away, manual-reset
  // observes it.
  bool TryConsume(std::memory_order order) {
    if (reset_ == EventReset::kAuto) {
      return set_.exchange(0, order) != 0;
    }
    return set_.load(order) != 0;
  }

  // --- pollable-list plumbing (called by Poll and by Set) ---

  // Registers `node` on this event's pollable list (a no-op when it is
  // already linked). REQUIRES nub_lock_ held.
  void RegisterPollerLocked(PollNode* node);

  // Removes `node`'s registration, taking the event's ObjLock to unlink.
  void DeregisterPoller(PollNode* node);

  // Notifies every registered poller (latch 0->1 edge does the record-lock
  // unblock dance); collects parkers to unpark after the lock drops.
  // REQUIRES nub_lock_ held.
  void NotifyPollersLocked(ParkerList* unparks);
  static void NotifyPoller(const PollNode* node, ParkerList* unparks);

  std::atomic<std::uint32_t> set_;      // 1 iff set
  ObjLock nub_lock_;                    // guards the queues and poller list
  IntrusiveQueue<ThreadRecord> queue_;  // plain waiters
  std::atomic<std::int32_t> queue_len_{0};
  PollNode pollers_;  // poller list: circular, sentinel node
  std::atomic<std::int32_t> pollers_len_{0};
  const EventReset reset_;
  spec::ObjId id_;
};

}  // namespace taos

#endif  // TAOS_SRC_THREADS_EVENT_H_
