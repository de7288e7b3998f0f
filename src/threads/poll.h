// Multi-object wait: block until ANY (or ALL) of a set of Events is set.
//
// Specification (extension; not in SRC Report 20 — but exactly the kind of
// WHEN-clause composition its Larch idiom invites; the hard part Hayes's
// checker-oriented treatments call out is that the WHEN now ranges over a
// *set* of state variables):
//
//   WaitAny(W):  ATOMIC  WHEN (∃ e ∈ W: e)
//                ENSURES granted ∈ W ∧ e_granted^pre
//                        ∧ (auto(granted) ⇒ e_granted^post = FALSE)
//                        ∧ UNCHANGED [W \ {granted}]
//   WaitAll(W):  ATOMIC  WHEN (∀ e ∈ W: e)
//                ENSURES (∀ e ∈ W: auto(e) ⇒ e^post = FALSE)
//                        ∧ UNCHANGED [manual members]
//   Both REQUIRES W # {}.
//
// Implementation: the notify-latch protocol (DESIGN.md §15). Each wait owns
// a latch. Each round it re-arms the latch, makes sure it is registered on
// every member's pollable list, scans, and — if nothing is ready and the
// latch is still 0 under its record lock — parks, publishing the latch as
// the object it is blocked on. Event::Set notifies registrants by flipping
// the latch; the 0->1 winner performs the record-lock unblock dance, and
// unblocks the registrant only if it is blocked on that very latch.
// Crucially Set is *notify-only*: it never consumes the event on the
// waiter's behalf, so
//   - a notification that races a timeout or an Alert is benign (the waiter
//     re-scans once and takes whichever outcome holds),
//   - a registration left on a member that was not granted cannot lose a
//     signal (the flag, not the notification, carries the state), and
//   - exactly-one-consumption of an auto-reset pulse is decided by the
//     waiter's own atomic exchange, the same arbitration the single-object
//     Wait uses.
//
// Resident registrations. A Poll keeps one PollNode per member and the
// latch they notify. An untraced wait links the nodes on first use and
// leaves them linked when it returns, so the next wait by the same thread
// only re-arms the latch and scans, and takes no member's lock. While no
// wait runs, a Set still flips the idle latch, but the Poll's last waiter
// is not blocked on it, so it wakes nobody; two Polls sharing an Event on
// one thread therefore never wake each other. A wait by another thread, or
// by a reused record, first re-points the nodes at its own record under
// each member's lock. A thread that waits while another thread is already
// waiting on the same Poll registers nodes of its own, in its frame, on
// its record's latch (ThreadRecord::poll_latch), and unlinks them before
// it returns. Traced waits always take that frame path, so residency never
// changes what a traced run emits. The destructor unlinks the resident
// nodes, which is why every member must outlive the Poll.
//
// Lock ordering (vs the discipline in nub.h): registration and the granter
// walk take one event's ObjLock at a time (rule 1 shape); WaitAll's scan
// takes all member locks at once in ascending resolved-address order (rule
// 2 generalized from pairs to sets); the park/notify edge nests only the
// record lock, never an object lock (the latch needs no object at all) —
// which is what lets Alert, and a poll waiter whose deadline passed, end
// its wait under the record lock alone, without the rule-3 try-lock dance.

#ifndef TAOS_SRC_THREADS_POLL_H_
#define TAOS_SRC_THREADS_POLL_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "src/spec/state.h"
#include "src/threads/event.h"
#include "src/threads/thread_record.h"
#include "src/threads/wait_result.h"

namespace taos {

class Poll {
 public:
  static constexpr std::size_t kMaxWait = 16;

  Poll() = default;
  // Unlinks the resident registrations. REQUIRES no wait on this Poll still
  // running.
  ~Poll();
  Poll(const Poll&) = delete;
  Poll& operator=(const Poll&) = delete;

  // REQUIRES e not already added, fewer than kMaxWait members, and no wait
  // on this Poll running. Every added Event must outlive the Poll: the
  // Poll's registrations stay on its members between waits, and an Event
  // destroyed under a live registration panics (event.h).
  void Add(Event& e);

  std::size_t size() const { return n_; }

  // All waits REQUIRE a non-empty wait set.

  // Blocks until some member is set; auto-reset members are consumed by the
  // grant. Returns the granted member's index (Add order). Each scan starts
  // one past the member the previous WaitAny granted, so a member that
  // stays set cannot starve the others: a set member is granted within
  // size() calls.
  std::size_t WaitAny();

  struct AnyResult {
    std::size_t index;  // size() when result != kSatisfied
    WaitResult result;
  };
  // WaitAny with a deadline. A grant always beats a co-incident expiry;
  // a zero/negative timeout degenerates to a single scan.
  AnyResult WaitAnyFor(std::chrono::nanoseconds timeout);

  // Alertable WaitAny: raises Alerted if this thread is (or becomes)
  // alerted before a member is granted, consuming the alert.
  std::size_t AlertWaitAny();
  // Timed + alertable; kAlerted is reported, not thrown, mirroring
  // AlertWaitFor. An observed timeout never consumes a pending alert.
  AnyResult AlertWaitAnyFor(std::chrono::nanoseconds timeout);

  // Blocks until every member is simultaneously set, then consumes all
  // auto-reset members atomically (with respect to every locked consumer;
  // see the transient-pulse note in poll.cc's ScanAll).
  void WaitAll();
  WaitResult WaitAllFor(std::chrono::nanoseconds timeout);
  void AlertWaitAll();
  WaitResult AlertWaitAllFor(std::chrono::nanoseconds timeout);

 private:
  struct Outcome {
    WaitResult result;
    std::size_t index;
  };

  // The one body of every wait above; the untimed ones pass kNoDeadline.
  Outcome WaitInternal(bool all, bool alertable, std::uint64_t deadline_ns);
  // The untraced rounds, on the resident nodes or on a frame's own.
  Outcome WaitRounds(ThreadRecord* self, PollNode* nodes,
                     std::atomic<std::uint32_t>* latch, bool all,
                     bool alertable, std::uint64_t deadline_ns);
  Outcome TracedWait(ThreadRecord* self, bool all, bool alertable,
                     std::uint64_t deadline_ns);
  // Points the resident nodes at `self`, under each member's lock.
  void Rebind(ThreadRecord* self);
  std::size_t ScanAny(PollNode* nodes);
  // The member the next WaitAny scan starts at: one past the last grant.
  std::size_t ScanStart() const {
    return next_.load(std::memory_order_relaxed) % n_;
  }
  void NoteGranted(std::size_t i) {
    next_.store(i + 1, std::memory_order_relaxed);
  }
  bool ScanAll(PollNode* nodes, spec::ObjId* first_unset);
  void DeregisterAll(PollNode* nodes);
  spec::ObjIdSet WaitSetIds() const;

  Event* events_[kMaxWait] = {};
  std::size_t n_ = 0;
  // Relaxed: the scan order is a fairness hint, and waits on one Poll may
  // run on several threads at once.
  std::atomic<std::size_t> next_{0};

  // The resident registrations, one per member, and the latch they flip.
  PollNode resident_[kMaxWait];
  std::atomic<std::uint32_t> latch_{0};
  // True while a wait uses resident_; a second, concurrent waiter takes
  // the frame path instead. Its acquire and release hand resident_ and
  // owner_ from one waiting thread to the next.
  std::atomic<bool> busy_{false};
  // The thread id (so also the record generation) resident_ points at;
  // kNil until the first untraced wait, and again after an Add.
  spec::ThreadId owner_ = spec::kNil;
};

}  // namespace taos

#endif  // TAOS_SRC_THREADS_POLL_H_
