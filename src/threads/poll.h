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
// Implementation: the notify-latch protocol (DESIGN.md §15). The waiter
// owns a per-thread latch (ThreadRecord::poll_latch). Each round it re-arms
// the latch, registers on every member's pollable list, scans, and — if
// nothing is ready and the latch is still 0 under its record lock — parks.
// Event::Set notifies registrants by flipping the latch; the 0->1 winner
// performs the record-lock unblock dance. Crucially Set is *notify-only*:
// it never consumes the event on the waiter's behalf, so
//   - a notification that races a timeout or an Alert is benign (the waiter
//     re-scans once and takes whichever outcome holds),
//   - deregistering from the losers after a grant on one member cannot lose
//     a signal (the flag, not the notification, carries the state), and
//   - exactly-one-consumption of an auto-reset pulse is decided by the
//     waiter's own atomic exchange, the same arbitration the single-object
//     Wait uses.
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
  Poll(const Poll&) = delete;
  Poll& operator=(const Poll&) = delete;

  // REQUIRES e not already added, fewer than kMaxWait members. The caller
  // keeps every added Event alive across all waits on this Poll.
  void Add(Event& e);

  std::size_t size() const { return n_; }

  // All waits REQUIRE a non-empty wait set.

  // Blocks until some member is set; auto-reset members are consumed by the
  // grant. Returns the granted member's index (Add order).
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
  Outcome TracedWait(ThreadRecord* self, bool all, bool alertable,
                     std::uint64_t deadline_ns);
  std::size_t ScanAny(PollNode* nodes);
  bool ScanAll(PollNode* nodes, spec::ObjId* first_unset);
  void DeregisterAll(PollNode* nodes);
  spec::ObjIdSet WaitSetIds() const;

  Event* events_[kMaxWait] = {};
  std::size_t n_ = 0;
};

}  // namespace taos

#endif  // TAOS_SRC_THREADS_POLL_H_
