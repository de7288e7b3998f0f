// Litmus scenarios for the model checker: each is a small concurrent program
// over the simulated Firefly primitives, with a per-run verdict. The
// interesting properties (e.g. "some schedule deadlocks the naive
// broadcast") are established by tests in tests/ running these through the
// Explorer.
//
// Factories may be given a Tally to accumulate per-outcome counts across the
// many runs of an exploration (the LitmusTest object itself is per-run).

#ifndef TAOS_SRC_MODEL_LITMUS_H_
#define TAOS_SRC_MODEL_LITMUS_H_

#include <cstdint>

#include "src/model/explorer.h"

namespace taos::model {

struct Tally {
  std::uint64_t normal_exits = 0;
  std::uint64_t alerted_exits = 0;
  std::uint64_t completions = 0;
  std::uint64_t deadlocks = 0;
  std::uint64_t absorbed_wakeups = 0;
  std::uint64_t multi_unblock_signals = 0;
  // AlertP returned with the caller's alert still pending: both of the
  // spec's WHEN clauses held and the implementation chose RETURNS.
  std::uint64_t returns_with_alert_pending = 0;
  // Timed-wait litmus: runs where the timed-out waiter found itself still
  // queued and dequeued itself, vs runs where a release had dequeued it
  // first and it consumed the grant's permit instead.
  std::uint64_t timeout_self_dequeues = 0;
  std::uint64_t timeout_grant_races = 0;
  // Rwlock starvation accounting: readers admitted while a writer was
  // already waiting (the reader-preference mechanism that starves writers),
  // and writer acquisitions that did eventually happen.
  std::uint64_t readers_admitted_past_writer = 0;
  std::uint64_t writer_acquisitions = 0;
  // Poll litmus accounting: runs where both Sets raced into one WaitAny
  // (the double-grant window actually exercised), and runs where the
  // deregistration lost to an in-flight notification (the lost-wakeup
  // window actually exercised).
  std::uint64_t poll_concurrent_sets = 0;
  std::uint64_t poll_dereg_lost_to_resume = 0;
};

// N fibers each perform `iters` critical sections (with explicit internal
// step boundaries so a mutual-exclusion failure is visible). Violations:
// overlap in the critical section, lost updates, deadlock.
LitmusFactory MutualExclusionLitmus(int fibers, int iters);

// The wakeup-waiting race (paper, Informal Description): one waiter on a
// predicate, one setter+signaller. With the eventcount (use_eventcount =
// true) every schedule completes; without it the signal can be lost between
// Wait's critical-section exit and its Block, deadlocking the waiter.
LitmusFactory WakeupRaceLitmus(bool use_eventcount, Tally* tally = nullptr);

// The same race with the waiter in AlertWait: the eventcount protects the
// alertable wait identically.
LitmusFactory AlertWaitWakeupRaceLitmus(bool use_eventcount);

// `waiters` fibers wait for a flag; one fiber sets it and Broadcasts. All
// waiters must resume (the paper's reader-lock release example).
LitmusFactory BroadcastLitmus(int waiters);

// Same program over the semaphore-encoded NaiveCondition (paper's strawman).
// The exploration is expected to FIND deadlocking schedules.
LitmusFactory NaiveBroadcastLitmus(int waiters);

// One waiter + one signaller over NaiveCondition: the paper notes the one
// bit in the semaphore covers the race, so every schedule must complete.
LitmusFactory NaiveSignalLitmus();

// A waiter in an AlertWait predicate loop, racing a signaller and an
// alerter. Either exit (normal or Alerted) is legal; the point is that every
// interleaving is deadlock-free and spec-conformant (run with check_traces).
LitmusFactory AlertWaitRaceLitmus(Tally* tally = nullptr);

// Interrupt-style handoff: a "device" fiber produces data then Vs a
// semaphore; a waiter Ps and must observe the data.
LitmusFactory SemaphoreHandoffLitmus();

// AlertP racing a V and an Alert: both outcomes (return, raise) are legal
// and both must occur across schedules (tallied).
LitmusFactory AlertPRaceLitmus(Tally* tally = nullptr);

// Greg Nelson's AlertWait bug, as a checkable scenario: a waiter that exits
// AlertWait via Alerted while a Signal races in. Under the corrected spec
// (AlertResume/RAISES deletes SELF from c) every serialization conforms;
// under AlertWaitVariant::kOriginalBuggy (UNCHANGED [c] on the raising exit)
// the raised waiter lingers in c as a ghost and a later Signal's ENSURES —
// cpost empty or a proper subset — fails. Explore with check_traces and the
// two spec configs to reproduce both halves of the paper's Discussion.
LitmusFactory AlertWaitGhostLitmus(Tally* tally = nullptr);

// The RETURNS/RAISES overlap of AlertP, isolated: the semaphore starts
// available and only an Alert races the AlertP, so in some schedules both
// WHEN clauses hold at once and this implementation's test-and-set picks
// RETURNS (tallied via returns_with_alert_pending). The released spec
// accepts every schedule; AlertChoicePolicy::kPreferAlerted — the
// pre-release deterministic rule — flags exactly the overlap runs.
LitmusFactory AlertPOverlapLitmus(Tally* tally = nullptr);

// Two waiters, one Signal: at least one waiter must resume; with the
// signaller racing the waiters' windows, some schedules legally unblock
// both (tallied via multi_unblock_signals).
LitmusFactory SignalUnblocksManyLitmus(Tally* tally = nullptr);

// The shipped timed-wait protocol (ParkBlockedUntil, src/threads/timer.h)
// on a (lock bit, waiter queue) mutex: a releaser and two queued, parked
// timed waiters, the first of which times out as the release dequeues it.
// With `safe` the timed-out waiter re-tests its queue membership under the
// object lock: still queued, it dequeues itself; already dequeued, it
// consumes the release's permit and retries the test-and-set. Every
// schedule completes with no stray permit, and both sides of the race are
// tallied. With `safe` false the waiter returns kTimeout straight from the
// parker, and the schedule where the release picked it leaves the other
// waiter asleep with the mutex free: a lost wakeup.
LitmusFactory SelfCancelTimeoutLitmus(bool safe, Tally* tally = nullptr);

// Two auto-reset events, one WaitAny waiter, two concurrent Sets — the
// double-grant window of the multi-object wait. With `waiter_consumes`
// (the shipped notify-latch protocol, poll.h) Set only notifies; the
// waiter's own atomic exchange arbitrates, so one WaitAny consumes exactly
// one pulse and the other stays observable — every schedule conserves
// pulses. With `waiter_consumes` false the granter consumes on the
// waiter's behalf (handoff-style), and the schedule where both Sets see
// the waiter still parked consumes BOTH pulses for the single grant: a
// pulse is destroyed.
LitmusFactory PollDoubleGrantLitmus(bool waiter_consumes,
                                    Tally* tally = nullptr);

// The deregistration lost-wakeup window: a WaitAny waiter, granted on A,
// deregisters from B exactly as Set(B) lands. Modelled at the granularity
// of B's registration cell (0 waiting, 1 notified, 2 cancelled) with a
// handoff-flavoured Set that delivers the pulse INTO a registered cell.
// With `safe_cancel` the deregistration is a CAS waiting -> cancelled, and
// when it loses (the pulse is already in the cell) the waiter re-publishes
// it — every schedule conserves the pulse. With `safe_cancel` false the
// waiter blindly marks the cell cancelled (the rule-3 mistake,
// transplanted to deregistration), and the schedule where Set delivered
// first destroys the pulse: whoever waits on B next waits forever. The
// shipped protocol avoids the window entirely by never putting the pulse
// in the cell (notify-only; the flag carries the state) — the safe variant
// here shows the repair a handoff design would need instead.
LitmusFactory PollDeregLostWakeupLitmus(bool safe_cancel,
                                        Tally* tally = nullptr);

// A reader-preference readers-writer lock (the policy of
// taos::ReaderWriterMutex: readers are admitted whenever no writer is
// *active*, ignoring waiters) under a stream of readers with one writer.
// Safety — no reader/writer overlap — must hold in every schedule; the
// tally records readers admitted past the already-waiting writer, the
// mechanism by which a continuous reader stream starves writers (the writer
// here escapes only because the stream is finite).
LitmusFactory RwWriterStarvationLitmus(int readers, int rounds,
                                       Tally* tally = nullptr);

// Dining philosophers over simulated mutexes. With `ordered` false every
// philosopher takes left-then-right (the checker finds the circular-wait
// deadlock); with `ordered` true forks are acquired in global id order (no
// schedule deadlocks — the standard total-order fix).
LitmusFactory DiningPhilosophersLitmus(int philosophers, bool ordered);

}  // namespace taos::model

#endif  // TAOS_SRC_MODEL_LITMUS_H_
