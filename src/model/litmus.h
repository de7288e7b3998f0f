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
  // Alert-vs-exit litmus: runs where the stale Alert landed on the exited
  // thread before its record was released, and runs where it found the
  // record released or reused and did nothing.
  std::uint64_t alerts_on_exited = 0;
  std::uint64_t stale_alerts_dropped = 0;
  // Biased-reader litmus: runs where the reader entered on its slot, where
  // it published and then backed out because the bias was revoked, and
  // where the writer parked draining its slot.
  std::uint64_t biased_entries = 0;
  std::uint64_t bias_backouts = 0;
  std::uint64_t drain_parks = 0;
};

// The biased reader protocol of ReaderWriterMutex, for BiasedReaderLitmus.
enum class BiasProtocol {
  kShipped,          // src/threads/rwmutex.h: publish the slot, re-read the
                     // flag; release clears the slot, then reads the flag
  kNoRecheck,        // the reader trusts its first read of the flag
  kFlagBeforeClear,  // the release reads the flag before clearing the slot
};

// What a thread's exit does with its record, for AlertExitLitmus.
enum class RecordReclaim {
  kTypeStable,  // the shipped protocol (src/threads/nub.h): a free list,
                // a fresh id per use, and Alert compares ids under the
                // record lock
  kFreeOnExit,  // the record goes back to the allocator, which hands the
                // same block to the next thread
  kNoIdCheck,   // the free list, but Alert does not compare ids
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

// Alert through the handle of a thread that has exited, racing the
// release of its record and the record's reuse by the next thread, which
// then calls TestAlert. With kTypeStable every schedule is clean: the Alert
// either lands on the exited thread (harmless: the reuse clears the flag)
// or finds the id changed and does nothing. kFreeOnExit has a schedule in
// which Alert locks a freed record, and kNoIdCheck one in which the next
// thread finds the stale alert pending.
LitmusFactory AlertExitLitmus(RecordReclaim reclaim, Tally* tally = nullptr);

// ReaderWriterMutex's biased readers: a reader publishing its slot and
// re-reading the bias flag, against a writer (holding the writer bit) that
// clears the flag, scans, and parks at the front of its queue until the
// slot is clear; a biased release that finds the flag cleared wakes it.
// With kShipped every schedule is clean, and the tally shows a biased
// entry, a back-out and a drain park all occur. kNoRecheck has a schedule
// with the reader and the writer both inside, and kFlagBeforeClear one in
// which the release misses the drainer, which then sleeps forever.
LitmusFactory BiasedReaderLitmus(BiasProtocol protocol,
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
