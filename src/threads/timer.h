// The Nub's deadline subsystem: a hierarchical timing wheel driven by one
// timer thread, serving every timed wait in the process.
//
// The paper's Nub has no timeouts; the Taos interface above it did (the
// WaitWithTimeout idiom in src/workload built one from a watchdog thread per
// call). This subsystem makes deadlines first-class instead: a timed waiter
// parks exactly like an un-timed one, and the timer thread cancels it on
// expiry the same way Alert(t) cancels an alertable waiter — under the
// record lock, through the published blocking state (removal from the
// object's intrusive queue). The expiry-vs-grant race is therefore
// arbitrated by machinery that already exists and is already model-checked:
// whoever dequeues the waiter first wins, and a timed wait that loses the
// expiry-vs-grant race keeps the grant.
//
// Arming protocol (the waiter's side), in the two helpers at the end of
// this file that every primitive's slow paths and Poll share:
//   1. PublishBlockedLocked, under the record lock while the blocked state is
//      published: with a deadline it also publishes `timed = true`, a fresh
//      `timer_gen`, and clears `timeout_woken`.
//   2. ParkBlockedUntil, after dropping every lock: Arm(rec, gen, deadline),
//      park, then always Cancel(rec, gen) and read `timeout_woken` under the
//      record lock to learn whether the timer was what woke it. The parker's
//      permit discipline makes the order safe: an expiry or grant that lands
//      between the publish and the park just deposits the permit early.
// An untimed episode (kNoDeadline) does neither extra step: it publishes and
// parks exactly as the paper's Nub does, never touching the wheel or testing
// the clock against a deadline. A stale expiry (the waiter was granted, woke, maybe even
// re-blocked) validates against `timed`/`timer_gen`/`block_kind` under the
// record lock and becomes a no-op. `gen` values are per-thread and never
// reused, so the validation cannot be fooled by an ABA on the record's
// blocking state.
//
// The wheel: kLevels levels of kSlots slots, tick = 2^kTickShift ns
// (~262 us). Deadlines are placed at their tick rounded UP, so the wheel
// never fires early; far-future deadlines are clamped into the top level and
// re-placed as cascades bring them closer. The timer thread sleeps on its
// own Parker until the earliest due tick (or forever when the wheel is
// empty) and is unparked early when an Arm installs an earlier deadline.
//
// Lock ordering: the wheel lock is a leaf on the arming side (Arm and
// Cancel are called with no other lock held). The timer thread collects due
// entries under the wheel lock into a local batch, releases it, and only
// then runs the cancellation protocol (record lock, then TRY-acquire of the
// object lock exactly as in Alert — rule 3 in nub.h), so the wheel lock
// never nests with the record or object locks in either direction.

#ifndef TAOS_SRC_THREADS_TIMER_H_
#define TAOS_SRC_THREADS_TIMER_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/base/spinlock.h"
#include "src/obs/metrics.h"
#include "src/threads/thread_record.h"
#include "src/waitq/parker.h"

namespace taos {

// Converts a (positive) relative timeout into a deadline on the
// obs::NowNanos timeline, saturating instead of wrapping for far-future
// requests.
// The deadline of a wait that has none. Every deadline-carrying slow path
// takes it for its untimed entry point; DeadlineAfter saturates to it, so a
// timeout too far away to represent waits like an untimed call.
inline constexpr std::uint64_t kNoDeadline =
    std::numeric_limits<std::uint64_t>::max();

inline std::uint64_t DeadlineAfter(std::chrono::nanoseconds timeout) {
  const std::uint64_t now = obs::NowNanos();
  const std::uint64_t delta = static_cast<std::uint64_t>(timeout.count());
  const std::uint64_t deadline = now + delta;
  return deadline < now ? kNoDeadline : deadline;
}

// True once `deadline_ns` is behind us; never reads the clock for
// kNoDeadline.
inline bool DeadlinePassed(std::uint64_t deadline_ns) {
  return deadline_ns != kNoDeadline && obs::NowNanos() >= deadline_ns;
}

class Timer {
 public:
  // The process-wide timer, starting its thread on first use. Intentionally
  // leaked, like the Nub: the detached timer thread may still be running at
  // process exit.
  static Timer& Get();

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  // Inserts rec's deadline (obs::NowNanos timeline) into the wheel. The
  // caller must have published rec->timed / rec->timer_gen == gen under the
  // record lock first, and must hold no locks here. A deadline already in
  // the past fires at the next tick — never synchronously in the caller.
  void Arm(ThreadRecord* rec, std::uint64_t gen, std::uint64_t deadline_ns);

  // Removes the deadline if generation `gen` is still armed; a no-op after
  // the wheel already fired it. Every timed wait calls this once on the way
  // out, whatever woke it.
  void Cancel(ThreadRecord* rec, std::uint64_t gen);

  // Racy snapshot for tests.
  std::uint64_t ArmedForDebug();

 private:
  // tick = 2^18 ns ~ 262 us; 4 levels of 64 slots cover ~4.7 days, and
  // anything farther is clamped into the top level (re-placed on cascade).
  static constexpr int kTickShift = 18;
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 1 << kSlotBits;
  static constexpr int kLevels = 4;

  struct Expiry {
    ThreadRecord* rec;
    std::uint64_t gen;
    std::uint64_t deadline_ns;
  };

  Timer();

  static std::uint64_t TickOf(std::uint64_t deadline_ns) {
    // Round UP: the slot's tick boundary is at or after the deadline, so
    // processing the slot can never fire an entry early.
    return (deadline_ns >> kTickShift) +
           ((deadline_ns & ((1ull << kTickShift) - 1)) != 0 ? 1 : 0);
  }

  void ThreadMain();

  // Wheel manipulation; all require lock_ held.
  void AddLocked(TimerNode* n);
  void UnlinkLocked(TimerNode* n);
  void AdvanceLocked(std::uint64_t now_ns, std::vector<Expiry>* out);
  void CascadeLocked(int level, std::vector<Expiry>* out);
  void CollectSlotLocked(TimerNode* sentinel, int level,
                         std::vector<Expiry>* out);
  // Earliest wake-up time (ns) the thread must sleep until, or 0 for
  // "forever" (empty wheel).
  std::uint64_t NextWakeNsLocked() const;

  // Runs the cancellation protocol for one fired entry (no wheel lock
  // held): validate under the record lock, dequeue by the same rules as
  // Alert, set timeout_woken, unpark.
  void ExpireEntry(const Expiry& e);

  SpinLock lock_;
  TimerNode slots_[kLevels][kSlots];  // circular-list sentinels
  int counts_[kLevels] = {};
  std::uint64_t total_ = 0;
  std::uint64_t current_tick_ = 0;
  // The wake-up time the timer thread last committed to sleep until:
  // 0 while it is awake (no unpark needed — it will recompute), kNoDeadline
  // while sleeping on an empty wheel. Guarded by lock_.
  std::uint64_t wake_target_ns_ = 0;

  waitq::Parker park_;
};

// Step 1 of the arming protocol: publishes t as blocked (SetBlockedLocked)
// and, when the episode has a deadline, marks it timed under a fresh
// generation. Clearing timeout_woken here is what makes a leftover receipt
// from an earlier episode harmless: the only read follows a publish.
// REQUIRES t->lock held (inside the blocked-on object's ObjLock, if any).
inline void PublishBlockedLocked(ThreadRecord* t, ThreadRecord::BlockKind kind,
                                 void* obj, spec::ObjId obj_id,
                                 ObjLock* obj_lock, bool alertable,
                                 std::uint64_t deadline_ns) {
  SetBlockedLocked(t, kind, obj, obj_id, obj_lock, alertable);
  if (deadline_ns != kNoDeadline) {
    t->timed = true;
    t->timer_gen = ++t->next_timer_gen;
    t->timeout_woken = false;
  }
}

// Step 2: parks the episode PublishBlockedLocked just published, with no
// lock held (`spin` as for ParkBlocked). Returns true iff the timer is what
// dequeued this waiter (the receipt is consumed for the next episode);
// always false for kNoDeadline.
inline bool ParkBlockedUntil(ThreadRecord* t, std::uint64_t deadline_ns,
                             waitq::Parker::Spin spin) {
  if (deadline_ns == kNoDeadline) {
    ParkBlocked(t, spin);
    return false;
  }
  // next_timer_gen is owner-private: still the generation just published.
  const std::uint64_t gen = t->next_timer_gen;
  Timer& timer = Timer::Get();
  timer.Arm(t, gen, deadline_ns);
  ParkBlocked(t, spin);
  timer.Cancel(t, gen);
  SpinGuard g(t->lock);
  const bool expired = t->timeout_woken;
  t->timeout_woken = false;
  return expired;
}

}  // namespace taos

#endif  // TAOS_SRC_THREADS_TIMER_H_
