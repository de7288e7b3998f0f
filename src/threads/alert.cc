#include "src/threads/alert.h"

#include <cstdio>

#include "src/base/chaos.h"
#include "src/base/check.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/spec/action.h"
#include "src/threads/lock_core.h"
#include "src/threads/nub.h"
#include "src/threads/timer.h"

namespace taos {

namespace {

// Alert found t alertably blocked in a wait that has no alertable form.
[[noreturn]] void PanicUnalertableKind(ThreadRecord::BlockKind kind) {
  char what[96];
  std::snprintf(what, sizeof(what),
                "Alert: alertable waiter of kind %s, which has no alertable "
                "wait",
                obs::diag::WaitKindName(static_cast<obs::diag::WaitKind>(kind)));
  TAOS_PANIC(what);
}

}  // namespace

// Alert is the one operation that reaches a synchronization object through a
// thread record instead of the other way around, so it runs the ordering
// discipline backwards (rule 3 in nub.h): take t's record lock, learn what t
// is blocked on, then TRY-acquire that object's lock. On failure the record
// lock is released and the whole inspection retried — the object lock's
// holder may be concurrently waking t, and will need t's record lock to do
// it. While the record lock is held and t is observed blocked on the object,
// the object cannot be destroyed (t has not returned from its blocking
// call), so the try-acquire never touches freed memory.
//
// The handle may be stale: its thread may have exited and its record been
// freed or reused (Nub::CreateRecord). Records are never returned to the
// allocator, so t->lock is always a live lock, and the id check under it
// tells whether t is still the thread the handle names. If not, t is gone:
// Alert still performs the spec's action, inserting it into `alerts`, but
// that changes no state a live thread can observe.
void Alert(ThreadHandle h) {
  TAOS_CHECK(h.rec != nullptr);
  obs::ScopedEvent ev(obs::Op::kAlert, h.id());
  obs::Inc(obs::Counter::kNubAlert);
  Nub& nub = Nub::Get();
  ThreadRecord* self = nub.Current();
  ThreadRecord* t = h.rec;

  for (;;) {
    t->lock.Acquire();
    if (t->id != h.id()) {
      if (nub.tracing()) {
        nub.EmitTraced(spec::MakeAlert(self->id, h.id()));
      }
      t->lock.Release();
      return;
    }
    if (t->block_kind == ThreadRecord::BlockKind::kNone || !t->alertable) {
      // Not alertably blocked: just record the pending alert. The emission
      // under t's record lock serializes this action against the alerted
      // checks in TestAlert / AlertWait / AlertP, which hold the same lock.
      t->alerted.store(true, std::memory_order_seq_cst);
      if (nub.tracing()) {
        nub.EmitTraced(spec::MakeAlert(self->id, t->id));
      }
      t->lock.Release();
      return;
    }
    if (t->block_kind == ThreadRecord::BlockKind::kPollAny ||
        t->block_kind == ThreadRecord::BlockKind::kPollAll) {
      // Alertable Poll waiters publish no object lock: the record lock
      // alone covers their blocked state (the notify-latch protocol,
      // src/threads/poll.cc), so no rule-3 try-lock dance is needed.
      t->alerted.store(true, std::memory_order_relaxed);
      t->alert_woken = true;
      ClearBlockedLocked(t);
      if (nub.tracing()) {
        nub.EmitTraced(spec::MakeAlert(self->id, t->id));
      }
      t->lock.Release();
      obs::Inc(obs::Counter::kHandoffs);
      t->park.Unpark();
      return;
    }
    SpinLock* obj_lock = t->blocked_lock->Resolve();
    if (!obj_lock->TryAcquire()) {
      t->lock.Release();
      TAOS_CHAOS(kAlertLockRetry);
      // obj_lock may dangle from here on — the record lock is gone, so its
      // holder can wake t and the object can be destroyed. Rule3Backoff
      // yields without peeking at it, which also gives that holder (likely
      // spinning for t's record lock) the window a bare pause never did.
      Rule3Backoff();
      continue;
    }
    // Both locks held: set the flag, dequeue and wake t — one atomic action.
    // (Setting alerted on a failed iteration instead would let t consume the
    // alert and emit its Raises action before this Alert's own emission.)
    t->alerted.store(true, std::memory_order_relaxed);
    TAOS_CHAOS(kAlertFlagToCancel);
    if (t->block_kind != ThreadRecord::BlockKind::kMutex &&
        t->block_kind != ThreadRecord::BlockKind::kSemaphore &&
        t->block_kind != ThreadRecord::BlockKind::kCondition) {
      PanicUnalertableKind(t->block_kind);  // Poll kinds are handled above
    }
    DequeueBlockedLocked(t, /*alerted=*/true);
    t->alert_woken = true;
    if (nub.tracing()) {
      nub.EmitTraced(spec::MakeAlert(self->id, t->id));
    }
    obj_lock->Release();
    t->lock.Release();
    obs::Inc(obs::Counter::kHandoffs);
    t->park.Unpark();
    return;
  }
}

bool TestAlert() {
  Nub& nub = Nub::Get();
  ThreadRecord* self = nub.Current();
  if (nub.tracing()) {
    SpinGuard g(self->lock);
    const bool b = self->alerted.exchange(false, std::memory_order_relaxed);
    nub.EmitTraced(spec::MakeTestAlert(self->id, b));
    return b;
  }
  return self->alerted.exchange(false, std::memory_order_seq_cst);
}

// AlertWait and AlertWaitFor are Condition's one wait with an alertable
// Block (condition.h); they keep their own obs event, and Block counts
// them as nub_alert_wait.
void AlertWait(Mutex& m, Condition& c) {
  WaitResult result = WaitResult::kSatisfied;
  obs::WithEvent(obs::Op::kAlertWait, c.id(), [&] {
    result = c.WaitUntil(m, kNoDeadline, /*alertable=*/true);
  });
  // Thrown once the event's frame is gone: a frame that still had a
  // destructor to run would add a landing-pad stop to every raise, which
  // bench_alert's BM_AlertWakesAlertWait shows (EXPERIMENTS E11).
  if (result == WaitResult::kAlerted) {
    throw Alerted();
  }
}

WaitResult AlertWaitFor(Mutex& m, Condition& c,
                        std::chrono::nanoseconds timeout) {
  WaitResult result = WaitResult::kSatisfied;
  obs::WithEvent(obs::Op::kAlertWait, c.id(), [&] {
    result = c.WaitUntil(m, timeout.count() > 0 ? DeadlineAfter(timeout) : 0,
                         /*alertable=*/true);
  });
  switch (result) {
    case WaitResult::kSatisfied:
      obs::Inc(obs::Counter::kTimedWaitSatisfied);
      break;
    case WaitResult::kTimeout:
      obs::Inc(obs::Counter::kTimedWaitTimeouts);
      break;
    case WaitResult::kAlerted:
      obs::Inc(obs::Counter::kTimedWaitAlerted);
      break;
  }
  return result;
}

void AlertP(Semaphore& s) {
  obs::ScopedEvent ev(obs::Op::kAlertP, s.id());
  Nub& nub = Nub::Get();
  ThreadRecord* self = nub.Current();
  if (nub.tracing()) {
    // Each attempt is one atomic action under s's ObjLock plus the record
    // lock (the alert flag is part of the action's state).
    obs::Inc(obs::Counter::kNubAlertP);
    if (s.core_.TracedAcquireFor(
            self, kNoDeadline, ThreadRecord::BlockKind::kSemaphore,
            /*alertable=*/true,
            {.acquired = spec::MakeAlertPReturns(self->id, s.id()),
             .raises = spec::MakeAlertPRaises(self->id, s.id())}) ==
        WaitResult::kAlerted) {
      throw Alerted();
    }
    return;
  }
  // User-code fast path: the test-and-set may win even when an alert is
  // pending — the source of the RETURNS/RAISES nondeterminism the paper
  // discusses (the implementor kept it for efficiency; the released spec
  // legitimized it).
  if (s.TestAndSet()) {
    return;
  }
  obs::Inc(obs::Counter::kNubAlertP);
  if (s.core_.AcquireFor(self, kNoDeadline,
                         ThreadRecord::BlockKind::kSemaphore,
                         /*alertable=*/true) == WaitResult::kAlerted) {
    throw Alerted();
  }
}

}  // namespace taos
