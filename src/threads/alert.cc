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
void Alert(ThreadHandle h) {
  TAOS_CHECK(h.rec != nullptr);
  obs::ScopedEvent ev(obs::Op::kAlert, h.rec->id);
  obs::Inc(obs::Counter::kNubAlert);
  Nub& nub = Nub::Get();
  ThreadRecord* self = nub.Current();
  ThreadRecord* t = h.rec;

  for (;;) {
    t->lock.Acquire();
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
    switch (t->block_kind) {
      case ThreadRecord::BlockKind::kMutex:
      case ThreadRecord::BlockKind::kSemaphore:
        static_cast<LockCore*>(t->blocked_obj)->DequeueLocked(t);
        break;
      case ThreadRecord::BlockKind::kCondition: {
        auto* c = static_cast<Condition*>(t->blocked_obj);
        c->queue_.Remove(t);
        if (nub.tracing()) {
          // The alerted thread will raise; it stays a spec-member of c
          // until its AlertResume action fires (corrected AlertWait
          // semantics), so a Signal in between may still remove it.
          c->pending_raise_.push_back(t);
        } else {
          c->waiters_.fetch_sub(1, std::memory_order_relaxed);
        }
        break;
      }
      case ThreadRecord::BlockKind::kRwShared:
      case ThreadRecord::BlockKind::kRwExclusive:
      case ThreadRecord::BlockKind::kEvent:  // Event::Wait is never alertable
      case ThreadRecord::BlockKind::kPollAny:
      case ThreadRecord::BlockKind::kPollAll:  // handled above
      case ThreadRecord::BlockKind::kNone:
        PanicUnalertableKind(t->block_kind);
    }
    ClearBlockedLocked(t);
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

namespace internal {

// AlertWait with a deadline (kNoDeadline for AlertWait itself; 0, always in
// the past, for AlertWaitFor's nonpositive timeout), reporting the outcome
// as a value.
WaitResult AlertWaitUntil(Mutex& m, Condition& c, std::uint64_t deadline_ns) {
  obs::ScopedEvent ev(obs::Op::kAlertWait, c.id_);
  obs::Inc(obs::Counter::kNubAlertWait);
  Nub& nub = Nub::Get();
  ThreadRecord* self = nub.Current();
  // REQUIRES m = SELF.
  TAOS_CHECK(m.holder_.load(std::memory_order_relaxed) == self->id);

  if (deadline_ns == 0) {
    // Deadline already passed: no enqueue, no actions, m stays held, and a
    // pending alert stays pending (the kTimeout outcome never consumes one).
    return WaitResult::kTimeout;
  }
  if (nub.tracing()) {
    // --- Traced (spec-emitting) path ---
    // Atomic action Enqueue (AlertWait flavour: UNCHANGED [alerts]). It
    // touches both m and c, so both ObjLocks are held.
    EventCount::Value snapshot = 0;
    ThreadRecord* wake = nullptr;
    {
      NubGuard2 g(m.core_.lock(), &c.nub_lock_);
      snapshot = c.ec_.Read();
      wake = m.TracedReleaseLocked(self);
      c.window_.push_back(self);
      nub.EmitTraced(spec::MakeAlertEnqueue(self->id, m.id(), c.id_));
    }
    LockCore::Wake(wake);

    // AlertBlock: like Block(c, i) but responsive to alerts. The record
    // lock is held across the alerted check AND the block-state
    // publication, so an Alert cannot slip between them (it would see "not
    // blocked", leave only the flag, and strand us parked).
    bool parked = false;
    bool raise = false;
    {
      NubGuard g(c.nub_lock_);
      SpinGuard sg(self->lock);
      if (self->alerted.load(std::memory_order_relaxed)) {
        raise = true;
        if (c.EraseWindow(self)) {
          // Still a member of c until the AlertResume action fires.
          c.pending_raise_.push_back(self);
        }
      } else if (c.ec_.Read() != snapshot) {
        // Absorbed by an intervening Signal/Broadcast (which removed us
        // from c when it emitted): resume normally.
        obs::Inc(obs::Counter::kWakeupWaitingHits);
      } else {
        TAOS_CHECK(c.EraseWindow(self));
        c.queue_.PushBack(self);
        SetBlockedLocked(self, ThreadRecord::BlockKind::kCondition, &c, c.id(),
                         &c.nub_lock_, /*alertable=*/true);
        parked = true;
      }
    }
    bool expired = false;
    if (parked) {
      expired = ParkBlockedUntil(self, deadline_ns, kEventWait);
      if (!expired) {
        // Woken either by Alert (alert_woken, already in pending_raise_) or
        // by Signal/Broadcast (removed from c). If an alert is pending in
        // either case, this implementation chooses to raise — the spec
        // permits either outcome when both WHEN clauses hold.
        SpinGuard sg(self->lock);
        raise = self->alert_woken ||
                self->alerted.load(std::memory_order_relaxed);
      }
    }

    Condition* cp = &c;
    if (expired) {
      // Atomic action TimeoutResume. Its frame excludes the alerts set: a
      // pending alert survives the timeout untouched.
      m.TracedAcquireFor(self, kNoDeadline,
                         spec::MakeTimeoutResume(self->id, m.id(), c.id_),
                         &c.nub_lock_,
                         [cp, self] { cp->ErasePendingTimeout(self); });
      return WaitResult::kTimeout;
    }
    if (raise) {
      // Atomic action AlertResume / RAISES: regain m, leave c and alerts.
      // The action touches m, c and the alert flag, so TracedAcquireFor
      // takes c's lock alongside m's on every attempt and runs the callback
      // with self's record lock also held.
      m.TracedAcquireFor(self, kNoDeadline,
                         spec::MakeAlertResumeRaises(self->id, m.id(), c.id_),
                         &c.nub_lock_, [cp, self] {
                           cp->ErasePendingRaise(self);
                           self->alerted.store(false,
                                               std::memory_order_relaxed);
                           self->alert_woken = false;
                         });
      return WaitResult::kAlerted;
    }
    // Atomic action AlertResume / RETURNS.
    m.TracedAcquireFor(self, kNoDeadline,
                       spec::MakeAlertResumeReturns(self->id, m.id(), c.id_),
                       nullptr, [self] { self->alert_woken = false; });
    return WaitResult::kSatisfied;
  }

  // --- Production path ---
  const EventCount::Value i = c.ec_.Read();
  c.waiters_.fetch_add(1, std::memory_order_seq_cst);
  m.Release();

  bool parked = false;
  bool raise = false;
  {
    NubGuard g(c.nub_lock_);
    SpinGuard sg(self->lock);
    TAOS_CHAOS(kAlertWaitWindow);
    if (self->alerted.load(std::memory_order_relaxed)) {
      raise = true;
      c.waiters_.fetch_sub(1, std::memory_order_relaxed);
    } else if (c.ec_.Read() == i) {
      c.queue_.PushBack(self);
      SetBlockedLocked(self, ThreadRecord::BlockKind::kCondition, &c, c.id(),
                       &c.nub_lock_, /*alertable=*/true);
      parked = true;
    } else {
      c.waiters_.fetch_sub(1, std::memory_order_relaxed);
      obs::Inc(obs::Counter::kWakeupWaitingHits);
    }
  }
  bool expired = false;
  if (parked) {
    expired = ParkBlockedUntil(self, deadline_ns, kEventWait);
    if (!expired) {
      SpinGuard sg(self->lock);
      raise = self->alert_woken ||
              self->alerted.load(std::memory_order_relaxed);
    }
  }

  m.Acquire();
  {
    SpinGuard sg(self->lock);
    self->alert_woken = false;
    // kTimeout never consumes a pending alert; kAlerted always does.
    if (!expired && raise) {
      self->alerted.store(false, std::memory_order_relaxed);
    }
  }
  return expired ? WaitResult::kTimeout
                 : (raise ? WaitResult::kAlerted : WaitResult::kSatisfied);
}

}  // namespace internal

void AlertWait(Mutex& m, Condition& c) {
  if (internal::AlertWaitUntil(m, c, kNoDeadline) == WaitResult::kAlerted) {
    throw Alerted();
  }
}

WaitResult AlertWaitFor(Mutex& m, Condition& c,
                        std::chrono::nanoseconds timeout) {
  const WaitResult result = internal::AlertWaitUntil(
      m, c, timeout.count() > 0 ? DeadlineAfter(timeout) : 0);
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
