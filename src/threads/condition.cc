#include "src/threads/condition.h"

#include <algorithm>

#include "src/base/chaos.h"
#include "src/base/check.h"
#include "src/base/small_vector.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/spec/action.h"
#include "src/threads/nub.h"
#include "src/threads/timer.h"

namespace taos {

namespace {

// Whether an alertable waiter that a wakeup (not its deadline) took off
// the Queue raises. It was woken either by Alert (alert_woken) or by
// Signal/Broadcast; if an alert is pending in either case, this
// implementation chooses to raise — the spec permits either outcome when
// both WHEN clauses hold.
bool RaisesAfterWake(ThreadRecord* self) {
  SpinGuard g(self->lock);
  return self->alert_woken || self->alerted.load(std::memory_order_relaxed);
}

}  // namespace

Condition::Condition() : id_(Nub::Get().NextObjId()) {}

Condition::~Condition() {
  TAOS_CHECK(queue_.Empty());
  TAOS_CHECK(window_.empty());
  TAOS_CHECK(pending_raise_.empty());
  TAOS_CHECK(pending_timeout_.empty());
}

void Condition::Wait(Mutex& m) {
  obs::WithEvent(obs::Op::kWait, id_,
                 [&] { WaitUntil(m, kNoDeadline, /*alertable=*/false); });
}

WaitResult Condition::WaitFor(Mutex& m, std::chrono::nanoseconds timeout) {
  WaitResult result = WaitResult::kSatisfied;
  obs::WithEvent(obs::Op::kWait, id_, [&] {
    result = WaitUntil(m, timeout.count() > 0 ? DeadlineAfter(timeout) : 0,
                       /*alertable=*/false);
  });
  obs::Inc(result == WaitResult::kSatisfied
               ? obs::Counter::kTimedWaitSatisfied
               : obs::Counter::kTimedWaitTimeouts);
  return result;
}

WaitResult Condition::WaitUntil(Mutex& m, std::uint64_t deadline_ns,
                                bool alertable) {
  Nub& nub = Nub::Get();
  ThreadRecord* self = nub.Current();
  // REQUIRES m = SELF.
  TAOS_CHECK(m.holder_.load(std::memory_order_relaxed) == self->id);
  if (deadline_ns == 0) {
    // The deadline has already passed: don't enqueue (and in traced mode
    // don't emit — nothing changed). m stays held throughout, and a
    // pending alert stays pending.
    return WaitResult::kTimeout;
  }
  if (nub.tracing()) {
    return TracedWaitFor(m, self, deadline_ns, alertable);
  }
  // Ready reads it to tell whether a Signal's caller holds m. (Traced
  // Signals never call Ready.)
  self->wait_mutex = &m;
  // First read c's Eventcount (still inside the critical section)...
  const EventCount::Value i = ec_.Read();
  // ...announce ourselves to Signal's fast path before the critical section
  // ends, so "no waiters" can never be concluded while we are in flight...
  waiters_.fetch_add(1, std::memory_order_seq_cst);
  // ...then leave the critical section and call the Nub subroutine Block.
  m.Release();
  // The wakeup-waiting window: a Signal landing here must not be lost.
  TAOS_CHAOS(kCondReleaseToBlock);
  const WaitResult result = BlockFor(self, i, deadline_ns, alertable);
  // On return from Block, re-enter a critical section.
  m.Acquire();
  if (alertable) {
    SpinGuard sg(self->lock);
    self->alert_woken = false;
    // kAlerted consumes the alert; kTimeout never does.
    if (result == WaitResult::kAlerted) {
      self->alerted.store(false, std::memory_order_relaxed);
    }
  }
  return result;
}

WaitResult Condition::BlockFor(ThreadRecord* self, EventCount::Value i,
                               std::uint64_t deadline_ns, bool alertable) {
  obs::Inc(alertable ? obs::Counter::kNubAlertWait : obs::Counter::kNubWait);
  {
    NubGuard g(nub_lock_);
    // Holding c's lock, before re-reading the eventcount: a Signal that
    // advanced it in the meantime must be seen here.
    TAOS_CHAOS(kCondClaimToRecheck);
    SpinGuard tg(self->lock);
    if (alertable) {
      TAOS_CHAOS(kAlertWaitWindow);
      if (self->alerted.load(std::memory_order_relaxed)) {
        waiters_.fetch_sub(1, std::memory_order_relaxed);
        return WaitResult::kAlerted;
      }
    }
    if (ec_.Read() != i) {
      // A Signal or Broadcast intervened between the eventcount read and
      // now: return immediately. This is how the wakeup-waiting race is
      // covered, and why one Signal can unblock several threads.
      waiters_.fetch_sub(1, std::memory_order_relaxed);
      obs::Inc(obs::Counter::kWakeupWaitingHits);
      return WaitResult::kSatisfied;
    }
    queue_.PushBack(self);
    SetBlockedLocked(self, ThreadRecord::BlockKind::kCondition, this, id_,
                     &nub_lock_, alertable);
  }
  const bool expired = ParkBlockedUntil(self, deadline_ns, kEventWait);
  if (deadline_ns != kNoDeadline) {
    TAOS_CHAOS(kCondTimedFinish);
  }
  if (expired) {
    return WaitResult::kTimeout;
  }
  return alertable && RaisesAfterWake(self) ? WaitResult::kAlerted
                                            : WaitResult::kSatisfied;
}

void Condition::DequeueLocked(ThreadRecord* t, bool alerted) {
  queue_.Remove(t);
  if (Nub::Get().tracing()) {
    (alerted ? pending_raise_ : pending_timeout_).push_back(t);
  } else {
    waiters_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Condition::Signal() {
  obs::WithEvent(obs::Op::kSignal, id_, [&] {
    Nub& nub = Nub::Get();
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubSignal);
      TracedSignal(nub.Current());
      return;
    }
    // User code: avoid calling the Nub if there are no threads to unblock.
    if (waiters_.load(std::memory_order_seq_cst) == 0) {
      obs::Inc(obs::Counter::kFastSignal);
      return;
    }
    NubSignal();
  });
}

void Condition::NubSignal() {
  obs::Inc(obs::Counter::kNubSignal);
  ThreadRecord* wake = nullptr;
  {
    NubGuard g(nub_lock_);
    ec_.Advance();
    TAOS_CHAOS(kCondSignalToResume);
    wake = queue_.PopFront();
    if (wake != nullptr) {
      waiters_.fetch_sub(1, std::memory_order_relaxed);
      MarkUnblocked(wake);
    }
  }
  if (wake != nullptr) {
    Ready(Nub::Current(), wake);
  }
}

void Condition::Ready(ThreadRecord* self, ThreadRecord* t) {
  // Resume's WHEN (m = NIL) cannot hold while the caller holds t's mutex,
  // so an unpark now would only send t to queue on m. Owe the wake to the
  // caller's next release instead. t is parked until its permit arrives,
  // whatever its deadline or an Alert does meanwhile (ParkBlockedUntil,
  // Alert), so its wait_mutex and queue_node stay as they are.
  Mutex* m = t->wait_mutex;
  if (m->holder_.load(std::memory_order_relaxed) == self->id) {
    obs::Inc(obs::Counter::kCondWakesDeferred);
    if (obs::diag::Enabled()) [[unlikely]] {
      // t now waits for m as surely as if it were queued on it: keep the
      // waits-for edge t -> m -> self visible to the watchdog until
      // WakeOwed, so a deadlock through this window is still named.
      SpinGuard g(t->lock);
      obs::diag::PublishBlocked(t->diag_slot, obs::diag::WaitKind::kMutex,
                                m->id(), obs::NowNanos(),
                                /*alertable=*/false);
    }
    t->queue_node.next = self->owed_wakes != nullptr
                             ? &self->owed_wakes->queue_node
                             : nullptr;
    self->owed_wakes = t;
    return;
  }
  obs::Inc(obs::Counter::kHandoffs);
  t->park.Unpark();
}

void WakeOwed(ThreadRecord* self) {
  TAOS_CHAOS(kMutexClearToOwedWake);
  ThreadRecord* t = self->owed_wakes;
  self->owed_wakes = nullptr;
  while (t != nullptr) {
    // Read the link before the unpark: t owns its queue_node again after.
    QueueNode* next = t->queue_node.next;
    t->queue_node.next = nullptr;
    if (obs::diag::Enabled()) [[unlikely]] {
      SpinGuard g(t->lock);
      obs::diag::ClearBlocked(t->diag_slot);  // Ready's edge, before t runs
    }
    obs::Inc(obs::Counter::kHandoffs);
    t->park.Unpark();
    t = next != nullptr ? static_cast<ThreadRecord*>(next->owner) : nullptr;
  }
}

void Condition::Broadcast() {
  obs::WithEvent(obs::Op::kBroadcast, id_, [&] {
    Nub& nub = Nub::Get();
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubBroadcast);
      TracedBroadcast(nub.Current());
      return;
    }
    if (waiters_.load(std::memory_order_seq_cst) == 0) {
      obs::Inc(obs::Counter::kFastBroadcast);
      return;
    }
    NubBroadcast();
  });
}

void Condition::NubBroadcast() {
  obs::Inc(obs::Counter::kNubBroadcast);
  SmallVector<ThreadRecord*> wake;
  {
    NubGuard g(nub_lock_);
    ec_.Advance();
    TAOS_CHAOS(kCondSignalToResume);
    while (ThreadRecord* t = queue_.PopFront()) {
      waiters_.fetch_sub(1, std::memory_order_relaxed);
      MarkUnblocked(t);
      wake.push_back(t);
    }
  }
  ThreadRecord* self = Nub::Current();
  for (ThreadRecord* t : wake) {
    Ready(self, t);
  }
}

// ---------------------------------------------------------------------------
// Traced (spec-emitting) paths.
// ---------------------------------------------------------------------------

bool Condition::EraseWindow(ThreadRecord* rec) {
  auto it = std::find(window_.begin(), window_.end(), rec);
  if (it == window_.end()) {
    return false;
  }
  window_.erase(it);
  return true;
}

bool Condition::ErasePendingRaise(ThreadRecord* rec) {
  auto it = std::find(pending_raise_.begin(), pending_raise_.end(), rec);
  if (it == pending_raise_.end()) {
    return false;
  }
  pending_raise_.erase(it);
  return true;
}

bool Condition::ErasePendingTimeout(ThreadRecord* rec) {
  auto it = std::find(pending_timeout_.begin(), pending_timeout_.end(), rec);
  if (it == pending_timeout_.end()) {
    return false;
  }
  pending_timeout_.erase(it);
  return true;
}

WaitResult Condition::TracedWaitFor(Mutex& m, ThreadRecord* self,
                                    std::uint64_t deadline_ns,
                                    bool alertable) {
  Nub& nub = Nub::Get();
  obs::Inc(alertable ? obs::Counter::kNubAlertWait : obs::Counter::kNubWait);
  EventCount::Value snapshot = 0;
  ThreadRecord* wake = nullptr;
  {
    // Atomic action Enqueue: insert SELF into c and set m to NIL (the
    // AlertWait flavour also leaves alerts UNCHANGED). The action touches
    // both objects, so both ObjLocks are held (NubGuard2 order). A timed
    // wait enters c the same way an untimed one does; only the way it may
    // leave differs.
    NubGuard2 g(m.core_.lock(), &nub_lock_);
    snapshot = ec_.Read();
    wake = m.TracedReleaseLocked(self);
    window_.push_back(self);
    nub.EmitTraced(alertable ? spec::MakeAlertEnqueue(self->id, m.id(), id_)
                             : spec::MakeEnqueue(self->id, m.id(), id_));
  }
  LockCore::Wake(wake);

  // Nub subroutine Block(c, i), with the deadline. The record lock is held
  // across the alerted check and the block publication, so an Alert cannot
  // slip between them (it would see "not blocked", leave only the flag,
  // and strand us parked).
  bool parked = false;
  bool raise = false;
  {
    NubGuard g(nub_lock_);
    SpinGuard tg(self->lock);
    if (alertable && self->alerted.load(std::memory_order_relaxed)) {
      raise = true;
      if (EraseWindow(self)) {
        // Still a member of c until the AlertResume action fires.
        pending_raise_.push_back(self);
      }
    } else if (ec_.Read() != snapshot) {
      // Absorbed: the intervening Signal/Broadcast removed us from c (and
      // from window_) when it emitted its action.
      TAOS_DCHECK(std::find(window_.begin(), window_.end(), self) ==
                  window_.end());
      obs::Inc(obs::Counter::kWakeupWaitingHits);
    } else {
      TAOS_CHECK(EraseWindow(self));
      queue_.PushBack(self);
      SetBlockedLocked(self, ThreadRecord::BlockKind::kCondition, this, id_,
                       &nub_lock_, alertable);
      parked = true;
    }
  }
  Condition* cp = this;
  if (parked) {
    if (ParkBlockedUntil(self, deadline_ns, kEventWait)) {
      // Atomic action TimeoutResume: regain m and leave c in one step. The
      // self-dequeue left SELF in pending_timeout_ — still a spec-member of
      // c, as a raiser stays in pending_raise_ — so the action's
      // delete(c, SELF) and the bookkeeping erase happen together under m's
      // and c's locks. Its frame excludes the alerts set: a pending alert
      // survives the timeout untouched.
      m.TracedAcquireFor(self, kNoDeadline,
                         spec::MakeTimeoutResume(self->id, m.id(), id_),
                         &nub_lock_,
                         [cp, self] { cp->ErasePendingTimeout(self); });
      return WaitResult::kTimeout;
    }
    // An Alert left SELF in pending_raise_; a Signal/Broadcast removed it
    // from c.
    raise = alertable && RaisesAfterWake(self);
  }
  if (raise) {
    // Atomic action AlertResume / RAISES: regain m, leave c and alerts.
    // The action touches m, c and the alert flag, so TracedAcquireFor
    // takes c's lock alongside m's on every attempt and runs the callback
    // with self's record lock also held.
    m.TracedAcquireFor(self, kNoDeadline,
                       spec::MakeAlertResumeRaises(self->id, m.id(), id_),
                       &nub_lock_, [cp, self] {
                         cp->ErasePendingRaise(self);
                         self->alerted.store(false, std::memory_order_relaxed);
                         self->alert_woken = false;
                       });
    return WaitResult::kAlerted;
  }
  if (alertable) {
    // Atomic action AlertResume / RETURNS.
    m.TracedAcquireFor(self, kNoDeadline,
                       spec::MakeAlertResumeReturns(self->id, m.id(), id_),
                       nullptr, [self] { self->alert_woken = false; });
    return WaitResult::kSatisfied;
  }
  // Atomic action Resume, emitted at the instant m is regained. Its WHEN
  // clause reads c (SELF NOT-IN c) but the emission holds only m's lock:
  // the Signal/Broadcast/Enqueue actions that changed SELF's membership all
  // happened-before this point, so their stamps precede this one, and no
  // other thread can re-insert SELF.
  m.TracedAcquireFor(self, kNoDeadline,
                     spec::MakeResume(self->id, m.id(), id_));
  return WaitResult::kSatisfied;
}

void Condition::TracedSignal(ThreadRecord* self) {
  Nub& nub = Nub::Get();
  ThreadRecord* wake = nullptr;
  {
    NubGuard g(nub_lock_);
    ec_.Advance();
    spec::ThreadSet removed;
    wake = queue_.PopFront();
    if (wake != nullptr) {
      removed = removed.Insert(wake->id);
      MarkUnblocked(wake);
    }
    // Every thread in the wakeup-waiting window absorbs this increment, so
    // this Signal removes them all from c.
    for (ThreadRecord* r : window_) {
      removed = removed.Insert(r->id);
    }
    window_.clear();
    // Threads committed to raising Alerted are still spec-members of c;
    // removing them here keeps Signal's ENSURES honest (a Signal may be
    // consumed by a thread that then raises — the paper's corrected
    // AlertWait semantics).
    for (ThreadRecord* r : pending_raise_) {
      removed = removed.Insert(r->id);
    }
    pending_raise_.clear();
    // Likewise for timed-out threads that already dequeued themselves: the
    // implementation cannot wake them, so leaving them in c would let a
    // Signal whose removed set is otherwise empty violate its own ENSURES
    // (cpost = c is neither {} nor a proper subset). TimeoutResume's
    // delete(c, SELF) is idempotent, so removing them here is safe.
    for (ThreadRecord* r : pending_timeout_) {
      removed = removed.Insert(r->id);
    }
    pending_timeout_.clear();
    nub.EmitTraced(spec::MakeSignal(self->id, id_, removed));
  }
  if (wake != nullptr) {
    obs::Inc(obs::Counter::kHandoffs);
    wake->park.Unpark();
  }
}

void Condition::TracedBroadcast(ThreadRecord* self) {
  Nub& nub = Nub::Get();
  SmallVector<ThreadRecord*> wake;
  {
    NubGuard g(nub_lock_);
    ec_.Advance();
    spec::ThreadSet removed;
    while (ThreadRecord* t = queue_.PopFront()) {
      removed = removed.Insert(t->id);
      MarkUnblocked(t);
      wake.push_back(t);
    }
    for (ThreadRecord* r : window_) {
      removed = removed.Insert(r->id);
    }
    window_.clear();
    for (ThreadRecord* r : pending_raise_) {
      removed = removed.Insert(r->id);
    }
    pending_raise_.clear();
    for (ThreadRecord* r : pending_timeout_) {
      removed = removed.Insert(r->id);
    }
    pending_timeout_.clear();
    nub.EmitTraced(spec::MakeBroadcast(self->id, id_, removed));
  }
  obs::Add(obs::Counter::kHandoffs, wake.size());
  for (ThreadRecord* t : wake) {
    t->park.Unpark();
  }
}

}  // namespace taos
