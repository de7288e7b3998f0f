#include "src/firefly/sync.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"

namespace taos::firefly {

namespace {

void Emit(Machine& m, const spec::Action& a) {
  if (m.tracing()) {
    m.trace()->Emit(a);
  }
}

// Flight-recorder events from the simulator carry the *fiber* id as their
// tid, so a rendered trace shows one row per simulated Taos thread rather
// than one row for the driver thread that runs them all.
std::uint32_t Tid(const Fiber* f) { return static_cast<std::uint32_t>(f->id); }

}  // namespace

// The one per-kind dequeue of Alert and of a waiter whose deadline passed
// (the simulator twin of DequeueBlockedLocked, src/threads/timer.h): takes
// the blocked fiber t off what its block_kind names. A Condition waiter
// stays a spec-member of c until its resume action fires, in
// pending_raise_ when alerted and in pending_timeout_ otherwise. REQUIRES
// the spin-lock held; leaves t's blocked state to the caller.
void DequeueBlocked(Fiber* t, bool alerted) {
  switch (t->block_kind) {
    case Fiber::BlockKind::kSemaphore:
      static_cast<Semaphore*>(t->blocked_obj)->queue_.Remove(t);
      break;
    case Fiber::BlockKind::kCondition: {
      auto* c = static_cast<Condition*>(t->blocked_obj);
      c->queue_.Remove(t);
      (alerted ? c->pending_raise_ : c->pending_timeout_).push_back(t);
      break;
    }
    case Fiber::BlockKind::kEvent:
      static_cast<Event*>(t->blocked_obj)->queue_.Remove(t);
      break;
    case Fiber::BlockKind::kPoll:
      static_cast<Poll*>(t->blocked_obj)->DeregisterFiber(t);
      break;
    case Fiber::BlockKind::kMutex:  // no Mutex wait is alertable or timed
    case Fiber::BlockKind::kNone:
      TAOS_PANIC("dequeue of a fiber with no alertable or timed wait");
  }
}

namespace {

// The simulator twin of ParkBlockedUntil (src/threads/timer.cc):
// de-schedules self, enqueued and blocked under the held spin-lock, until a
// grant or an Alert readies it or the clock passes `deadline`. Returns true
// iff the deadline is what dequeued self: the clock readied self, and with
// the spin-lock retaken self was still blocked, so it took itself off its
// queue. It then returns with the spin-lock held, so the caller's timeout
// outcome shares the dequeue's atomic step. On false a grant or an Alert
// dequeued self, possibly after the clock had readied it, and the spin-lock
// is free. Counts kTimersArmed per timed wait, then kTimersCancelled or
// kTimersExpired, as ParkBlockedUntil does.
bool DescheduleBlockedUntil(Machine& m, Fiber* self, std::uint64_t deadline) {
  if (deadline == kNoDeadline) {
    m.DescheduleSelf();
    return false;
  }
  obs::Inc(obs::Counter::kTimersArmed);
  if (!m.DescheduleSelfUntil(deadline)) {
    m.SpinAcquire();
    m.Step();
    if (self->block_kind != Fiber::BlockKind::kNone) {
      DequeueBlocked(self, /*alerted=*/false);
      self->block_kind = Fiber::BlockKind::kNone;
      self->blocked_obj = nullptr;
      obs::Inc(obs::Counter::kTimersExpired);
      return true;
    }
    m.SpinRelease();
  }
  obs::Inc(obs::Counter::kTimersCancelled);
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

Mutex::Mutex(Machine& machine)
    : machine_(machine), id_(machine.NextObjId()) {}

Mutex::~Mutex() {
  if (machine_.Aborted() || machine_.ShuttingDown()) {
    while (queue_.PopFront() != nullptr) {
    }
    return;
  }
  TAOS_CHECK(queue_.Empty());
  TAOS_CHECK(!bit_);
}

void Mutex::Acquire() {
  Fiber* self = Machine::Self();
  obs::ScopedEvent ev(obs::Op::kAcquire, id_, Tid(self));
  AcquireInternal(spec::MakeAcquire(self->id, id_));
}

void Mutex::AcquireInternal(const spec::Action& emit,
                            const std::function<void()>& at_success) {
  Machine& m = machine_;
  Fiber* self = Machine::Self();
  bool first_attempt = true;
  for (;;) {
    if (m.ShuttingDown()) {
      return;
    }
    m.Step();  // the test-and-set instruction
    if (!bit_) {
      bit_ = true;
      holder_ = self;
      if (first_attempt) {
        ++fast_acquires_;
        obs::Inc(obs::Counter::kFastMutexAcquire);
      } else {
        ++slow_acquires_;
      }
      if (at_success) {
        at_success();
      }
      Emit(m, emit);
      return;
    }
    if (first_attempt) {
      obs::Inc(obs::Counter::kNubAcquire);
    }
    first_attempt = false;
    // Nub subroutine for Acquire.
    m.SpinAcquire();
    m.Step();
    queue_.PushBack(self);
    m.Step();  // test the Lock-bit again
    if (bit_) {
      if (priority_inheritance_ && holder_ != nullptr &&
          holder_->priority < self->priority) {
        m.SetFiberPriority(holder_, self->priority);
      }
      self->block_kind = Fiber::BlockKind::kMutex;
      self->blocked_obj = this;
      self->alertable = false;
      self->alert_woken = false;
      m.DescheduleSelf();  // releases the spin-lock
    } else {
      queue_.Remove(self);
      m.SpinRelease();
    }
    // Retry the entire Acquire, beginning at the test-and-set.
  }
}

void Mutex::Release() {
  Fiber* self = Machine::Self();
  obs::ScopedEvent ev(obs::Op::kRelease, id_, Tid(self));
  ReleaseInternal([this, self] {
    Emit(machine_, spec::MakeRelease(self->id, id_));
  });
}

void Mutex::ReleaseInternal(const std::function<void()>& at_clear) {
  Machine& m = machine_;
  Fiber* self = Machine::Self();
  TAOS_CHECK(holder_ == self || m.ShuttingDown());  // REQUIRES m = SELF
  m.Step();  // clear the Lock-bit
  bit_ = false;
  holder_ = nullptr;
  if (at_clear) {
    at_clear();
  }
  m.Step();  // user-code test: is the Queue non-empty?
  if (!queue_.Empty()) {
    // Nub subroutine for Release: take one thread, add it to the ready pool.
    obs::Inc(obs::Counter::kNubRelease);
    m.SpinAcquire();
    m.Step();
    Fiber* t = queue_.PopFront();
    if (t != nullptr) {
      obs::Inc(obs::Counter::kHandoffs);
      m.MakeReady(t);
    }
    m.SpinRelease();
  } else {
    obs::Inc(obs::Counter::kFastMutexRelease);
  }
  // Drop any inherited boost only after the handoff: shedding it earlier
  // would let a medium-priority fiber preempt the releaser before the
  // high-priority waiter has been made ready — re-creating the inversion
  // inside Release itself.
  if (priority_inheritance_ && self->priority != self->base_priority) {
    m.SetFiberPriority(self, self->base_priority);
  }
}

// ---------------------------------------------------------------------------
// Condition
// ---------------------------------------------------------------------------

Condition::Condition(Machine& machine)
    : machine_(machine), id_(machine.NextObjId()) {}

Condition::~Condition() {
  if (machine_.Aborted() || machine_.ShuttingDown()) {
    while (queue_.PopFront() != nullptr) {
    }
    return;
  }
  TAOS_CHECK(queue_.Empty());
  TAOS_CHECK(window_.empty());
  TAOS_CHECK(pending_raise_.empty());
  TAOS_CHECK(pending_timeout_.empty());
}

bool Condition::EraseWindow(Fiber* f) {
  auto it = std::find(window_.begin(), window_.end(), f);
  if (it == window_.end()) {
    return false;
  }
  window_.erase(it);
  return true;
}

bool Condition::ErasePendingRaise(Fiber* f) {
  auto it = std::find(pending_raise_.begin(), pending_raise_.end(), f);
  if (it == pending_raise_.end()) {
    return false;
  }
  pending_raise_.erase(it);
  return true;
}

bool Condition::ErasePendingTimeout(Fiber* f) {
  auto it = std::find(pending_timeout_.begin(), pending_timeout_.end(), f);
  if (it == pending_timeout_.end()) {
    return false;
  }
  pending_timeout_.erase(it);
  return true;
}

WaitResult Condition::WaitUntil(Mutex& m, std::uint64_t timeout_steps,
                                bool alertable) {
  Machine& mach = machine_;
  Fiber* self = Machine::Self();
  obs::ScopedEvent ev(alertable ? obs::Op::kAlertWait : obs::Op::kWait, id_,
                      Tid(self));
  obs::Inc(alertable ? obs::Counter::kNubAlertWait : obs::Counter::kNubWait);
  TAOS_CHECK(m.holder_ == self || mach.ShuttingDown());  // REQUIRES m = SELF

  const bool timed = timeout_steps != kNoDeadline;
  if (timeout_steps == 0) {
    // The deadline has already passed: no Enqueue, m is never released.
    mach.Step();
    obs::Inc(obs::Counter::kTimedWaitTimeouts);
    return WaitResult::kTimeout;
  }
  const std::uint64_t deadline =
      timed ? mach.steps() + timeout_steps : kNoDeadline;

  // Enqueue: linearizes at the mutex's clear step — SELF enters c exactly as
  // m becomes NIL (AlertWait's flavour: UNCHANGED [alerts]).
  std::uint64_t snapshot = 0;
  m.ReleaseInternal([&] {
    snapshot = ec_;
    window_.push_back(self);
    ++c_size_;
    Emit(mach, alertable ? spec::MakeAlertEnqueue(self->id, m.id_, id_)
                         : spec::MakeEnqueue(self->id, m.id_, id_));
  });

  // Nub subroutine Block(c, i) (AlertBlock when alertable), deadline-armed
  // when timed.
  mach.SpinAcquire();
  mach.Step();
  if (mach.ShuttingDown()) {
    return WaitResult::kTimeout;
  }
  bool raise = false;
  bool expired = false;
  if (alertable && self->alerted) {
    raise = true;
    if (EraseWindow(self)) {
      pending_raise_.push_back(self);  // still in c until AlertResume
    }
    mach.SpinRelease();
  } else if (use_eventcount_ && ec_ != snapshot) {
    // Absorbed: an intervening Signal/Broadcast advanced the eventcount and
    // removed us from c (and from window_) when it emitted.
    ++absorbed_;
    obs::Inc(obs::Counter::kWakeupWaitingHits);
    mach.SpinRelease();
  } else {
    EraseWindow(self);  // may already be gone in the no-eventcount ablation
    queue_.PushBack(self);
    self->block_kind = Fiber::BlockKind::kCondition;
    self->blocked_obj = this;
    self->alertable = alertable;
    self->alert_woken = false;
    expired = DescheduleBlockedUntil(mach, self, deadline);
    if (expired) {
      mach.SpinRelease();
    }
    // The three exits are arbitrated by who dequeued us: our own deadline,
    // an Alert (alert_woken), or a Signal. An alert that arrived around a
    // signal wakeup still wins, as in AlertWait; a pending alert never
    // converts a timeout, and is left deliverable.
    raise = alertable && !expired && (self->alert_woken || self->alerted);
  }

  if (expired) {
    m.AcquireInternal(spec::MakeTimeoutResume(self->id, m.id_, id_),
                      [this, self] {
                        if (ErasePendingTimeout(self)) {
                          DecSize();
                        }
                      });
    obs::Inc(obs::Counter::kTimedWaitTimeouts);
    return WaitResult::kTimeout;
  }
  if (raise) {
    // The alert ends the wait as a reported value; AlertWait raises it.
    m.AcquireInternal(spec::MakeAlertResumeRaises(self->id, m.id_, id_),
                      [this, self] {
                        if (ErasePendingRaise(self)) {
                          DecSize();
                        }
                        self->alerted = false;
                        self->alert_woken = false;
                      });
    if (timed) {
      obs::Inc(obs::Counter::kTimedWaitAlerted);
    }
    return WaitResult::kAlerted;
  }
  // Resume: re-enter the critical section.
  m.AcquireInternal(alertable
                        ? spec::MakeAlertResumeReturns(self->id, m.id_, id_)
                        : spec::MakeResume(self->id, m.id_, id_));
  self->alert_woken = false;
  if (timed) {
    obs::Inc(obs::Counter::kTimedWaitSatisfied);
  }
  return WaitResult::kSatisfied;
}

void Condition::Signal() { Wake(/*all=*/false); }

void Condition::Broadcast() { Wake(/*all=*/true); }

void Condition::Wake(bool all) {
  Machine& mach = machine_;
  Fiber* self = Machine::Self();
  obs::ScopedEvent ev(all ? obs::Op::kBroadcast : obs::Op::kSignal, id_,
                      Tid(self));
  auto emit = [&](spec::ThreadSet removed) {
    Emit(mach, all ? spec::MakeBroadcast(self->id, id_, removed)
                   : spec::MakeSignal(self->id, id_, removed));
  };
  mach.Step();  // user-code test: any threads to unblock?
  if (c_size_ == 0) {
    ++fast_signals_;
    obs::Inc(all ? obs::Counter::kFastBroadcast : obs::Counter::kFastSignal);
    emit({});
    return;
  }
  obs::Inc(all ? obs::Counter::kNubBroadcast : obs::Counter::kNubSignal);
  mach.SpinAcquire();
  mach.Step();
  ++ec_;
  spec::ThreadSet removed;
  int unblocked = 0;
  // Signal readies the first queued fiber, Broadcast every one.
  do {
    Fiber* t = queue_.PopFront();
    if (t == nullptr) {
      break;
    }
    removed = removed.Insert(t->id);
    DecSize();
    ++unblocked;
    obs::Inc(obs::Counter::kHandoffs);
    mach.MakeReady(t);
  } while (all);
  for (Fiber* w : window_) {
    removed = removed.Insert(w->id);
    DecSize();
    ++unblocked;  // window threads absorb this increment in Block
  }
  window_.clear();
  for (Fiber* p : pending_raise_) {
    removed = removed.Insert(p->id);
    DecSize();
  }
  pending_raise_.clear();
  // Timer-dequeued fibers are still spec-members of c; leaving them out
  // would let a Signal that pops nobody emit removed = {} against a
  // nonempty c, violating its own ENSURES. Their later TimeoutResume
  // delete() is idempotent, so the double removal is harmless.
  for (Fiber* p : pending_timeout_) {
    removed = removed.Insert(p->id);
    DecSize();
  }
  pending_timeout_.clear();
  if (!all && unblocked > 1) {
    ++multi_unblock_signals_;
  }
  emit(removed);
  mach.SpinRelease();
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

Semaphore::Semaphore(Machine& machine, bool initially_available)
    : machine_(machine), bit_(!initially_available), id_(machine.NextObjId()) {}

Semaphore::~Semaphore() {
  if (machine_.Aborted() || machine_.ShuttingDown()) {
    while (queue_.PopFront() != nullptr) {
    }
    return;
  }
  TAOS_CHECK(queue_.Empty());
}

void Semaphore::P() { PInternal(/*alertable=*/false); }

void Semaphore::PInternal(bool alertable) {
  Machine& m = machine_;
  Fiber* self = Machine::Self();
  obs::ScopedEvent ev(alertable ? obs::Op::kAlertP : obs::Op::kP, id_,
                      Tid(self));
  bool first_attempt = true;
  for (;;) {
    if (m.ShuttingDown()) {
      return;
    }
    m.Step();  // test-and-set: AlertP may win even with an alert pending —
               // the RETURNS/RAISES nondeterminism the paper discusses
    if (!bit_) {
      bit_ = true;
      if (first_attempt) {
        obs::Inc(obs::Counter::kFastSemP);
      }
      Emit(m, alertable ? spec::MakeAlertPReturns(self->id, id_)
                        : spec::MakeP(self->id, id_));
      return;
    }
    if (first_attempt) {
      obs::Inc(alertable ? obs::Counter::kNubAlertP : obs::Counter::kNubP);
    }
    first_attempt = false;
    m.SpinAcquire();
    m.Step();
    if (!alertable || !self->alerted) {
      queue_.PushBack(self);
      m.Step();
      if (!bit_) {
        queue_.Remove(self);
        m.SpinRelease();
        continue;
      }
      self->block_kind = Fiber::BlockKind::kSemaphore;
      self->blocked_obj = this;
      self->alertable = alertable;
      self->alert_woken = false;
      m.DescheduleSelf();
      if (!self->alert_woken) {
        continue;  // V readied us: retry from the test-and-set
      }
      m.SpinAcquire();
      m.Step();
    }
    // AlertP RAISES: alerted before blocking, or dequeued by Alert.
    self->alerted = false;
    self->alert_woken = false;
    Emit(m, spec::MakeAlertPRaises(self->id, id_));
    m.SpinRelease();
    throw Alerted();
  }
}

void Semaphore::V() {
  Machine& m = machine_;
  Fiber* self = Machine::Self();
  obs::ScopedEvent ev(obs::Op::kV, id_, Tid(self));
  m.Step();
  bit_ = false;
  Emit(m, spec::MakeV(self->id, id_));
  m.Step();
  if (!queue_.Empty()) {
    obs::Inc(obs::Counter::kNubV);
    m.SpinAcquire();
    m.Step();
    Fiber* t = queue_.PopFront();
    if (t != nullptr) {
      obs::Inc(obs::Counter::kHandoffs);
      m.MakeReady(t);
    }
    m.SpinRelease();
  } else {
    obs::Inc(obs::Counter::kFastSemV);
  }
}

// ---------------------------------------------------------------------------
// Event
// ---------------------------------------------------------------------------

Event::Event(Machine& machine, EventReset reset)
    : machine_(machine), reset_(reset), id_(machine.NextObjId()) {}

Event::~Event() {
  if (machine_.Aborted() || machine_.ShuttingDown()) {
    while (queue_.PopFront() != nullptr) {
    }
    pollers_.clear();
    return;
  }
  TAOS_CHECK(queue_.Empty());
  TAOS_CHECK(pollers_.empty());
}

void Event::Set() {
  Machine& m = machine_;
  Fiber* self = Machine::Self();
  obs::ScopedEvent ev(obs::Op::kEventSet, id_, Tid(self));
  m.Step();  // the store is the atomic action
  set_ = true;
  Emit(m, spec::MakeEventSet(self->id, id_));
  m.Step();  // user-code test: anyone to wake?
  if (queue_.Empty() && pollers_.empty()) {
    return;
  }
  // Nub subroutine: wake per the Set policy — auto hands the pulse to one
  // plain waiter if any; pollers are notified only when no plain waiter
  // took it (a consumed pulse has nothing for them). Manual wakes everyone.
  m.SpinAcquire();
  m.Step();
  bool woke_plain = false;
  if (reset_ == EventReset::kAuto) {
    Fiber* t = queue_.PopFront();
    if (t != nullptr) {
      woke_plain = true;
      obs::Inc(obs::Counter::kHandoffs);
      m.MakeReady(t);
    }
  } else {
    while (Fiber* t = queue_.PopFront()) {
      obs::Inc(obs::Counter::kHandoffs);
      m.MakeReady(t);
    }
  }
  if (reset_ == EventReset::kManual || !woke_plain) {
    // Waking a poll waiter deregisters it from every member it is
    // registered on (including this event), so the loop drains pollers_.
    while (!pollers_.empty()) {
      Fiber* f = pollers_.back();
      static_cast<Poll*>(f->blocked_obj)->DeregisterFiber(f);
      obs::Inc(obs::Counter::kHandoffs);
      m.MakeReady(f);
    }
  }
  m.SpinRelease();
}

void Event::Reset() {
  Machine& m = machine_;
  Fiber* self = Machine::Self();
  m.Step();
  set_ = false;
  Emit(m, spec::MakeEventReset(self->id, id_));
}

void Event::Wait() { WaitFor(kNoDeadline); }

bool Event::TryClaim(Fiber* self) {
  if (!set_) {
    return false;
  }
  if (reset_ == EventReset::kAuto) {
    set_ = false;
    Emit(machine_, spec::MakeEventConsume(self->id, id_));
  } else {
    Emit(machine_, spec::MakeEventWait(self->id, id_));
  }
  return true;
}

WaitResult Event::WaitFor(std::uint64_t timeout_steps) {
  Machine& m = machine_;
  Fiber* self = Machine::Self();
  obs::ScopedEvent ev(obs::Op::kEventWait, id_, Tid(self));
  const bool timed = timeout_steps != kNoDeadline;
  if (timeout_steps == 0) {
    m.Step();
    if (TryClaim(self)) {
      obs::Inc(obs::Counter::kTimedWaitSatisfied);
      return WaitResult::kSatisfied;
    }
    Emit(m, spec::MakePollTimeout(self->id, spec::ObjIdSet{}.Insert(id_)));
    obs::Inc(obs::Counter::kTimedWaitTimeouts);
    return WaitResult::kTimeout;
  }
  const std::uint64_t deadline =
      timed ? m.steps() + timeout_steps : kNoDeadline;
  for (;;) {
    if (m.ShuttingDown()) {
      return WaitResult::kTimeout;
    }
    m.Step();  // the claim: test (auto: test-and-clear) in one step
    if (TryClaim(self)) {
      if (timed) {
        obs::Inc(obs::Counter::kTimedWaitSatisfied);
      }
      return WaitResult::kSatisfied;
    }
    // Nub subroutine: enqueue, re-test, de-schedule — Semaphore::P's shape
    // with the bit sense inverted.
    m.SpinAcquire();
    m.Step();
    queue_.PushBack(self);
    m.Step();  // re-test the flag
    if (!set_) {
      self->block_kind = Fiber::BlockKind::kEvent;
      self->blocked_obj = this;
      self->alertable = false;
      self->alert_woken = false;
      if (DescheduleBlockedUntil(m, self, deadline)) {
        // Claim first, deadline second, as the runtime's Event does: a Set
        // that published its pulse but has not popped a waiter yet still
        // grants it.
        const bool claimed = TryClaim(self);
        if (!claimed) {
          Emit(m,
               spec::MakePollTimeout(self->id, spec::ObjIdSet{}.Insert(id_)));
        }
        m.SpinRelease();
        obs::Inc(claimed ? obs::Counter::kTimedWaitSatisfied
                         : obs::Counter::kTimedWaitTimeouts);
        return claimed ? WaitResult::kSatisfied : WaitResult::kTimeout;
      }
      // A Set readied us, maybe after the clock did: claim at the top.
    } else {
      queue_.Remove(self);
      m.SpinRelease();
    }
  }
}

// ---------------------------------------------------------------------------
// Poll
// ---------------------------------------------------------------------------

void Poll::Add(Event& e) {
  TAOS_CHECK(n_ < kMaxWait);
  for (std::size_t i = 0; i < n_; ++i) {
    TAOS_CHECK(events_[i] != &e);
  }
  events_[n_++] = &e;
}

spec::ObjIdSet Poll::WaitSetIds() const {
  spec::ObjIdSet ws;
  for (std::size_t i = 0; i < n_; ++i) {
    ws = ws.Insert(events_[i]->id_);
  }
  return ws;
}

void Poll::DeregisterFiber(Fiber* f) {
  for (std::size_t i = 0; i < n_; ++i) {
    auto& ps = events_[i]->pollers_;
    auto it = std::find(ps.begin(), ps.end(), f);
    if (it != ps.end()) {
      ps.erase(it);
    }
  }
}

void Poll::RegisterAllLocked(Fiber* f) {
  for (std::size_t i = 0; i < n_; ++i) {
    events_[i]->pollers_.push_back(f);
  }
  obs::Inc(obs::Counter::kPollRegistrations);
}

bool Poll::TryGrantLocked(bool all, const spec::ObjIdSet& ws,
                          std::size_t* index) {
  Machine& m = events_[0]->machine_;
  Fiber* self = Machine::Self();
  if (!all) {
    for (std::size_t i = 0; i < n_; ++i) {
      Event* ev = events_[i];
      if (!ev->set_) {
        continue;
      }
      const bool consumed = ev->reset_ == EventReset::kAuto;
      if (consumed) {
        ev->set_ = false;
      }
      Emit(m, spec::MakePollAny(self->id, ws, ev->id_, consumed));
      *index = i;
      return true;
    }
    return false;
  }
  for (std::size_t i = 0; i < n_; ++i) {
    if (!events_[i]->set_) {
      return false;
    }
  }
  spec::ObjIdSet consumed;
  for (std::size_t i = 0; i < n_; ++i) {
    if (events_[i]->reset_ == EventReset::kAuto) {
      events_[i]->set_ = false;
      consumed = consumed.Insert(events_[i]->id_);
    }
  }
  Emit(m, spec::MakePollAll(self->id, ws, consumed));
  *index = 0;
  return true;
}

WaitResult Poll::WaitInternal(bool all, bool alertable,
                              std::uint64_t timeout_steps, std::size_t* index) {
  TAOS_CHECK(n_ > 0);
  Machine& m = events_[0]->machine_;
  Fiber* self = Machine::Self();
  const spec::ObjIdSet ws = WaitSetIds();
  *index = n_;
  if (timeout_steps == 0) {
    // A single scan in one atomic step; nothing registers, so the spin-lock
    // (which TryGrantLocked otherwise requires) is unnecessary.
    m.Step();
    if (TryGrantLocked(all, ws, index)) {
      return WaitResult::kSatisfied;
    }
    Emit(m, spec::MakePollTimeout(self->id, ws));
    return WaitResult::kTimeout;
  }
  const std::uint64_t deadline = timeout_steps == kNoDeadline
                                     ? kNoDeadline
                                     : m.steps() + timeout_steps;
  bool parked = false;
  for (;;) {
    if (m.ShuttingDown()) {
      return WaitResult::kTimeout;
    }
    m.SpinAcquire();
    m.Step();
    if (TryGrantLocked(all, ws, index)) {
      m.SpinRelease();
      return WaitResult::kSatisfied;
    }
    if (parked) {
      obs::Inc(obs::Counter::kPollSpuriousScans);
    }
    // Grant beats a pending alert (both WHEN clauses may hold; this
    // implementation prefers the grant, as the runtime's scan-first loop
    // does).
    if (alertable && self->alerted) {
      self->alerted = false;
      self->alert_woken = false;
      Emit(m, spec::MakePollAlertRaises(self->id, ws));
      m.SpinRelease();
      return WaitResult::kAlerted;
    }
    RegisterAllLocked(self);
    m.Step();  // re-test, the Nub idiom: a Set racing the registration
    if (TryGrantLocked(all, ws, index)) {
      DeregisterFiber(self);
      m.SpinRelease();
      return WaitResult::kSatisfied;
    }
    self->block_kind = Fiber::BlockKind::kPoll;
    self->blocked_obj = this;
    self->alertable = alertable;
    self->alert_woken = false;
    // Whoever dequeues us deregisters us everywhere.
    if (DescheduleBlockedUntil(m, self, deadline)) {
      // Rescan before reporting the timeout: a grant beats an expiry.
      const bool granted = TryGrantLocked(all, ws, index);
      if (!granted) {
        Emit(m, spec::MakePollTimeout(self->id, ws));
      }
      m.SpinRelease();
      return granted ? WaitResult::kSatisfied : WaitResult::kTimeout;
    }
    parked = true;
    if (alertable && (self->alert_woken || self->alerted)) {
      m.Step();
      self->alerted = false;
      self->alert_woken = false;
      Emit(m, spec::MakePollAlertRaises(self->id, ws));
      return WaitResult::kAlerted;
    }
    self->alert_woken = false;
  }
}

WaitResult Poll::Wait(bool all, bool alertable, std::uint64_t timeout_steps,
                      std::size_t* index) {
  Fiber* self = Machine::Self();
  obs::ScopedEvent ev(obs::Op::kPoll, n_ > 0 ? events_[0]->id_ : 0, Tid(self));
  const WaitResult r = WaitInternal(all, alertable, timeout_steps, index);
  if (timeout_steps != kNoDeadline) {
    obs::Inc(r == WaitResult::kSatisfied ? obs::Counter::kTimedWaitSatisfied
             : r == WaitResult::kTimeout ? obs::Counter::kTimedWaitTimeouts
                                         : obs::Counter::kTimedWaitAlerted);
  }
  return r;
}

std::size_t Poll::WaitAny() {
  std::size_t index = 0;
  Wait(/*all=*/false, /*alertable=*/false, kNoDeadline, &index);
  return index;
}

Poll::AnyResult Poll::WaitAnyFor(std::uint64_t timeout_steps) {
  std::size_t index = 0;
  const WaitResult r = Wait(/*all=*/false, /*alertable=*/false,
                            timeout_steps, &index);
  return {index, r};
}

std::size_t Poll::AlertWaitAny() {
  std::size_t index = 0;
  if (Wait(/*all=*/false, /*alertable=*/true, kNoDeadline, &index) ==
      WaitResult::kAlerted) {
    throw Alerted();
  }
  return index;
}

Poll::AnyResult Poll::AlertWaitAnyFor(std::uint64_t timeout_steps) {
  std::size_t index = 0;
  const WaitResult r = Wait(/*all=*/false, /*alertable=*/true,
                            timeout_steps, &index);
  return {index, r};
}

void Poll::WaitAll() {
  std::size_t index = 0;
  Wait(/*all=*/true, /*alertable=*/false, kNoDeadline, &index);
}

WaitResult Poll::WaitAllFor(std::uint64_t timeout_steps) {
  std::size_t index = 0;
  return Wait(/*all=*/true, /*alertable=*/false, timeout_steps, &index);
}

void Poll::AlertWaitAll() {
  std::size_t index = 0;
  if (Wait(/*all=*/true, /*alertable=*/true, kNoDeadline, &index) ==
      WaitResult::kAlerted) {
    throw Alerted();
  }
}

WaitResult Poll::AlertWaitAllFor(std::uint64_t timeout_steps) {
  std::size_t index = 0;
  return Wait(/*all=*/true, /*alertable=*/true, timeout_steps, &index);
}

// ---------------------------------------------------------------------------
// Alerting
// ---------------------------------------------------------------------------

void Alert(FiberHandle h) {
  TAOS_CHECK(h.fiber != nullptr);
  Fiber* t = h.fiber;
  Machine& m = *t->machine;
  Fiber* self = Machine::Self();
  obs::ScopedEvent ev(obs::Op::kAlert, static_cast<std::uint64_t>(t->id),
                      Tid(self));
  obs::Inc(obs::Counter::kNubAlert);
  m.SpinAcquire();
  m.Step();
  t->alerted = true;  // alerts := insert(alerts, t)
  // Blocked, possibly already readied by the clock but not yet dequeued.
  if (t->block_kind != Fiber::BlockKind::kNone && t->alertable) {
    DequeueBlocked(t, /*alerted=*/true);
    t->alert_woken = true;
    obs::Inc(obs::Counter::kHandoffs);
    m.MakeReady(t);
  }
  Emit(m, spec::MakeAlert(self->id, t->id));
  m.SpinRelease();
}

bool TestAlert() {
  Fiber* self = Machine::Self();
  Machine& m = *self->machine;
  m.Step();
  const bool b = self->alerted;
  self->alerted = false;
  Emit(m, spec::MakeTestAlert(self->id, b));
  return b;
}

void AlertWait(Mutex& m, Condition& c) {
  if (c.WaitUntil(m, kNoDeadline, /*alertable=*/true) == WaitResult::kAlerted) {
    throw Alerted();
  }
}

WaitResult AlertWaitFor(Mutex& m, Condition& c, std::uint64_t timeout_steps) {
  return c.WaitUntil(m, timeout_steps, /*alertable=*/true);
}

void AlertP(Semaphore& s) { s.PInternal(/*alertable=*/true); }

}  // namespace taos::firefly
