#include "src/threads/event.h"

#include <vector>

#include "src/base/chaos.h"
#include "src/base/check.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/spec/action.h"
#include "src/threads/nub.h"
#include "src/threads/timer.h"

namespace taos {

Event::Event(EventReset reset)
    : set_(0), reset_(reset), id_(Nub::Get().NextObjId()) {
  pollers_.next = &pollers_;
  pollers_.prev = &pollers_;
}

Event::~Event() {
  TAOS_CHECK(queue_.Empty());
  // REQUIRES no live poll registrations: a Poll waiter's PollNode points
  // into a stack frame that outlives its WaitAny/WaitAll call, not this
  // object.
  TAOS_CHECK(pollers_.next == &pollers_);
  TAOS_CHECK(pollers_len_.load(std::memory_order_relaxed) == 0);
}

void Event::Set() {
  if (PublishSet()) {
    NubSet();
  }
}

bool Event::PublishSet() {
  bool wake = false;
  obs::WithEvent(obs::Op::kEventSet, id_, [&] {
    Nub& nub = Nub::Get();
    if (nub.tracing()) {
      TracedSet(nub.Current());
      return;
    }
    set_.store(1, std::memory_order_seq_cst);
    TAOS_CHAOS(kEventSetToResume);
    // Dekker pairing, twice over: a plain waiter enqueues (queue_len_
    // fetch_add, seq_cst) before testing set_, and a poller registers
    // (pollers_len_ fetch_add, seq_cst) before scanning set_. Either the
    // waiter/poller sees the flag, or this load sees the registration.
    wake = queue_len_.load(std::memory_order_seq_cst) > 0 ||
           pollers_len_.load(std::memory_order_seq_cst) > 0;
  });
  return wake;
}

void Event::Reset() {
  Nub& nub = Nub::Get();
  if (nub.tracing()) {
    TracedReset(nub.Current());
    return;
  }
  set_.store(0, std::memory_order_seq_cst);
}

bool Event::TryWait() {
  Nub& nub = Nub::Get();
  if (nub.tracing()) {
    ThreadRecord* self = nub.Current();
    NubGuard g(nub_lock_);
    if (set_.load(std::memory_order_relaxed) == 0) {
      return false;
    }
    if (reset_ == EventReset::kAuto) {
      set_.store(0, std::memory_order_relaxed);
      nub.EmitTraced(spec::MakeEventConsume(self->id, id_));
    } else {
      nub.EmitTraced(spec::MakeEventWait(self->id, id_));
    }
    return true;
  }
  return TryConsume(std::memory_order_acquire);
}

void Event::Wait() {
  obs::WithEvent(obs::Op::kEventWait, id_, [&] {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    if (nub.tracing()) {
      TracedWaitFor(self, kNoDeadline);
      return;
    }
    if (TryConsume(std::memory_order_acquire)) {
      return;
    }
    NubWaitFor(self, kNoDeadline);
  });
}

WaitResult Event::WaitFor(std::chrono::nanoseconds timeout) {
  WaitResult result = WaitResult::kSatisfied;
  obs::WithEvent(obs::Op::kEventWait, id_, [&] {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    if (nub.tracing()) {
      const std::uint64_t deadline =
          timeout.count() > 0 ? DeadlineAfter(timeout) : 0;
      result = TracedWaitFor(self, deadline) ? WaitResult::kSatisfied
                                             : WaitResult::kTimeout;
    } else if (TryConsume(std::memory_order_acquire)) {
      // Fast path tried even with an expired deadline: WaitFor(0) is
      // TryWait with a WaitResult.
    } else if (timeout.count() <= 0) {
      result = WaitResult::kTimeout;
    } else if (!NubWaitFor(self, DeadlineAfter(timeout))) {
      result = WaitResult::kTimeout;
    }
  });
  obs::Inc(result == WaitResult::kSatisfied
               ? obs::Counter::kTimedWaitSatisfied
               : obs::Counter::kTimedWaitTimeouts);
  return result;
}

bool Event::NubWaitFor(ThreadRecord* self, std::uint64_t deadline_ns) {
  obs::Inc(obs::Counter::kNubEventWait);
  for (;;) {
    bool parked = false;
    {
      NubGuard g(nub_lock_);
      queue_.PushBack(self);
      queue_len_.fetch_add(1, std::memory_order_seq_cst);
      if (set_.load(std::memory_order_seq_cst) == 0) {
        SpinGuard tg(self->lock);
        SetBlockedLocked(self, ThreadRecord::BlockKind::kEvent, this, id_,
                         &nub_lock_, /*alertable=*/false);
        parked = true;
      } else {
        queue_.Remove(self);
        queue_len_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    const bool expired =
        parked && ParkBlockedUntil(self, deadline_ns, kEventWait);
    // Consume FIRST, deadline second: a Set's grant is never converted into
    // a timeout by a co-incident expiry.
    if (TryConsume(std::memory_order_acquire)) {
      return true;
    }
    if (parked) {
      obs::Inc(obs::Counter::kSpuriousWakeups);
    }
    if (expired || DeadlinePassed(deadline_ns)) {
      return false;
    }
  }
}

void Event::NubSet() {
  obs::Inc(obs::Counter::kNubEventSet);
  std::vector<waitq::Parker*> unparks;
  {
    NubGuard g(nub_lock_);
    ResumeForSetLocked(&unparks);
  }
  for (waitq::Parker* p : unparks) {
    obs::Inc(obs::Counter::kHandoffs);
    p->Unpark();
  }
}

// The Set policy, factored so Poll's WaitAll rollback (which re-publishes a
// tentatively consumed flag while already holding this event's ObjLock) and
// TracedSet share it: auto-reset wakes ONE plain waiter if there is one —
// the pulse has a single consumer and a dedicated waiter will be it — and
// falls back to notifying the pollers; manual-reset wakes every plain
// waiter AND notifies every poller (all of them can observe the flag).
// REQUIRES nub_lock_ held and set_ already published as 1.
void Event::ResumeForSetLocked(std::vector<waitq::Parker*>* unparks) {
  bool woke_plain = false;
  while (ThreadRecord* wake = queue_.PopFront()) {
    queue_len_.fetch_sub(1, std::memory_order_relaxed);
    MarkUnblocked(wake);
    unparks->push_back(&wake->park);
    woke_plain = true;
    if (reset_ == EventReset::kAuto) {
      break;
    }
  }
  // An auto-reset pulse taken by a plain waiter is consumed (or, if the
  // waiter loses the consume race to a barger, consumed by the barger);
  // either way the pollers have nothing to observe, so skipping them loses
  // no wakeup.
  if (reset_ == EventReset::kManual || !woke_plain) {
    NotifyPollersLocked(unparks);
  }
}

void Event::NotifyPollersLocked(std::vector<waitq::Parker*>* unparks) {
  for (PollNode* n = pollers_.next; n != &pollers_; n = n->next) {
    NotifyPoller(n->rec, unparks);
  }
}

// Notify-only: flips the registrant's latch and, on the 0->1 edge alone,
// unblocks it. The granter never consumes the event on the poller's behalf
// and never touches the poller's stack — `rec` is the poller's
// ThreadRecord, and a registered poller is still inside its wait, so the
// record is live. At most one notifier wins the edge per re-arm, so a
// parked poller receives at most one unpark per park (the parker's
// single-permit contract).
void Event::NotifyPoller(ThreadRecord* rec,
                         std::vector<waitq::Parker*>* unparks) {
  if (rec->poll_latch.exchange(1, std::memory_order_seq_cst) != 0) {
    return;
  }
  TAOS_CHAOS(kPollNotify);
  SpinGuard tg(rec->lock);
  if (rec->block_kind == ThreadRecord::BlockKind::kPollAny ||
      rec->block_kind == ThreadRecord::BlockKind::kPollAll) {
    ClearBlockedLocked(rec);
    unparks->push_back(&rec->park);
  }
  // Latch already 1 but not blocked: the poller is mid-scan and will see
  // the latch at its pre-park check — no unpark owed.
}

void Event::RegisterPollerLocked(PollNode* node) {
  if (node->linked) {
    return;
  }
  node->prev = pollers_.prev;
  node->next = &pollers_;
  pollers_.prev->next = node;
  pollers_.prev = node;
  node->linked = true;
  pollers_len_.fetch_add(1, std::memory_order_seq_cst);
  obs::Inc(obs::Counter::kPollRegistrations);
  TAOS_CHAOS(kPollRegister);
}

void Event::DeregisterPoller(PollNode* node) {
  TAOS_CHAOS(kPollDeregister);
  if (!node->linked) {
    return;
  }
  NubGuard g(nub_lock_);
  node->prev->next = node->next;
  node->next->prev = node->prev;
  node->prev = nullptr;
  node->next = nullptr;
  node->linked = false;
  pollers_len_.fetch_sub(1, std::memory_order_relaxed);
}

void Event::TracedSet(ThreadRecord* self) {
  obs::Inc(obs::Counter::kNubEventSet);
  Nub& nub = Nub::Get();
  std::vector<waitq::Parker*> unparks;
  {
    NubGuard g(nub_lock_);
    set_.store(1, std::memory_order_relaxed);
    nub.EmitTraced(spec::MakeEventSet(self->id, id_));
    ResumeForSetLocked(&unparks);
  }
  for (waitq::Parker* p : unparks) {
    obs::Inc(obs::Counter::kHandoffs);
    p->Unpark();
  }
}

void Event::TracedReset(ThreadRecord* self) {
  Nub& nub = Nub::Get();
  NubGuard g(nub_lock_);
  set_.store(0, std::memory_order_relaxed);
  nub.EmitTraced(spec::MakeEventReset(self->id, id_));
}

bool Event::TracedWaitFor(ThreadRecord* self, std::uint64_t deadline_ns) {
  obs::Inc(obs::Counter::kNubEventWait);
  Nub& nub = Nub::Get();
  for (;;) {
    {
      NubGuard g(nub_lock_);
      // Take-test before deadline-test: a grant beats a co-incident expiry.
      if (set_.load(std::memory_order_relaxed) != 0) {
        const bool consume = reset_ == EventReset::kAuto;
        if (consume) {
          set_.store(0, std::memory_order_relaxed);
        }
        SpinGuard tg(self->lock);
        nub.EmitTraced(consume ? spec::MakeEventConsume(self->id, id_)
                               : spec::MakeEventWait(self->id, id_));
        return true;
      }
      if (DeadlinePassed(deadline_ns)) {
        // WaitFor/TIMEOUT over the one-event set {e}: a no-op on s, one
        // atomic action under the object lock.
        spec::ObjIdSet ws;
        ws = ws.Insert(id_);
        SpinGuard tg(self->lock);
        nub.EmitTraced(spec::MakePollTimeout(self->id, ws));
        return false;
      }
      queue_.PushBack(self);
      queue_len_.fetch_add(1, std::memory_order_relaxed);
      SpinGuard tg(self->lock);
      SetBlockedLocked(self, ThreadRecord::BlockKind::kEvent, this, id_,
                       &nub_lock_, /*alertable=*/false);
    }
    // The loop-top deadline check decides.
    ParkBlockedUntil(self, deadline_ns, kEventWait);
  }
}

}  // namespace taos
