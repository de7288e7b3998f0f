#include "src/threads/poll.h"

#include <algorithm>

#include "src/base/chaos.h"
#include "src/base/check.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/spec/action.h"
#include "src/threads/alert.h"
#include "src/threads/nub.h"
#include "src/threads/timer.h"

namespace taos {

namespace {

// Rule 2 of the ordering discipline generalized from pairs (NubGuard2) to
// the wait set: acquire every member's resolved slow-path lock in ascending
// address order, deduplicated (in global-lock mode all members resolve to
// the one Nub lock, which is then acquired exactly once).
class LockAllGuard {
 public:
  // `resolved` holds each member's ObjLock::Resolve() result, unsorted and
  // possibly with duplicates (the caller is Event's friend; we are not).
  LockAllGuard(SpinLock* const* resolved, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      SpinLock* l = resolved[i];
      std::size_t pos = 0;
      while (pos < n_ && reinterpret_cast<std::uintptr_t>(locks_[pos]) <
                             reinterpret_cast<std::uintptr_t>(l)) {
        ++pos;
      }
      if (pos < n_ && locks_[pos] == l) {
        continue;
      }
      for (std::size_t j = n_; j > pos; --j) {
        locks_[j] = locks_[j - 1];
      }
      locks_[pos] = l;
      ++n_;
    }
    for (std::size_t i = 0; i < n_; ++i) {
      locks_[i]->Acquire();
    }
  }

  ~LockAllGuard() {
    for (std::size_t i = n_; i-- > 0;) {
      locks_[i]->Release();
    }
  }

  LockAllGuard(const LockAllGuard&) = delete;
  LockAllGuard& operator=(const LockAllGuard&) = delete;

 private:
  SpinLock* locks_[Poll::kMaxWait] = {};
  std::size_t n_ = 0;
};

}  // namespace

void Poll::Add(Event& e) {
  TAOS_CHECK(n_ < kMaxWait);
  for (std::size_t i = 0; i < n_; ++i) {
    // REQUIRES distinct members: a duplicate would double-register one
    // PollNode and make "which index was granted" ambiguous.
    TAOS_CHECK(events_[i] != &e);
  }
  events_[n_++] = &e;
  owner_ = spec::kNil;  // the next wait points the new node at itself
}

Poll::~Poll() {
  TAOS_CHECK(!busy_.load(std::memory_order_acquire));
  DeregisterAll(resident_);
}

void Poll::Rebind(ThreadRecord* self) {
  for (std::size_t i = 0; i < n_; ++i) {
    NubGuard g(events_[i]->nub_lock_);
    resident_[i].rec = self;
    resident_[i].latch = &latch_;
  }
  owner_ = self->id;
}

spec::ObjIdSet Poll::WaitSetIds() const {
  spec::ObjIdSet ws;
  for (std::size_t i = 0; i < n_; ++i) {
    ws = ws.Insert(events_[i]->id());
  }
  return ws;
}

void Poll::DeregisterAll(PollNode* nodes) {
  for (std::size_t i = 0; i < n_; ++i) {
    events_[i]->DeregisterPoller(&nodes[i]);
  }
}

// One WaitAny round: per member, from ScanStart() round the set, register
// under its lock if the node is not linked yet, then attempt the
// waiter-side claim. Returns the granted index, or size() if nothing was
// ready. Registration-before-test is the Dekker pairing with Set's
// flag-store-then-len-load; a node still linked from an earlier wait was
// counted long before. `linked` is read without the lock: only the thread
// that owns the nodes for this wait writes it. The claim itself needs no
// lock (it is the same atomic exchange/load every consumer uses); it is
// seq_cst so that it also pairs with Set's flag store across the latch
// re-arm.
std::size_t Poll::ScanAny(PollNode* nodes) {
  const std::size_t start = ScanStart();
  for (std::size_t k = 0; k < n_; ++k) {
    const std::size_t i = (start + k) % n_;
    Event* ev = events_[i];
    if (!nodes[i].linked) {
      NubGuard g(ev->nub_lock_);
      ev->RegisterPollerLocked(&nodes[i]);
    }
    if (ev->TryConsume(std::memory_order_seq_cst)) {
      NoteGranted(i);
      return i;
    }
  }
  return n_;
}

// One WaitAll round under every member's lock: register all, test all, and
// if all are set claim the auto-reset members. A lock-free consumer
// (TryWait / Wait's fast path takes no lock) can still steal a member
// between our test and our exchange; the claim then rolls back by
// re-publishing the pulses already taken, running each event's Set resume
// policy in place (we hold its lock). The rollback is observable as a
// transient consume+set pulse on those members — each step individually
// legal (the barger's claim linearizes against real states) — and cannot
// happen in traced runs, where every consumer takes the lock, so the
// spec-checked WaitAll is genuinely atomic.
bool Poll::ScanAll(PollNode* nodes, spec::ObjId* first_unset) {
  ParkerList unparks;
  bool ready = false;
  SpinLock* resolved[kMaxWait];
  for (std::size_t i = 0; i < n_; ++i) {
    resolved[i] = events_[i]->nub_lock_.Resolve();
  }
  {
    LockAllGuard g(resolved, n_);
    for (std::size_t i = 0; i < n_; ++i) {
      events_[i]->RegisterPollerLocked(&nodes[i]);
    }
    ready = true;
    for (std::size_t i = 0; i < n_; ++i) {
      if (events_[i]->set_.load(std::memory_order_seq_cst) == 0) {
        ready = false;
        *first_unset = events_[i]->id();
        break;
      }
    }
    if (ready) {
      for (std::size_t i = 0; i < n_ && ready; ++i) {
        Event* ev = events_[i];
        if (ev->reset_ != EventReset::kAuto) {
          continue;
        }
        if (ev->set_.exchange(0, std::memory_order_acquire) == 0) {
          ready = false;
          *first_unset = ev->id();
          for (std::size_t j = 0; j < i; ++j) {
            Event* undo = events_[j];
            if (undo->reset_ != EventReset::kAuto) {
              continue;
            }
            undo->set_.store(1, std::memory_order_seq_cst);
            undo->ResumeForSetLocked(&unparks);
          }
        }
      }
    }
  }
  for (waitq::Parker* p : unparks) {
    obs::Inc(obs::Counter::kHandoffs);
    p->Unpark();
  }
  return ready;
}

Poll::Outcome Poll::WaitInternal(bool all, bool alertable,
                                 std::uint64_t deadline_ns) {
  // REQUIRES wait_set # {}: WaitAny over nothing can never be granted, and
  // WaitAll over nothing is vacuously granted — both are caller bugs.
  TAOS_CHECK(n_ > 0);
  Nub& nub = Nub::Get();
  ThreadRecord* self = nub.Current();
  if (nub.tracing()) {
    return TracedWait(self, all, alertable, deadline_ns);
  }
  if (!busy_.exchange(true, std::memory_order_acquire)) {
    if (owner_ != self->id) {
      Rebind(self);
    }
    const Outcome out =
        WaitRounds(self, resident_, &latch_, all, alertable, deadline_ns);
    busy_.store(false, std::memory_order_release);
    return out;
  }
  // Another thread is waiting on this Poll: register for this call only.
  PollNode nodes[kMaxWait];
  for (std::size_t i = 0; i < n_; ++i) {
    nodes[i].rec = self;
    nodes[i].latch = &self->poll_latch;
  }
  const Outcome out = WaitRounds(self, nodes, &self->poll_latch, all,
                                 alertable, deadline_ns);
  DeregisterAll(nodes);
  return out;
}

Poll::Outcome Poll::WaitRounds(ThreadRecord* self, PollNode* nodes,
                               std::atomic<std::uint32_t>* latch, bool all,
                               bool alertable, std::uint64_t deadline_ns) {
  Outcome out{WaitResult::kSatisfied, n_};
  bool parked = false;
  bool expired = false;
  bool alert_pending = false;
  for (;;) {
    // Re-arm the latch BEFORE registering and scanning: a Set landing after
    // this store either sees the registration (and flips the latch, which
    // the pre-park check below observes) or is itself seen by the scan.
    latch->store(0, std::memory_order_seq_cst);
    obs::Add(obs::Counter::kPollRegistrations, n_);
    spec::ObjId first_unset = events_[0]->id();
    std::size_t index = 0;
    bool ready;
    if (all) {
      ready = ScanAll(nodes, &first_unset);
    } else {
      index = ScanAny(nodes);
      ready = index < n_;
    }
    if (ready) {
      out = {WaitResult::kSatisfied, index};
      break;
    }
    if (parked) {
      obs::Inc(obs::Counter::kPollSpuriousScans);
    }
    // Scan before deadline: a grant always beats a co-incident expiry. A
    // timeout observed here leaves a pending alert pending.
    if (expired || DeadlinePassed(deadline_ns)) {
      out = {WaitResult::kTimeout, n_};
      break;
    }
    if (alert_pending) {
      SpinGuard tg(self->lock);
      self->alerted.store(false, std::memory_order_relaxed);
      out = {WaitResult::kAlerted, n_};
      break;
    }
    parked = false;
    {
      SpinGuard tg(self->lock);
      if (alertable && self->alerted.load(std::memory_order_relaxed)) {
        // Pending alert: one more (failed) scan above decides the exit, so
        // a member set in the meantime still beats the alert.
        alert_pending = true;
      } else if (latch->load(std::memory_order_seq_cst) == 0) {
        // Latch still disarmed under the record lock: no Set has notified
        // since the re-arm, so parking cannot strand us — a later notify
        // wins the 0->1 edge, sees this thread blocked on its latch, and
        // unparks.
        SetBlockedLocked(self,
                         all ? ThreadRecord::BlockKind::kPollAll
                             : ThreadRecord::BlockKind::kPollAny,
                         latch, all ? first_unset : events_[0]->id(),
                         /*obj_lock=*/nullptr, alertable);
        parked = true;
      }
    }
    TAOS_CHAOS(kPollScanToPark);
    if (parked) {
      expired = ParkBlockedUntil(self, deadline_ns, kEventWait);
      if (alertable && !expired) {
        SpinGuard tg(self->lock);
        if (self->alert_woken || self->alerted.load(std::memory_order_relaxed)) {
          alert_pending = true;
        }
        self->alert_woken = false;
      }
    }
  }
  return out;
}

Poll::Outcome Poll::TracedWait(ThreadRecord* self, bool all, bool alertable,
                               std::uint64_t deadline_ns) {
  Nub& nub = Nub::Get();
  const spec::ObjIdSet ws = WaitSetIds();

  PollNode nodes[kMaxWait];
  for (std::size_t i = 0; i < n_; ++i) {
    nodes[i].rec = self;
    nodes[i].latch = &self->poll_latch;
  }

  Outcome out{WaitResult::kSatisfied, n_};
  bool parked = false;
  bool expired = false;
  bool alert_pending = false;
  for (;;) {
    self->poll_latch.store(0, std::memory_order_seq_cst);
    obs::Add(obs::Counter::kPollRegistrations, n_);
    spec::ObjId first_unset = events_[0]->id();
    std::size_t index = n_;
    bool ready = false;
    if (all) {
      // The WHEN-over-a-set hard case: the ∀ test, the consumption of every
      // auto-reset member and the emission are one atomic action under all
      // member locks (every traced consumer also locks, so no rollback
      // transient exists here).
      SpinLock* resolved[kMaxWait];
      for (std::size_t i = 0; i < n_; ++i) {
        resolved[i] = events_[i]->nub_lock_.Resolve();
      }
      LockAllGuard g(resolved, n_);
      for (std::size_t i = 0; i < n_; ++i) {
        events_[i]->RegisterPollerLocked(&nodes[i]);
      }
      ready = true;
      for (std::size_t i = 0; i < n_; ++i) {
        if (events_[i]->set_.load(std::memory_order_relaxed) == 0) {
          ready = false;
          first_unset = events_[i]->id();
          break;
        }
      }
      if (ready) {
        spec::ObjIdSet consumed;
        for (std::size_t i = 0; i < n_; ++i) {
          if (events_[i]->reset_ == EventReset::kAuto) {
            events_[i]->set_.store(0, std::memory_order_relaxed);
            consumed = consumed.Insert(events_[i]->id());
          }
        }
        nub.EmitTraced(spec::MakePollAll(self->id, ws, consumed));
        index = 0;
      }
    } else {
      const std::size_t start = ScanStart();
      for (std::size_t k = 0; k < n_; ++k) {
        const std::size_t i = (start + k) % n_;
        Event* ev = events_[i];
        NubGuard g(ev->nub_lock_);
        if (ev->set_.load(std::memory_order_relaxed) != 0) {
          // The granted member is the ∃-witness; its lock alone guards
          // everything this action touches.
          const bool consumed = ev->reset_ == EventReset::kAuto;
          if (consumed) {
            ev->set_.store(0, std::memory_order_relaxed);
          }
          nub.EmitTraced(spec::MakePollAny(self->id, ws, ev->id(), consumed));
          NoteGranted(i);
          ready = true;
          index = i;
          break;
        }
        ev->RegisterPollerLocked(&nodes[i]);
      }
    }
    if (ready) {
      out = {WaitResult::kSatisfied, index};
      break;
    }
    if (parked) {
      obs::Inc(obs::Counter::kPollSpuriousScans);
    }
    if (expired || DeadlinePassed(deadline_ns)) {
      // WaitFor/TIMEOUT: a no-op on the wait set, one atomic action under
      // the record lock (it touches no object state).
      SpinGuard tg(self->lock);
      nub.EmitTraced(spec::MakePollTimeout(self->id, ws));
      out = {WaitResult::kTimeout, n_};
      break;
    }
    if (alert_pending) {
      // WaitAny/RAISES: leaves the alerts set, touches no member.
      SpinGuard tg(self->lock);
      self->alerted.store(false, std::memory_order_relaxed);
      nub.EmitTraced(spec::MakePollAlertRaises(self->id, ws));
      out = {WaitResult::kAlerted, n_};
      break;
    }
    parked = false;
    {
      SpinGuard tg(self->lock);
      if (alertable && self->alerted.load(std::memory_order_relaxed)) {
        alert_pending = true;
      } else if (self->poll_latch.load(std::memory_order_seq_cst) == 0) {
        SetBlockedLocked(self,
                         all ? ThreadRecord::BlockKind::kPollAll
                             : ThreadRecord::BlockKind::kPollAny,
                         &self->poll_latch,
                         all ? first_unset : events_[0]->id(),
                         /*obj_lock=*/nullptr, alertable);
        parked = true;
      }
    }
    TAOS_CHAOS(kPollScanToPark);
    if (parked) {
      expired = ParkBlockedUntil(self, deadline_ns, kEventWait);
      if (alertable && !expired) {
        SpinGuard tg(self->lock);
        if (self->alert_woken || self->alerted.load(std::memory_order_relaxed)) {
          alert_pending = true;
        }
        self->alert_woken = false;
      }
    }
  }
  DeregisterAll(nodes);
  return out;
}

std::size_t Poll::WaitAny() {
  Outcome out{WaitResult::kSatisfied, 0};
  obs::WithEvent(obs::Op::kPoll, n_ > 0 ? events_[0]->id() : 0, [&] {
    out = WaitInternal(/*all=*/false, /*alertable=*/false, kNoDeadline);
  });
  return out.index;
}

Poll::AnyResult Poll::WaitAnyFor(std::chrono::nanoseconds timeout) {
  Outcome out{WaitResult::kSatisfied, 0};
  obs::WithEvent(obs::Op::kPoll, n_ > 0 ? events_[0]->id() : 0, [&] {
    const std::uint64_t deadline =
        timeout.count() > 0 ? DeadlineAfter(timeout) : 0;
    out = WaitInternal(/*all=*/false, /*alertable=*/false, deadline);
  });
  obs::Inc(out.result == WaitResult::kSatisfied
               ? obs::Counter::kTimedWaitSatisfied
               : obs::Counter::kTimedWaitTimeouts);
  return {out.index, out.result};
}

std::size_t Poll::AlertWaitAny() {
  Outcome out{WaitResult::kSatisfied, 0};
  obs::WithEvent(obs::Op::kPoll, n_ > 0 ? events_[0]->id() : 0, [&] {
    out = WaitInternal(/*all=*/false, /*alertable=*/true, kNoDeadline);
  });
  if (out.result == WaitResult::kAlerted) {
    throw Alerted();
  }
  return out.index;
}

Poll::AnyResult Poll::AlertWaitAnyFor(std::chrono::nanoseconds timeout) {
  Outcome out{WaitResult::kSatisfied, 0};
  obs::WithEvent(obs::Op::kPoll, n_ > 0 ? events_[0]->id() : 0, [&] {
    const std::uint64_t deadline =
        timeout.count() > 0 ? DeadlineAfter(timeout) : 0;
    out = WaitInternal(/*all=*/false, /*alertable=*/true, deadline);
  });
  switch (out.result) {
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
  return {out.index, out.result};
}

void Poll::WaitAll() {
  obs::WithEvent(obs::Op::kPoll, n_ > 0 ? events_[0]->id() : 0, [&] {
    WaitInternal(/*all=*/true, /*alertable=*/false, kNoDeadline);
  });
}

WaitResult Poll::WaitAllFor(std::chrono::nanoseconds timeout) {
  Outcome out{WaitResult::kSatisfied, 0};
  obs::WithEvent(obs::Op::kPoll, n_ > 0 ? events_[0]->id() : 0, [&] {
    const std::uint64_t deadline =
        timeout.count() > 0 ? DeadlineAfter(timeout) : 0;
    out = WaitInternal(/*all=*/true, /*alertable=*/false, deadline);
  });
  obs::Inc(out.result == WaitResult::kSatisfied
               ? obs::Counter::kTimedWaitSatisfied
               : obs::Counter::kTimedWaitTimeouts);
  return out.result;
}

void Poll::AlertWaitAll() {
  Outcome out{WaitResult::kSatisfied, 0};
  obs::WithEvent(obs::Op::kPoll, n_ > 0 ? events_[0]->id() : 0, [&] {
    out = WaitInternal(/*all=*/true, /*alertable=*/true, kNoDeadline);
  });
  if (out.result == WaitResult::kAlerted) {
    throw Alerted();
  }
}

WaitResult Poll::AlertWaitAllFor(std::chrono::nanoseconds timeout) {
  Outcome out{WaitResult::kSatisfied, 0};
  obs::WithEvent(obs::Op::kPoll, n_ > 0 ? events_[0]->id() : 0, [&] {
    const std::uint64_t deadline =
        timeout.count() > 0 ? DeadlineAfter(timeout) : 0;
    out = WaitInternal(/*all=*/true, /*alertable=*/true, deadline);
  });
  switch (out.result) {
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
  return out.result;
}

}  // namespace taos
