#include "src/threads/lock_core.h"

#include "src/base/chaos.h"
#include "src/base/check.h"
#include "src/obs/metrics.h"
#include "src/threads/lock_spin.h"
#include "src/threads/nub.h"
#include "src/threads/timer.h"

namespace taos {

namespace {

// Consumes self's alert on the way out of an alertable wait. Caller holds
// self's record lock.
void ConsumeAlertLocked(ThreadRecord* self) {
  self->alerted.store(false, std::memory_order_relaxed);
  self->alert_woken = false;
}

// True iff an Alert dequeued `self` from the episode it just parked on. It
// then consumes the alert and, for a traced wait, emits `raises` under the
// same record-lock hold: the Alert already emitted its own action, and the
// raise touches only the alert flag.
bool AlertEndedPark(ThreadRecord* self, const spec::Action* raises) {
  SpinGuard sg(self->lock);
  if (!self->alert_woken) {
    return false;
  }
  ConsumeAlertLocked(self);
  if (raises != nullptr) {
    Nub::Get().EmitTraced(*raises);
  }
  return true;
}

}  // namespace

LockCore::~LockCore() {
  TAOS_CHECK(queue_.Empty());
}

WaitResult LockCore::AcquireFor(ThreadRecord* self, std::uint64_t deadline_ns,
                                ThreadRecord::BlockKind kind,
                                bool alertable) {
  // At most one waiter spins on the bit before queueing (lock_spin.h).
  if (!alertable && SpinForLock(&spinner_, deadline_ns, [this] {
        return bit_.load(std::memory_order_relaxed) == 0 && TestAndSet();
      })) {
    return WaitResult::kSatisfied;
  }
  if (DeadlinePassed(deadline_ns)) {
    // The deadline fell inside the spin: time out without queueing.
    return WaitResult::kTimeout;
  }
  for (;;) {
    bool parked = false;
    {
      NubGuard g(lock_);
      SpinGuard tg(self->lock);
      if (alertable) {
        TAOS_CHAOS(kAlertWaitWindow);
        if (self->alerted.load(std::memory_order_relaxed)) {
          ConsumeAlertLocked(self);
          return WaitResult::kAlerted;
        }
      }
      // Add the calling thread to the Queue, then test the Lock-bit again.
      queue_.PushBack(self);
      queue_len_.fetch_add(1, std::memory_order_seq_cst);
      TAOS_CHAOS(kLockEnqueuedToTest);
      if (bit_.load(std::memory_order_seq_cst) != 0) {
        // Still taken: de-schedule this thread. It stays queued until a
        // release makes it ready (or expiry or an Alert dequeues it).
        SetBlockedLocked(self, kind, this, id_, &lock_, alertable);
        parked = true;
      } else {
        // Freed in the meantime: back out and retry the whole acquire.
        TAOS_CHAOS(kLockBackout);
        DequeueLocked(self);
      }
    }
    bool expired = false;
    if (parked) {
      expired = ParkBlockedUntil(self, deadline_ns, kLockWait);
      if (alertable && AlertEndedPark(self, nullptr)) {
        return WaitResult::kAlerted;
      }
      if (deadline_ns != kNoDeadline) {
        TAOS_CHAOS(kLockTimedFinish);
      }
    }
    TAOS_CHAOS(kLockWakeToRetry);
    // Retry the entire acquire, beginning at the test-and-set. Another
    // thread may barge in and win. The exchange comes before the deadline
    // test: a wake delivered because the bit was cleared is never thrown
    // away on a co-incident expiry.
    if (bit_.exchange(1, std::memory_order_acquire) == 0) {
      return WaitResult::kSatisfied;
    }
    obs::Inc(obs::Counter::kLockBitRetries);
    if (parked) {
      // Unparked, but a barging thread won the retried test-and-set.
      obs::Inc(obs::Counter::kSpuriousWakeups);
    }
    if (expired || DeadlinePassed(deadline_ns)) {
      // Timed out (or unparked by a grant, barged, and found the deadline
      // gone). Whoever dequeued this record — itself or a releaser —
      // already removed it from the Queue; there is nothing to back out.
      return WaitResult::kTimeout;
    }
  }
}

void LockCore::ReleaseSlow() {
  ThreadRecord* wake = nullptr;
  {
    NubGuard g(lock_);
    wake = queue_.PopFront();
    if (wake != nullptr) {
      queue_len_.fetch_sub(1, std::memory_order_relaxed);
      MarkUnblocked(wake);
    }
  }
  // Add it to the ready pool: here, hand its processor back by unparking.
  Wake(wake);
}

void LockCore::Wake(ThreadRecord* t) {
  if (t != nullptr) {
    obs::Inc(obs::Counter::kHandoffs);
    t->park.Unpark();
  }
}

WaitResult LockCore::TracedAcquireFor(ThreadRecord* self,
                                      std::uint64_t deadline_ns,
                                      ThreadRecord::BlockKind kind,
                                      bool alertable,
                                      const LockActions& actions,
                                      ObjLock* co_lock,
                                      const std::function<void()>& at_success) {
  Nub& nub = Nub::Get();
  for (;;) {
    {
      NubGuard2 g(lock_, co_lock);
      // Self's record lock serializes the emitted action against Alert's
      // (the raise and at_success may read and clear the alert flag).
      SpinGuard tg(self->lock);
      // An alertable wait prefers the RAISES outcome when both WHEN clauses
      // hold, which the spec allows.
      if (alertable && self->alerted.load(std::memory_order_relaxed)) {
        ConsumeAlertLocked(self);
        nub.EmitTraced(actions.raises);
        return WaitResult::kAlerted;
      }
      if (bit_.load(std::memory_order_relaxed) == 0) {
        bit_.store(1, std::memory_order_relaxed);
        if (at_success) {
          at_success();
        }
        nub.EmitTraced(actions.acquired);
        return WaitResult::kSatisfied;
      }
      if (DeadlinePassed(deadline_ns)) {
        // The deadline passed with the bit still taken: the timeout
        // action, a no-op on the lock, emitted as one atomic action under
        // the object lock. A self-dequeue on expiry implies the deadline is
        // behind us, so this check subsumes it.
        nub.EmitTraced(actions.timeout);
        return WaitResult::kTimeout;
      }
      queue_.PushBack(self);
      queue_len_.fetch_add(1, std::memory_order_relaxed);
      SetBlockedLocked(self, kind, this, id_, &lock_, alertable);
    }
    // The loop-top tests decide, unless an Alert dequeued self.
    ParkBlockedUntil(self, deadline_ns, kLockWait);
    if (alertable && AlertEndedPark(self, &actions.raises)) {
      return WaitResult::kAlerted;
    }
  }
}

bool LockCore::TracedTryAcquire(const spec::Action& acquired) {
  NubGuard g(lock_);
  if (bit_.load(std::memory_order_relaxed) != 0) {
    return false;
  }
  bit_.store(1, std::memory_order_relaxed);
  Nub::Get().EmitTraced(acquired);
  return true;
}

void LockCore::TracedRelease(const spec::Action& emit) {
  ThreadRecord* wake = nullptr;
  {
    NubGuard g(lock_);
    wake = TracedReleaseLocked(&emit);
  }
  Wake(wake);
}

ThreadRecord* LockCore::TracedReleaseLocked(const spec::Action* emit) {
  bit_.store(0, std::memory_order_relaxed);
  if (emit != nullptr) {
    Nub::Get().EmitTraced(*emit);
  }
  ThreadRecord* wake = queue_.PopFront();
  if (wake != nullptr) {
    queue_len_.fetch_sub(1, std::memory_order_relaxed);
    MarkUnblocked(wake);
  }
  return wake;
}

}  // namespace taos
