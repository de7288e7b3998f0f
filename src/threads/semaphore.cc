#include "src/threads/semaphore.h"

#include "src/base/chaos.h"
#include "src/base/check.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/spec/action.h"
#include "src/threads/lock_spin.h"
#include "src/threads/nub.h"
#include "src/threads/timer.h"

namespace taos {

Semaphore::Semaphore() : id_(Nub::Get().NextObjId()) {}

Semaphore::~Semaphore() {
  TAOS_CHECK(queue_.Empty());
}

void Semaphore::PSlow() {
  obs::WithEvent(obs::Op::kP, id_, [&] {
    Nub& nub = Nub::Get();
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubP);
      TracedPFor(nub.Current(), kNoDeadline);
      return;
    }
    if (!TestAndSet()) {
      NubPFor(nub.Current(), kNoDeadline);
    }
  });
}

bool Semaphore::TryPSlow() {
  Nub& nub = Nub::Get();
  if (nub.tracing()) {
    ThreadRecord* self = nub.Current();
    NubGuard g(nub_lock_);
    if (bit_.load(std::memory_order_relaxed) != 0) {
      return false;
    }
    bit_.store(1, std::memory_order_relaxed);
    nub.EmitTraced(spec::MakeP(self->id, id_));
    return true;
  }
  return TestAndSet();
}

WaitResult Semaphore::PFor(std::chrono::nanoseconds timeout) {
  WaitResult result = WaitResult::kSatisfied;
  obs::WithEvent(obs::Op::kP, id_, [&] {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubP);
      const std::uint64_t deadline =
          timeout.count() > 0 ? DeadlineAfter(timeout) : 0;
      result = TracedPFor(self, deadline) ? WaitResult::kSatisfied
                                          : WaitResult::kTimeout;
    } else if (TestAndSet()) {
      // Fast path tried even with an expired deadline: PFor(0) is TryP with
      // a WaitResult.
    } else if (timeout.count() <= 0) {
      result = WaitResult::kTimeout;
    } else if (!NubPFor(self, DeadlineAfter(timeout))) {
      result = WaitResult::kTimeout;
    }
  });
  obs::Inc(result == WaitResult::kSatisfied
               ? obs::Counter::kTimedWaitSatisfied
               : obs::Counter::kTimedWaitTimeouts);
  return result;
}

bool Semaphore::NubPFor(ThreadRecord* self, std::uint64_t deadline_ns) {
  obs::Inc(obs::Counter::kNubP);
  if (SpinForLockBit(bit_, spinner_, deadline_ns)) {
    return true;
  }
  if (DeadlinePassed(deadline_ns)) {
    return false;
  }
  for (;;) {
    bool parked = false;
    {
      NubGuard g(nub_lock_);
      queue_.PushBack(self);
      queue_len_.fetch_add(1, std::memory_order_seq_cst);
      TAOS_CHAOS(kSemEnqueuedToTest);
      if (bit_.load(std::memory_order_seq_cst) != 0) {
        SpinGuard tg(self->lock);
        SetBlockedLocked(self, ThreadRecord::BlockKind::kSemaphore, this, id_,
                         &nub_lock_, /*alertable=*/false);
        parked = true;
      } else {
        TAOS_CHAOS(kSemBackout);
        queue_.Remove(self);
        queue_len_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    bool expired = false;
    if (parked) {
      expired = ParkBlockedUntil(self, deadline_ns, kLockWait);
      if (deadline_ns != kNoDeadline) {
        TAOS_CHAOS(kSemTimedFinish);
      }
    }
    TAOS_CHAOS(kSemWakeToRetry);
    // Exchange FIRST, deadline second: a V's grant is never converted into
    // a timeout by a co-incident expiry.
    if (bit_.exchange(1, std::memory_order_acquire) == 0) {
      return true;
    }
    obs::Inc(obs::Counter::kLockBitRetries);
    if (parked) {
      obs::Inc(obs::Counter::kSpuriousWakeups);
    }
    if (expired || DeadlinePassed(deadline_ns)) {
      return false;
    }
  }
}

void Semaphore::VSlow() {
  obs::WithEvent(obs::Op::kV, id_, [&] {
    Nub& nub = Nub::Get();
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubV);
      TracedV(nub.Current());
      return;
    }
    ClearBit();
  });
}

void Semaphore::NubV() {
  obs::Inc(obs::Counter::kNubV);
  ThreadRecord* wake = nullptr;
  {
    NubGuard g(nub_lock_);
    wake = queue_.PopFront();
    if (wake != nullptr) {
      queue_len_.fetch_sub(1, std::memory_order_relaxed);
      MarkUnblocked(wake);
    }
  }
  if (wake != nullptr) {
    obs::Inc(obs::Counter::kHandoffs);
    wake->park.Unpark();
  }
}

bool Semaphore::TracedPFor(ThreadRecord* self, std::uint64_t deadline_ns) {
  Nub& nub = Nub::Get();
  for (;;) {
    {
      NubGuard g(nub_lock_);
      // Take-test before deadline-test: a grant beats a co-incident expiry.
      if (bit_.load(std::memory_order_relaxed) == 0) {
        bit_.store(1, std::memory_order_relaxed);
        SpinGuard tg(self->lock);
        nub.EmitTraced(spec::MakeP(self->id, id_));
        return true;
      }
      if (DeadlinePassed(deadline_ns)) {
        // PFor/TIMEOUT: a no-op on s, one atomic action under the object
        // lock. Subsumes a self-dequeue on expiry, which implies the
        // deadline is behind us.
        SpinGuard tg(self->lock);
        nub.EmitTraced(spec::MakePTimeout(self->id, id_));
        return false;
      }
      queue_.PushBack(self);
      queue_len_.fetch_add(1, std::memory_order_relaxed);
      SpinGuard tg(self->lock);
      SetBlockedLocked(self, ThreadRecord::BlockKind::kSemaphore, this, id_,
                       &nub_lock_, /*alertable=*/false);
    }
    // The loop-top deadline check decides.
    ParkBlockedUntil(self, deadline_ns, kLockWait);
  }
}

void Semaphore::TracedV(ThreadRecord* self) {
  Nub& nub = Nub::Get();
  ThreadRecord* wake = nullptr;
  {
    NubGuard g(nub_lock_);
    bit_.store(0, std::memory_order_relaxed);
    nub.EmitTraced(spec::MakeV(self->id, id_));
    wake = queue_.PopFront();
    if (wake != nullptr) {
      queue_len_.fetch_sub(1, std::memory_order_relaxed);
      MarkUnblocked(wake);
    }
  }
  if (wake != nullptr) {
    obs::Inc(obs::Counter::kHandoffs);
    wake->park.Unpark();
  }
}

}  // namespace taos
