#include "src/threads/mutex.h"

#include "src/base/chaos.h"
#include "src/base/check.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/spec/action.h"
#include "src/threads/lock_spin.h"
#include "src/threads/nub.h"
#include "src/threads/timer.h"

namespace taos {

Mutex::Mutex() : id_(Nub::Get().NextObjId()) {}

Mutex::~Mutex() {
  TAOS_CHECK(queue_.Empty());
  TAOS_CHECK(bit_.load(std::memory_order_relaxed) == 0);
}

void Mutex::AcquireSlow() {
  obs::WithEvent(obs::Op::kAcquire, id_, [&] {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubAcquire);
      TracedAcquireFor(self, kNoDeadline, spec::MakeAcquire(self->id, id_));
      return;
    }
    // The user-code test-and-set again (the in-line one may not have run):
    // the Nub is entered only if it fails.
    if (bit_.exchange(1, std::memory_order_acquire) == 0) {
      obs::Inc(obs::Counter::kFastMutexAcquire);
    } else {
      NubAcquireFor(self, kNoDeadline);
    }
    NoteAcquired(self);
  });
}

bool Mutex::TryAcquireSlow() {
  Nub& nub = Nub::Get();
  ThreadRecord* self = nub.Current();
  if (nub.tracing()) {
    NubGuard g(nub_lock_);
    if (bit_.load(std::memory_order_relaxed) != 0) {
      return false;
    }
    bit_.store(1, std::memory_order_relaxed);
    NoteAcquired(self);
    nub.EmitTraced(spec::MakeAcquire(self->id, id_));
    return true;
  }
  if (bit_.exchange(1, std::memory_order_acquire) != 0) {
    return false;
  }
  obs::Inc(obs::Counter::kFastMutexAcquire);
  NoteAcquired(self);
  return true;
}

WaitResult Mutex::AcquireFor(std::chrono::nanoseconds timeout) {
  WaitResult result = WaitResult::kSatisfied;
  obs::WithEvent(obs::Op::kAcquire, id_, [&] {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubAcquire);
      // deadline 0 is always in the past, so a nonpositive timeout becomes
      // one locked attempt followed by the timeout action.
      const std::uint64_t deadline =
          timeout.count() > 0 ? DeadlineAfter(timeout) : 0;
      result = TracedAcquireFor(self, deadline,
                                spec::MakeAcquire(self->id, id_))
                   ? WaitResult::kSatisfied
                   : WaitResult::kTimeout;
    } else if (bit_.exchange(1, std::memory_order_acquire) == 0) {
      // Same user-code fast path as Acquire — tried even with an expired
      // deadline, so AcquireFor(0) is TryAcquire with a WaitResult.
      obs::Inc(obs::Counter::kFastMutexAcquire);
      NoteAcquired(self);
    } else if (timeout.count() <= 0) {
      result = WaitResult::kTimeout;
    } else if (NubAcquireFor(self, DeadlineAfter(timeout))) {
      NoteAcquired(self);
    } else {
      result = WaitResult::kTimeout;
    }
  });
  obs::Inc(result == WaitResult::kSatisfied
               ? obs::Counter::kTimedWaitSatisfied
               : obs::Counter::kTimedWaitTimeouts);
  return result;
}

bool Mutex::NubAcquireFor(ThreadRecord* self, std::uint64_t deadline_ns) {
  obs::Inc(obs::Counter::kNubAcquire);
  // At most one waiter spins on the bit before queueing (lock_spin.h).
  if (SpinForLockBit(bit_, spinner_, deadline_ns)) {
    return true;
  }
  if (DeadlinePassed(deadline_ns)) {
    // The deadline fell inside the spin: time out without queueing.
    return false;
  }
  for (;;) {
    bool parked = false;
    {
      NubGuard g(nub_lock_);
      // Add the calling thread to the Queue, then test the Lock-bit again.
      queue_.PushBack(self);
      queue_len_.fetch_add(1, std::memory_order_seq_cst);
      TAOS_CHAOS(kMutexEnqueuedToTest);
      if (bit_.load(std::memory_order_seq_cst) != 0) {
        // Still held: de-schedule this thread. It stays queued until Release
        // makes it ready (or, on expiry, it dequeues itself).
        SpinGuard tg(self->lock);
        SetBlockedLocked(self, ThreadRecord::BlockKind::kMutex, this, id_,
                         &nub_lock_, /*alertable=*/false);
        parked = true;
      } else {
        // Released in the meantime: back out and retry the whole Acquire.
        TAOS_CHAOS(kMutexBackout);
        queue_.Remove(self);
        queue_len_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    bool expired = false;
    if (parked) {
      expired = ParkBlockedUntil(self, deadline_ns, kLockWait);
      if (deadline_ns != kNoDeadline) {
        TAOS_CHAOS(kMutexTimedFinish);
      }
    }
    TAOS_CHAOS(kMutexWakeToRetry);
    // Retry the entire Acquire operation, beginning at the test-and-set.
    // Another thread may barge in and win; the spec does not say which
    // blocked thread acquires next. The exchange comes before the deadline
    // test: a wake delivered because the mutex was released is never thrown
    // away on a co-incident expiry.
    if (bit_.exchange(1, std::memory_order_acquire) == 0) {
      return true;
    }
    obs::Inc(obs::Counter::kLockBitRetries);
    if (parked) {
      // Unparked, but a barging thread won the retried test-and-set.
      obs::Inc(obs::Counter::kSpuriousWakeups);
    }
    if (expired || DeadlinePassed(deadline_ns)) {
      // Timed out (or unparked by a grant, barged, and found the deadline
      // gone). Whoever dequeued this record — itself or a releaser —
      // already removed it from the queue; there is nothing to back out.
      return false;
    }
  }
}

void Mutex::ReleaseSlow() {
  obs::WithEvent(obs::Op::kRelease, id_, [&] {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    if (nub.tracing()) {
      // TracedReleaseLocked checks REQUIRES m = SELF.
      obs::Inc(obs::Counter::kNubRelease);
      TracedRelease(self);
      return;
    }
    if (obs::diag::Enabled()) [[unlikely]] {
      obs::diag::ClearOwner(id_);
    }
    ClearBit(self);
  });
}

void Mutex::NubRelease() {
  obs::Inc(obs::Counter::kNubRelease);
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
    // Add it to the ready pool: here, hand its processor back by unparking.
    obs::Inc(obs::Counter::kHandoffs);
    wake->park.Unpark();
  }
}

bool Mutex::TracedAcquireFor(ThreadRecord* self, std::uint64_t deadline_ns,
                             const spec::Action& emit, ObjLock* co_lock,
                             const std::function<void()>& at_success) {
  Nub& nub = Nub::Get();
  for (;;) {
    {
      NubGuard2 g(nub_lock_, co_lock);
      // The acquire test comes before the deadline test, so a grant always
      // beats a co-incident expiry.
      if (bit_.load(std::memory_order_relaxed) == 0) {
        bit_.store(1, std::memory_order_relaxed);
        NoteAcquired(self);
        // Self's record lock serializes the emitted action against Alert's
        // (at_success may read and clear the alert flag).
        SpinGuard tg(self->lock);
        if (at_success) {
          at_success();
        }
        nub.EmitTraced(emit);
        return true;
      }
      if (DeadlinePassed(deadline_ns)) {
        // Deadline passed with the mutex still held: the spec's
        // AcquireFor/TIMEOUT action, a no-op on m, emitted as one atomic
        // action under the object lock. A self-dequeue on expiry implies
        // the deadline is behind us, so this check subsumes it.
        SpinGuard tg(self->lock);
        nub.EmitTraced(spec::MakeAcquireTimeout(self->id, id_));
        return false;
      }
      queue_.PushBack(self);
      queue_len_.fetch_add(1, std::memory_order_relaxed);
      SpinGuard tg(self->lock);
      SetBlockedLocked(self, ThreadRecord::BlockKind::kMutex, this, id_,
                       &nub_lock_, /*alertable=*/false);
    }
    // The loop-top deadline check decides.
    ParkBlockedUntil(self, deadline_ns, kLockWait);
  }
}

void Mutex::TracedRelease(ThreadRecord* self) {
  ThreadRecord* wake = nullptr;
  {
    NubGuard g(nub_lock_);
    wake = TracedReleaseLocked(self, /*emit_release=*/true);
  }
  if (wake != nullptr) {
    obs::Inc(obs::Counter::kHandoffs);
    wake->park.Unpark();
  }
}

ThreadRecord* Mutex::TracedReleaseLocked(ThreadRecord* self,
                                         bool emit_release) {
  Nub& nub = Nub::Get();
  TAOS_CHECK(holder_.load(std::memory_order_relaxed) == self->id);
  holder_.store(spec::kNil, std::memory_order_relaxed);
  if (obs::diag::Enabled()) [[unlikely]] {
    obs::diag::ClearOwner(id_);
  }
  bit_.store(0, std::memory_order_relaxed);
  if (emit_release) {
    nub.EmitTraced(spec::MakeRelease(self->id, id_));
  }
  ThreadRecord* wake = queue_.PopFront();
  if (wake != nullptr) {
    queue_len_.fetch_sub(1, std::memory_order_relaxed);
    MarkUnblocked(wake);
  }
  return wake;
}

}  // namespace taos
