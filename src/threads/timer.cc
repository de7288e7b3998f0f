#include "src/threads/timer.h"

#include "src/base/check.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/threads/condition.h"
#include "src/threads/event.h"
#include "src/threads/lock_core.h"
#include "src/threads/nub.h"
#include "src/threads/rwmutex.h"

namespace taos {

void DequeueBlockedLocked(ThreadRecord* t, bool alerted) {
  switch (t->block_kind) {
    case ThreadRecord::BlockKind::kMutex:
    case ThreadRecord::BlockKind::kSemaphore:
      static_cast<LockCore*>(t->blocked_obj)->DequeueLocked(t);
      break;
    case ThreadRecord::BlockKind::kCondition:
      static_cast<Condition*>(t->blocked_obj)->DequeueLocked(t, alerted);
      break;
    case ThreadRecord::BlockKind::kRwShared: {
      auto* rw = static_cast<ReaderWriterMutex*>(t->blocked_obj);
      rw->readers_queue_.Remove(t);
      rw->reader_q_len_.fetch_sub(1, std::memory_order_relaxed);
      break;
    }
    case ThreadRecord::BlockKind::kRwExclusive: {
      auto* rw = static_cast<ReaderWriterMutex*>(t->blocked_obj);
      rw->writers_queue_.Remove(t);
      rw->writer_q_len_.fetch_sub(1, std::memory_order_relaxed);
      break;
    }
    case ThreadRecord::BlockKind::kEvent: {
      auto* ev = static_cast<Event*>(t->blocked_obj);
      ev->queue_.Remove(t);
      ev->queue_len_.fetch_sub(1, std::memory_order_relaxed);
      break;
    }
    case ThreadRecord::BlockKind::kPollAny:
    case ThreadRecord::BlockKind::kPollAll:
      // Registered on the members, not queued on one: clearing the
      // blocked state below is the whole cancellation.
    case ThreadRecord::BlockKind::kNone:
      break;
  }
  ClearBlockedLocked(t);
}

bool ParkBlockedUntil(ThreadRecord* t, std::uint64_t deadline_ns,
                      waitq::Parker::Spin spin) {
  if (deadline_ns == kNoDeadline) {
    ParkBlocked(t, spin);
    return false;
  }
  obs::Inc(obs::Counter::kTimersArmed);
  if (ParkBlocked(t, spin, deadline_ns)) {
    obs::Inc(obs::Counter::kTimersCancelled);
    return false;
  }
  const std::uint64_t now = obs::NowNanos();
  obs::Record(obs::Histogram::kTimerExpiryLagNanos,
              now >= deadline_ns ? now - deadline_ns : 0);
  obs::ScopedEvent expiry(obs::Op::kTimerExpire, t->id);

  // The lock of the object t blocked on, read under the record lock since a
  // dequeuer clears it. It stays valid after: t is inside its own blocking
  // call on the object. Null for a Poll waiter, whose blocked state the
  // record lock alone covers (the notify-latch protocol, poll.cc), and for
  // a waiter some dequeuer already cleared.
  ObjLock* blocked_lock;
  {
    SpinGuard g(t->lock);
    blocked_lock = t->blocked_lock;
  }
  SpinLock* obj_lock =
      blocked_lock != nullptr ? blocked_lock->Resolve() : nullptr;
  if (obj_lock != nullptr) {
    obj_lock->Acquire();
  }
  t->lock.Acquire();
  const bool expired = t->block_kind != ThreadRecord::BlockKind::kNone;
  if (expired) {
    DequeueBlockedLocked(t, /*alerted=*/false);
  }
  t->lock.Release();
  if (obj_lock != nullptr) {
    obj_lock->Release();
  }
  if (!expired) {
    // A grant or Alert dequeued t first and deposits its permit after
    // dropping these locks: consume it here, so it cannot end a later park
    // while t sits on some queue again.
    obs::Inc(obs::Counter::kTimersCancelled);
    t->park.Park();
    return false;
  }
  obs::Inc(obs::Counter::kTimersExpired);
  return true;
}

}  // namespace taos
