// Direct-handoff mutex: the ablation of the Taos mutex's barging design.
//
// The paper's Nub Acquire re-tests the lock bit after enqueueing and
// "the entire Acquire operation (beginning at the test-and-set) is
// retried" after a wakeup — so a released mutex can be barged by any
// passing thread, and the spec deliberately does not say which blocked
// thread acquires next. This variant instead *transfers* ownership to the
// oldest queued waiter inside Release (the lock bit never clears while the
// queue is non-empty): strict FIFO among waiters, no retry loop, but every
// contended release forces a full park/unpark round trip even when the
// waker would immediately reacquire — the classic convoy cost the barging
// design avoids. bench_contention compares the two.

#ifndef TAOS_SRC_BASELINE_HANDOFF_MUTEX_H_
#define TAOS_SRC_BASELINE_HANDOFF_MUTEX_H_

#include <atomic>

#include "src/base/check.h"
#include "src/base/intrusive_queue.h"
#include "src/base/spinlock.h"
#include "src/threads/nub.h"
#include "src/threads/thread_record.h"

namespace taos::baseline {

class HandoffMutex {
 public:
  HandoffMutex() = default;
  ~HandoffMutex() { TAOS_CHECK(queue_.Empty()); }
  HandoffMutex(const HandoffMutex&) = delete;
  HandoffMutex& operator=(const HandoffMutex&) = delete;

  void Acquire() {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    // Same user-code fast path as the Taos mutex.
    if (bit_.exchange(1, std::memory_order_acquire) == 0) {
      holder_.store(self->id, std::memory_order_relaxed);
      return;
    }
    bool parked = false;
    {
      NubGuard g(nub_lock_);
      std::uint32_t expected = 0;
      if (!bit_.compare_exchange_strong(expected, 1,
                                        std::memory_order_acquire)) {
        queue_.PushBack(self);
        MarkBlocked(self, ThreadRecord::BlockKind::kMutex, this, /*obj_id=*/0, &nub_lock_,
                    /*alertable=*/false);
        parked = true;
      }
    }
    if (parked) {
      self->park.Park();
      // Ownership was handed to us inside Release: the bit never cleared.
    }
    holder_.store(self->id, std::memory_order_relaxed);
  }

  void Release() {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    TAOS_CHECK(holder_.load(std::memory_order_relaxed) == self->id);
    holder_.store(spec::kNil, std::memory_order_relaxed);
    ThreadRecord* next = nullptr;
    {
      NubGuard g(nub_lock_);
      next = queue_.PopFront();
      if (next != nullptr) {
        MarkUnblocked(next);
        // The bit stays 1: ownership transfers; no thread can barge in.
      } else {
        bit_.store(0, std::memory_order_release);
      }
    }
    if (next != nullptr) {
      next->park.Unpark();
    }
  }

  spec::ThreadId HolderForDebug() const {
    return holder_.load(std::memory_order_relaxed);
  }

  std::size_t WaitersForDebug() {
    NubGuard g(nub_lock_);
    return queue_.Size();
  }

 private:
  std::atomic<std::uint32_t> bit_{0};
  ObjLock nub_lock_;                    // guards queue_
  IntrusiveQueue<ThreadRecord> queue_;
  std::atomic<spec::ThreadId> holder_{spec::kNil};
};

}  // namespace taos::baseline

#endif  // TAOS_SRC_BASELINE_HANDOFF_MUTEX_H_
