// Bounded MPMC message queue built from the paper's primitives plus the
// multi-object wait subsystem: a Mutex guards a ring buffer, and two
// manual-reset Events publish the queue's *level-triggered* readiness so
// receivers (and senders) can fold the queue into a Poll wait set:
//
//   receiver:  Poll p; p.Add(q.readable()); p.Add(shutdown);
//              switch (p.WaitAny()) { case 0: q.TryRecv(&m); ... }
//
// Invariants, maintained under mu_ at every edge:
//
//   readable().IsSet()  ⇔  !empty ∨ closed
//   writable().IsSet()  ⇔  !full  ∨ closed
//
// The events are manual-reset and Mesa-style: a wakeup (or a Poll grant) on
// readable() is a *hint*, not a handoff — another consumer may drain the
// item first, so every waiter re-tries under the mutex (TryRecv returning
// kWouldBlock) and re-waits. This is the same barging discipline as
// Mutex/Condition, and it is what makes the composition safe: the events
// carry no ownership, only level state.
//
// Close() is sticky: it sets both events permanently (closed counts as
// "ready" so blocked parties wake and observe the closure). Send fails on
// a closed queue; Recv drains remaining items first and fails only on
// closed-and-empty.
//
// Edge-only sets, woken after the unlock. The queue sets readable() only
// on the empty -> non-empty edge and writable() only on the full ->
// not-full edge (and Close on whichever of the two is unset); a Send into
// a non-empty queue or a TryRecv from a non-full one issues no Set. Each
// edge Set is split across mu_ (event.h): the flag store and the Dekker
// load run under mu_, so the invariants above hold at every mu_ boundary,
// and the wakeups run after mu_ is released, so a woken receiver does not
// find mu_ still held by its waker. Resets stay under mu_. A Reset that
// lands between the two halves only makes the wake spurious (the woken
// poller re-scans and parks again); no wake is lost, because every edge
// owes its own wake, computed after that edge's flag store.
//
// REQUIRES callers never Set or Reset readable()/writable() themselves:
// the queue owns both, and edge-only sets rely on it (a stray Reset of a
// non-empty queue's readable() would never be undone by a later Send).
// Lifetime: the wake half of a Send/TryRecv/Close touches the Events after
// mu_ is released, so the queue must outlive every call into it, not just
// the critical sections (the contract of Mutex::Release, which reads its
// queue length after clearing the Lock-bit).

#ifndef TAOS_SRC_THREADS_MESSAGE_QUEUE_H_
#define TAOS_SRC_THREADS_MESSAGE_QUEUE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#include "src/base/chaos.h"
#include "src/base/check.h"
#include "src/obs/metrics.h"
#include "src/threads/event.h"
#include "src/threads/lock.h"
#include "src/threads/mutex.h"
#include "src/threads/timer.h"
#include "src/threads/wait_result.h"

namespace taos {

enum class QueueResult : std::uint8_t {
  kOk,
  kClosed,      // Send: queue closed; Recv: closed and drained
  kTimeout,     // *For variants only
  kWouldBlock,  // Try* variants only: full (send) / empty-but-open (recv)
};

template <typename T>
class MessageQueue {
 public:
  // REQUIRES capacity > 0.
  explicit MessageQueue(std::size_t capacity)
      : cap_(capacity),
        storage_(new unsigned char[sizeof(T) * capacity]) {
    TAOS_CHECK(capacity > 0);
    // Empty and not closed: writable, not readable.
    writable_.Set();
  }

  // REQUIRES no call into the queue still running (a returning Send may
  // still be waking) and no live poll registrations on
  // readable()/writable() (the Events' destructors check).
  ~MessageQueue() {
    {
      Lock l(mu_);
      while (size_ > 0) {
        Slot(head_)->~T();
        head_ = Next(head_);
        --size_;
      }
    }
    delete[] storage_;
  }

  MessageQueue(const MessageQueue&) = delete;
  MessageQueue& operator=(const MessageQueue&) = delete;

  // Blocks while the queue is full; kClosed if the queue is (or becomes)
  // closed before the item is accepted.
  QueueResult Send(T v) {
    for (;;) {
      QueueResult r = TrySendInternal(&v);
      if (r != QueueResult::kWouldBlock) {
        return r;
      }
      writable_.Wait();
    }
  }

  // Single attempt, never blocks.
  QueueResult TrySend(T v) { return TrySendInternal(&v); }

  // Send with a deadline on the *full* wait.
  QueueResult SendFor(T v, std::chrono::nanoseconds timeout) {
    const std::uint64_t deadline =
        timeout.count() > 0 ? DeadlineAfter(timeout) : 0;
    for (;;) {
      QueueResult r = TrySendInternal(&v);
      if (r != QueueResult::kWouldBlock) {
        return r;
      }
      if (writable_.WaitFor(RemainingUntil(deadline)) == WaitResult::kTimeout) {
        return QueueResult::kTimeout;
      }
    }
  }

  // Blocks while the queue is empty and open; kClosed only once closed AND
  // drained.
  QueueResult Recv(T* out) {
    for (;;) {
      QueueResult r = TryRecvInternal(out);
      if (r != QueueResult::kWouldBlock) {
        return r;
      }
      readable_.Wait();
    }
  }

  QueueResult TryRecv(T* out) { return TryRecvInternal(out); }

  QueueResult RecvFor(T* out, std::chrono::nanoseconds timeout) {
    const std::uint64_t deadline =
        timeout.count() > 0 ? DeadlineAfter(timeout) : 0;
    for (;;) {
      QueueResult r = TryRecvInternal(out);
      if (r != QueueResult::kWouldBlock) {
        return r;
      }
      if (readable_.WaitFor(RemainingUntil(deadline)) == WaitResult::kTimeout) {
        return QueueResult::kTimeout;
      }
    }
  }

  // Sticky: wakes every blocked sender, receiver and poller. Idempotent.
  void Close() {
    EdgeSet readable_edge;  // destroyed after l: the wakes run outside mu_
    EdgeSet writable_edge;
    Lock l(mu_);
    if (closed_) {
      return;
    }
    closed_ = true;
    TAOS_CHAOS(kMsgqHandoff);
    // closed ⇒ both ready, permanently; an event already set by its level
    // (non-empty, not full) has no edge.
    if (size_ == 0) {
      readable_edge.Publish(&readable_);
    }
    if (size_ == cap_) {
      writable_edge.Publish(&writable_);
    }
  }

  // Level-state events for Poll composition. A grant on readable() means
  // "an item is probably available": follow with TryRecv and re-wait on
  // kWouldBlock (another consumer may have drained it first). Wait on them
  // or add them to a Poll; never Set or Reset them (see the header).
  Event& readable() { return readable_; }
  Event& writable() { return writable_; }

  bool closed() const {
    Lock l(mu_);
    return closed_;
  }

  std::size_t capacity() const { return cap_; }

 private:
  // One edge Set, split across mu_: Publish runs half 1 (Event::PublishSet)
  // under mu_; the destructor runs half 2 (the wakes, if any are owed) once
  // mu_ is released. Declared before the function's Lock, so it is
  // destroyed after the unlock on every return path.
  class EdgeSet {
   public:
    EdgeSet() = default;
    EdgeSet(const EdgeSet&) = delete;
    EdgeSet& operator=(const EdgeSet&) = delete;
    ~EdgeSet() {
      if (event_ == nullptr) {
        return;
      }
      TAOS_CHAOS(kMsgqUnlockToWake);
      if (wake_) {
        event_->NubSet();
      }
    }
    // REQUIRES mu_ held.
    void Publish(Event* e) {
      event_ = e;
      wake_ = e->PublishSet();
    }

   private:
    Event* event_ = nullptr;
    bool wake_ = false;
  };

  T* Slot(std::size_t i) {
    return std::launder(reinterpret_cast<T*>(storage_ + sizeof(T) * i));
  }
  std::size_t Next(std::size_t i) const { return (i + 1 == cap_) ? 0 : i + 1; }

  static std::chrono::nanoseconds RemainingUntil(std::uint64_t deadline_ns) {
    const std::uint64_t now = obs::NowNanos();
    return std::chrono::nanoseconds(
        deadline_ns > now ? static_cast<std::int64_t>(deadline_ns - now) : 0);
  }

  QueueResult TrySendInternal(T* v) {
    EdgeSet readable_edge;  // destroyed after l: the wake runs outside mu_
    Lock l(mu_);
    if (closed_) {
      return QueueResult::kClosed;
    }
    if (size_ == cap_) {
      return QueueResult::kWouldBlock;
    }
    new (storage_ + sizeof(T) * tail_) T(std::move(*v));
    tail_ = Next(tail_);
    ++size_;
    TAOS_CHAOS(kMsgqHandoff);
    // Edges under mu_: the queue may have just become non-empty, and it may
    // have just become full.
    if (size_ == 1) {
      readable_edge.Publish(&readable_);
    }
    if (size_ == cap_) {
      writable_.Reset();
    }
    return QueueResult::kOk;
  }

  QueueResult TryRecvInternal(T* out) {
    EdgeSet writable_edge;  // destroyed after l: the wake runs outside mu_
    Lock l(mu_);
    if (size_ == 0) {
      return closed_ ? QueueResult::kClosed : QueueResult::kWouldBlock;
    }
    *out = std::move(*Slot(head_));
    Slot(head_)->~T();
    head_ = Next(head_);
    --size_;
    TAOS_CHAOS(kMsgqHandoff);
    if (size_ == 0 && !closed_) {
      readable_.Reset();
    }
    if (size_ + 1 == cap_ && !closed_) {  // was full: the not-full edge
      writable_edge.Publish(&writable_);
    }
    return QueueResult::kOk;
  }

  const std::size_t cap_;
  unsigned char* storage_;
  mutable Mutex mu_;
  std::size_t head_ = 0;  // index of the oldest item
  std::size_t tail_ = 0;  // index of the next free slot
  std::size_t size_ = 0;
  bool closed_ = false;
  Event readable_{EventReset::kManual};
  Event writable_{EventReset::kManual};
};

}  // namespace taos

#endif  // TAOS_SRC_THREADS_MESSAGE_QUEUE_H_
