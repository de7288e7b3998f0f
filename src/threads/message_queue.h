// Bounded MPMC message queue plus the multi-object wait subsystem: a
// lock-free ring, and two manual-reset Events that publish the queue's
// *level-triggered* readiness so receivers (and senders) can fold the queue
// into a Poll wait set:
//
//   receiver:  Poll p; p.Add(q.readable()); p.Add(shutdown);
//              switch (p.WaitAny()) { case 0: q.TryRecv(&m); ... }
//
// The ring is Vyukov's bounded MPMC queue: a Send or TryRecv claims its
// position with one CAS, then publishes (or frees) the position's cell by
// advancing the cell's sequence number. Sequence numbers count in halves
// (free for position p: 2p; holding p's item: 2p + 1), so capacity 1 works.
//
// The levels, kept without a lock by two Dekker pairs (DESIGN.md §15):
//
//   readable().IsSet()  ⇔  an item is published at the head  ∨ closed
//   writable().IsSet()  ⇔  the cell at the tail is free      ∨ closed
//
// The party that makes a level true publishes its cell, issues a seq_cst
// fence and Sets the event only if it reads the flag clear, so a Send into
// a non-empty queue and a TryRecv from a non-full one issue no Set. The
// party that may have made a level false (the TryRecv that takes the last
// item, the Send that fills the queue), or finds it false with the flag set,
// Resets the event, issues a fence, and Sets it again if a re-check finds
// the level true. Either the re-check sees the other side's publish, or the
// other side's flag load sees the Reset.
//
// The events are manual-reset and Mesa-style: a wakeup (or a Poll grant) on
// readable() is a *hint*, not a handoff — another consumer may drain the
// item first, so every waiter re-tries on kWouldBlock and re-waits.
//
// Close() is sticky and linearizes against Send: it sets a closed bit in
// the enqueue position, which fails every later claim, then sets both
// events permanently. Recv drains remaining items first, including a Send
// that claimed its cell before Close and has not yet published it (a
// receiver retries while such a Send is in flight), and fails only on
// closed-and-empty.
//
// REQUIRES callers never Set or Reset readable()/writable() themselves:
// the queue owns both.

#ifndef TAOS_SRC_THREADS_MESSAGE_QUEUE_H_
#define TAOS_SRC_THREADS_MESSAGE_QUEUE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#include "src/base/chaos.h"
#include "src/base/check.h"
#include "src/obs/metrics.h"
#include "src/threads/event.h"
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
      : cap_(capacity), cells_(new Cell[capacity]) {
    TAOS_CHECK(capacity > 0);
    for (std::size_t i = 0; i < capacity; ++i) {
      cells_[i].seq.store(2 * i, std::memory_order_relaxed);
    }
    // Empty and not closed: writable, not readable.
    writable_.Set();
  }

  // REQUIRES no call into the queue still running and no live poll
  // registrations on readable()/writable() (the Events' destructors check).
  ~MessageQueue() {
    for (std::uint64_t pos = head_.load(std::memory_order_relaxed);
         Lag(cells_[pos % cap_], 2 * pos + 1) == 0; ++pos) {
      Item(cells_[pos % cap_])->~T();
    }
    delete[] cells_;
  }

  MessageQueue(const MessageQueue&) = delete;
  MessageQueue& operator=(const MessageQueue&) = delete;

  // Blocks while the queue is full; kClosed if the queue is (or becomes)
  // closed before the item is accepted.
  QueueResult Send(T v) { return SendUntil(&v, kNoDeadline); }

  // Single attempt, never blocks.
  QueueResult TrySend(T v) { return TrySendInternal(&v); }

  // Send with a deadline on the *full* wait.
  QueueResult SendFor(T v, std::chrono::nanoseconds timeout) {
    return SendUntil(&v, timeout.count() > 0 ? DeadlineAfter(timeout) : 0);
  }

  // Blocks while the queue is empty and open; kClosed only once closed AND
  // drained.
  QueueResult Recv(T* out) { return RecvUntil(out, kNoDeadline); }

  QueueResult TryRecv(T* out) { return TryRecvInternal(out); }

  QueueResult RecvFor(T* out, std::chrono::nanoseconds timeout) {
    return RecvUntil(out, timeout.count() > 0 ? DeadlineAfter(timeout) : 0);
  }

  // Sticky: wakes every blocked sender, receiver and poller. Idempotent.
  void Close() {
    if ((tail_.fetch_or(kClosedBit, std::memory_order_seq_cst) &
         kClosedBit) != 0) {
      return;
    }
    SetIfClear(readable_);
    SetIfClear(writable_);
  }

  // Level-state events for Poll composition. A grant on readable() means
  // "an item is probably available": follow with TryRecv and re-wait on
  // kWouldBlock (another consumer may have drained it first). Wait on them
  // or add them to a Poll; never Set or Reset them (see the header).
  Event& readable() { return readable_; }
  Event& writable() { return writable_; }

  bool closed() const {
    return (tail_.load(std::memory_order_acquire) & kClosedBit) != 0;
  }

  std::size_t capacity() const { return cap_; }

 private:
  struct Cell {
    std::atomic<std::uint64_t> seq;
    alignas(T) unsigned char item[sizeof(T)];
  };

  // The low bit of tail_; the enqueue position is tail_ >> 1.
  static constexpr std::uint64_t kClosedBit = 1;

  static T* Item(Cell& c) { return std::launder(reinterpret_cast<T*>(c.item)); }

  // How far a cell's sequence number is past the state the caller looks
  // for: negative while the cell is behind it, positive once another party
  // has moved past it.
  static std::int64_t Lag(const Cell& c, std::uint64_t expected) {
    return static_cast<std::int64_t>(
        c.seq.load(std::memory_order_seq_cst) - expected);
  }

  // The levels, for the re-check after a Reset. A position that another
  // party has already moved past counts as ready: at worst a spurious Set.
  bool RecvReady() const {
    const std::uint64_t head = head_.load(std::memory_order_seq_cst);
    return Lag(cells_[head % cap_], 2 * head + 1) >= 0 || closed();
  }
  bool SendReady() const {
    const std::uint64_t tail = tail_.load(std::memory_order_seq_cst);
    return (tail & kClosedBit) != 0 ||
           Lag(cells_[(tail >> 1) % cap_], tail) >= 0;
  }

  // The two sides of a readiness pair (see the header).
  static void SetIfClear(Event& e) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!e.IsSet()) {
      e.Set();
    }
  }

  void ResetUnlessReady(Event& e, bool (MessageQueue::*ready)() const) {
    e.Reset();
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if ((this->*ready)()) {
      e.Set();
    }
  }

  // Waits for `e` until `deadline` (kNoDeadline: for ever); false on
  // timeout.
  static bool Await(Event& e, std::uint64_t deadline) {
    if (deadline == kNoDeadline) {
      e.Wait();
      return true;
    }
    const std::uint64_t now = obs::NowNanos();
    const auto left = std::chrono::nanoseconds(
        deadline > now ? static_cast<std::int64_t>(deadline - now) : 0);
    return e.WaitFor(left) == WaitResult::kSatisfied;
  }

  QueueResult SendUntil(T* v, std::uint64_t deadline) {
    for (;;) {
      const QueueResult r = TrySendInternal(v);
      if (r != QueueResult::kWouldBlock) {
        return r;
      }
      if (!Await(writable_, deadline)) {
        return QueueResult::kTimeout;
      }
    }
  }

  QueueResult RecvUntil(T* out, std::uint64_t deadline) {
    for (;;) {
      const QueueResult r = TryRecvInternal(out);
      if (r != QueueResult::kWouldBlock) {
        return r;
      }
      if (!Await(readable_, deadline)) {
        return QueueResult::kTimeout;
      }
    }
  }

  QueueResult TrySendInternal(T* v) {
    std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    Cell* c;
    for (;;) {
      if ((tail & kClosedBit) != 0) {
        return QueueResult::kClosed;
      }
      c = &cells_[(tail >> 1) % cap_];
      const std::int64_t lag = Lag(*c, tail);
      if (lag < 0) {  // full: the cell still holds the item from a lap ago
        if (writable_.IsSet()) {
          ResetUnlessReady(writable_, &MessageQueue::SendReady);
        }
        return QueueResult::kWouldBlock;
      }
      // The CAS fails if Close set the bit since the load.
      if (lag == 0 && tail_.compare_exchange_weak(tail, tail + 2,
                                                  std::memory_order_relaxed)) {
        break;
      }
      if (lag > 0) {
        tail = tail_.load(std::memory_order_relaxed);
      }
    }
    TAOS_CHAOS(kMsgqHandoff);
    new (c->item) T(std::move(*v));
    c->seq.store(tail + 1, std::memory_order_release);
    TAOS_CHAOS(kMsgqUnlockToWake);
    SetIfClear(readable_);
    if (!SendReady() && writable_.IsSet()) {  // this Send filled the queue
      ResetUnlessReady(writable_, &MessageQueue::SendReady);
    }
    return QueueResult::kOk;
  }

  QueueResult TryRecvInternal(T* out) {
    std::uint64_t head = head_.load(std::memory_order_relaxed);
    Cell* c;
    for (;;) {
      c = &cells_[head % cap_];
      const std::int64_t lag = Lag(*c, 2 * head + 1);
      if (lag < 0) {
        // Empty, or the Send that claimed this cell has not published it.
        const std::uint64_t tail = tail_.load(std::memory_order_acquire);
        if ((tail & kClosedBit) != 0) {
          return (tail >> 1) == head ? QueueResult::kClosed
                                     : QueueResult::kWouldBlock;
        }
        if (readable_.IsSet()) {
          ResetUnlessReady(readable_, &MessageQueue::RecvReady);
        }
        return QueueResult::kWouldBlock;
      }
      if (lag == 0 && head_.compare_exchange_weak(head, head + 1,
                                                  std::memory_order_relaxed)) {
        break;
      }
      if (lag > 0) {
        head = head_.load(std::memory_order_relaxed);
      }
    }
    TAOS_CHAOS(kMsgqHandoff);
    *out = std::move(*Item(*c));
    Item(*c)->~T();
    c->seq.store(2 * (head + cap_), std::memory_order_release);
    TAOS_CHAOS(kMsgqUnlockToWake);
    SetIfClear(writable_);
    if (!RecvReady()) {  // this TryRecv took the last item
      ResetUnlessReady(readable_, &MessageQueue::RecvReady);
    }
    return QueueResult::kOk;
  }

  const std::size_t cap_;
  Cell* const cells_;
  // The dequeue position, and the enqueue position shifted past the closed
  // bit: each on its own cache line.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  alignas(64) Event readable_{EventReset::kManual};
  Event writable_{EventReset::kManual};
};

}  // namespace taos

#endif  // TAOS_SRC_THREADS_MESSAGE_QUEUE_H_
