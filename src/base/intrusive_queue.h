// Intrusive FIFO queue used for the Nub's per-object queues of blocked
// threads and for the ready pool.
//
// The queues in the paper's Nub hold thread control blocks; a thread is on at
// most one queue at a time (a mutex queue, a condition queue, a semaphore
// queue, or the ready pool), so a single embedded QueueNode per record is
// enough and no allocation ever happens on a blocking path. The one
// exception is a simulated fiber the clock readied: runnable while still on
// its wait queue, it links into the ready pool through a second node
// (src/firefly/fiber.h).

#ifndef TAOS_SRC_BASE_INTRUSIVE_QUEUE_H_
#define TAOS_SRC_BASE_INTRUSIVE_QUEUE_H_

#include <cstddef>

#include "src/base/check.h"

namespace taos {

struct QueueNode {
  QueueNode* prev = nullptr;
  QueueNode* next = nullptr;
  void* owner = nullptr;  // the T* this node is embedded in; set on PushBack

  bool InQueue() const { return prev != nullptr; }
};

// T must have a public member `QueueNode queue_node`, or name the node to
// link through as `Node` (an object on two queues at once needs two).
template <typename T, QueueNode T::*Node = &T::queue_node>
class IntrusiveQueue {
 public:
  IntrusiveQueue() {
    head_.prev = &head_;
    head_.next = &head_;
  }
  IntrusiveQueue(const IntrusiveQueue&) = delete;
  IntrusiveQueue& operator=(const IntrusiveQueue&) = delete;

  ~IntrusiveQueue() { TAOS_DCHECK(Empty()); }

  bool Empty() const { return head_.next == &head_; }

  std::size_t Size() const {
    std::size_t n = 0;
    for (QueueNode* p = head_.next; p != &head_; p = p->next) {
      ++n;
    }
    return n;
  }

  void PushBack(T* item) {
    QueueNode* node = &(item->*Node);
    TAOS_DCHECK(!node->InQueue());
    node->owner = item;
    node->prev = head_.prev;
    node->next = &head_;
    head_.prev->next = node;
    head_.prev = node;
  }

  // Puts `item` ahead of every element already queued.
  void PushFront(T* item) {
    QueueNode* node = &(item->*Node);
    TAOS_DCHECK(!node->InQueue());
    node->owner = item;
    node->prev = &head_;
    node->next = head_.next;
    head_.next->prev = node;
    head_.next = node;
  }

  // Removes and returns the oldest element, or nullptr if empty.
  T* PopFront() {
    if (Empty()) {
      return nullptr;
    }
    QueueNode* node = head_.next;
    Unlink(node);
    return static_cast<T*>(node->owner);
  }

  // Removes `item` from the queue; it must currently be enqueued here.
  void Remove(T* item) {
    QueueNode* node = &(item->*Node);
    TAOS_DCHECK(node->InQueue());
    Unlink(node);
  }

  bool Contains(const T* item) const {
    const QueueNode* target = &(item->*Node);
    for (QueueNode* p = head_.next; p != &head_; p = p->next) {
      if (p == target) {
        return true;
      }
    }
    return false;
  }

  T* Front() const {
    return Empty() ? nullptr : static_cast<T*>(head_.next->owner);
  }

  // Visits every element front-to-back. The visitor must not mutate the
  // queue; Broadcast-style draining should loop on PopFront instead.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (QueueNode* p = head_.next; p != &head_; p = p->next) {
      fn(static_cast<T*>(p->owner));
    }
  }

 private:
  static void Unlink(QueueNode* node) {
    node->prev->next = node->next;
    node->next->prev = node->prev;
    node->prev = nullptr;
    node->next = nullptr;
  }

  mutable QueueNode head_;  // circular sentinel
};

}  // namespace taos

#endif  // TAOS_SRC_BASE_INTRUSIVE_QUEUE_H_
