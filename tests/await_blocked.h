// AwaitBlocked: lets a test wait until another thread has entered a Nub
// wait, so that what the test does next lands on a queued waiter.

#ifndef TAOS_TESTS_AWAIT_BLOCKED_H_
#define TAOS_TESTS_AWAIT_BLOCKED_H_

#include <thread>

#include "src/base/spinlock.h"
#include "src/threads/thread.h"
#include "src/threads/thread_record.h"

namespace taos {

// Whether `t` is blocked: queued on the object it waits for, parked or
// about to park. The blocked state is published under t's record lock
// (thread_record.h), so it is read under it.
inline bool IsBlocked(const Thread& t) {
  ThreadRecord* rec = t.Handle().rec;
  SpinGuard g(rec->lock);
  return rec->block_kind != ThreadRecord::BlockKind::kNone;
}

// Blocks until `t` is blocked. Only for a wait nothing but the caller ends.
inline void AwaitBlocked(const Thread& t) {
  while (!IsBlocked(t)) {
    std::this_thread::yield();
  }
}

}  // namespace taos

#endif  // TAOS_TESTS_AWAIT_BLOCKED_H_
