// Timeouts — the use case the paper names for Alert: "typically to
// implement things such as timeouts and aborts [...] at an abstraction
// level higher than that in which the thread is blocked."
//
// WaitWithTimeout is the predicate-guarded timed wait. Historically it was
// built the way the quote suggests: a watchdog thread per call that
// Alert()ed the waiter when the deadline passed — one thread creation, one
// join, and a 1 ms polling loop per timed wait. Deadlines are now
// first-class in the Nub (src/threads/timer.h), so the same contract rides
// on AlertWaitFor: zero threads per call, no polling, and the expiry-vs-
// signal race arbitrated by the waiter's own dequeue under the object lock
// instead of by alert-flag accounting. Returns true if the predicate came true, false on
// timeout. The caller must hold the mutex; it is held again on return
// either way.

#ifndef TAOS_SRC_WORKLOAD_TIMEOUT_H_
#define TAOS_SRC_WORKLOAD_TIMEOUT_H_

#include <chrono>
#include <functional>

#include "src/threads/threads.h"

namespace taos::workload {

inline bool WaitWithTimeout(Mutex& m, Condition& c,
                            const std::function<bool()>& predicate,
                            std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!predicate()) {
    const auto remaining = deadline - std::chrono::steady_clock::now();
    switch (AlertWaitFor(
        m, c,
        std::chrono::duration_cast<std::chrono::nanoseconds>(remaining))) {
      case WaitResult::kSatisfied:
        break;  // a wakeup is a hint; loop to re-evaluate the predicate
      case WaitResult::kTimeout:
        return predicate();
      case WaitResult::kAlerted:
        // The alert belongs to a third party — this wait's deadline is the
        // timer's, not an Alert. AlertWaitFor consumed it to report
        // kAlerted; re-post so the caller's next alertable wait still
        // raises, and report the wait's own outcome.
        Alert(Thread::Self());
        return predicate();
    }
  }
  return true;
}

}  // namespace taos::workload

#endif  // TAOS_SRC_WORKLOAD_TIMEOUT_H_
