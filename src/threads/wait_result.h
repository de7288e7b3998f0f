// The outcome of a timed wait (AcquireFor / PFor / WaitFor / AlertWaitFor).
//
// The paper's primitives never time out: a blocked thread leaves its queue
// only by a grant (Release/V/Signal) or by an Alert. The timed variants add
// a third exit — expiry of a deadline — and report which of the three ended
// the wait. The precedence when exits race is fixed by the implementation:
// a grant always beats the deadline (a timed wait that loses the expiry-vs-
// grant race never loses the grant), and an expiry observed by the waiter
// beats a pending alert (the alert flag is left set for the next alertable
// operation rather than silently consumed by a wait that reports kTimeout).

#ifndef TAOS_SRC_THREADS_WAIT_RESULT_H_
#define TAOS_SRC_THREADS_WAIT_RESULT_H_

namespace taos {

enum class WaitResult {
  kSatisfied,  // the wait ended by grant: the mutex/semaphore was acquired,
               // or the condition was signalled/broadcast
  kTimeout,    // the deadline expired first; the wait's postcondition is
               // whatever held before (the mutex stays unacquired, the
               // semaphore untaken — and for WaitFor, m is re-acquired)
  kAlerted,    // AlertWaitFor only: an Alert ended the wait; the alert flag
               // was consumed (the un-timed AlertWait would have raised)
};

inline const char* WaitResultName(WaitResult r) {
  switch (r) {
    case WaitResult::kSatisfied:
      return "satisfied";
    case WaitResult::kTimeout:
      return "timeout";
    case WaitResult::kAlerted:
      return "alerted";
  }
  return "?";
}

}  // namespace taos

#endif  // TAOS_SRC_THREADS_WAIT_RESULT_H_
