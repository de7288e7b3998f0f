// The Nub's deadlines: every timed wait is its own timer.
//
// The paper's Nub has no timeouts; the Taos interface above it did (the
// WaitWithTimeout idiom in src/workload built one from a watchdog thread per
// call). Here every blocking slow path carries a deadline on the
// obs::NowNanos timeline (kNoDeadline for its untimed entry point), and a
// timed waiter parks on its own Parker with that deadline. When the park
// times out, the waiter cancels its own wait the way Alert(t) or a grant
// would dequeue it: under the blocked-on object's lock and then its record
// lock (rule 1 in nub.h), through the published blocking state. Whoever
// dequeues the waiter first wins:
//   - the waiter itself: it removes itself from the object's queue and the
//     wait reports kTimeout;
//   - a grant or Alert that got there first: it already dequeued the waiter
//     and is depositing a permit on its way out, which the waiter consumes
//     before reporting the wakeup. So a timed wait that loses the
//     expiry-vs-grant race keeps the grant, and no stray permit outlives
//     the episode to end a later park early.
// No lock order is reversed and no try-lock is needed: the waiter is inside
// its own blocking call on the object, so the object stays alive across
// the whole cancellation.
//
// An untimed episode (kNoDeadline) parks exactly as the paper's Nub does,
// never testing the clock against a deadline.

#ifndef TAOS_SRC_THREADS_TIMER_H_
#define TAOS_SRC_THREADS_TIMER_H_

#include <chrono>
#include <cstdint>

#include "src/obs/metrics.h"
#include "src/threads/thread_record.h"
#include "src/waitq/parker.h"

namespace taos {

// The deadline of a wait that has none. Every deadline-carrying slow path
// takes it for its untimed entry point; DeadlineAfter saturates to it, so a
// timeout too far away to represent waits like an untimed call.
inline constexpr std::uint64_t kNoDeadline = waitq::kNoDeadline;

// Converts a (positive) relative timeout into a deadline on the
// obs::NowNanos timeline, saturating instead of wrapping for far-future
// requests.
inline std::uint64_t DeadlineAfter(std::chrono::nanoseconds timeout) {
  const std::uint64_t now = obs::NowNanos();
  const std::uint64_t delta = static_cast<std::uint64_t>(timeout.count());
  const std::uint64_t deadline = now + delta;
  return deadline < now ? kNoDeadline : deadline;
}

// True once `deadline_ns` is behind us; never reads the clock for
// kNoDeadline.
inline bool DeadlinePassed(std::uint64_t deadline_ns) {
  return deadline_ns != kNoDeadline && obs::NowNanos() >= deadline_ns;
}

// No state and no thread: kept only because the repository benchmark
// (perfbench/rpc.cc) calls Timer::Get() at startup.
class Timer {
 public:
  static Timer& Get() {
    static Timer timer;
    return timer;
  }
};

// Takes the blocked thread t off what its published blocking state names
// and clears that state: the one per-kind dequeue of Alert and of a timed
// waiter cancelling itself. A Condition waiter moves to the list `alerted`
// selects (Condition::DequeueLocked). REQUIRES t's record lock held, and
// the lock of the object t blocked on, if it has one (rule 1 in nub.h).
void DequeueBlockedLocked(ThreadRecord* t, bool alerted);

// Parks the calling thread t on the episode it just published with
// SetBlockedLocked, with no lock held (`spin` as for ParkBlocked), until a
// dequeuer unparks it or `deadline_ns` passes. Returns true iff the
// deadline is what dequeued t: t has then removed itself from the queue it
// blocked on (for a traced Condition, moved itself to pending_timeout_) and
// cleared its blocked state. Always false for kNoDeadline. Counts
// kTimersArmed per timed park, then kTimersCancelled when a grant or Alert
// ended it and kTimersExpired when t dequeued itself.
bool ParkBlockedUntil(ThreadRecord* t, std::uint64_t deadline_ns,
                      waitq::Parker::Spin spin);

}  // namespace taos

#endif  // TAOS_SRC_THREADS_TIMER_H_
