// Alerting: Alert / TestAlert / AlertWait / AlertP.
//
// Specification (SRC Report 20):
//
//   VAR alerts: SET OF Thread INITIALLY {}
//   EXCEPTION Alerted
//   ATOMIC PROCEDURE Alert(t)        ENSURES alertspost = insert(alerts, t)
//   ATOMIC PROCEDURE TestAlert() RETURNS (b)
//     ENSURES (b = (SELF IN alerts)) & (alertspost = delete(alerts, SELF))
//   ATOMIC PROCEDURE AlertP(VAR s) RAISES {Alerted}
//     RETURNS WHEN s = available   ENSURES spost = unavailable & UNCHANGED [alerts]
//     RAISES  WHEN SELF IN alerts  ENSURES alertspost = delete(alerts, SELF)
//                                          & UNCHANGED [s]
//   PROCEDURE AlertWait(VAR m, VAR c) RAISES {Alerted} =
//     COMPOSITION OF Enqueue; AlertResume END   REQUIRES m = SELF
//     ATOMIC ACTION Enqueue ENSURES cpost = insert(c, SELF) & mpost = NIL
//                                   & UNCHANGED [alerts]
//     ATOMIC ACTION AlertResume
//       RETURNS WHEN (m = NIL) & (SELF NOT-IN c)
//         ENSURES mpost = SELF & UNCHANGED [c, alerts]
//       RAISES Alerted WHEN (m = NIL) & (SELF IN alerts)
//         ENSURES mpost = SELF & cpost = delete(c, SELF)
//                 & alertspost = delete(alerts, SELF)
//
// The RETURNS and RAISES WHEN clauses are deliberately not disjoint: when
// both are satisfied the implementation may choose either outcome (the
// paper's released spec legitimized the implementation's nondeterminism).
//
// Alerting is a polite form of interrupt, used to implement timeouts and
// aborts: Alert(t) requests that thread t raise Alerted at its next
// alert-responsive point.
//
// Implementation: AlertWait and AlertWaitFor are Condition's one wait
// (condition.h) with an alertable Block, and AlertP is the semaphore's lock
// core acquired alertably (lock_core.h). Either Block holds the caller's
// record lock across the alerted check and the enqueue, so Alert finds the
// flag set first or finds the thread blocked and dequeues it.

#ifndef TAOS_SRC_THREADS_ALERT_H_
#define TAOS_SRC_THREADS_ALERT_H_

#include <chrono>

#include "src/base/alerted.h"
#include "src/threads/condition.h"
#include "src/threads/mutex.h"
#include "src/threads/semaphore.h"
#include "src/threads/thread_record.h"
#include "src/threads/wait_result.h"

namespace taos {

// Requests that thread t raise Alerted. If t is blocked in AlertWait or
// AlertP it is unblocked; otherwise the request stays pending until t calls
// TestAlert, AlertWait or AlertP.
void Alert(ThreadHandle t);

// Returns whether an alert was pending for the calling thread, clearing it.
bool TestAlert();

// Like Condition::Wait, but may raise Alerted instead of returning. Either
// way the mutex is held again on exit from the procedure.
void AlertWait(Mutex& m, Condition& c);

// AlertWait with a deadline, reporting all three outcomes as a value
// instead of raising: kSatisfied (a Signal/Broadcast woke us), kTimeout
// (the deadline passed first), or kAlerted (an alert was delivered; the
// pending alert is consumed, but no Alerted is thrown — the caller decides
// what an alert means for a timed wait). On the kTimeout path a pending
// alert is deliberately NOT consumed: the timeout already happened, and the
// alert stays deliverable at the next alert-responsive point. The mutex is
// held again on return in every case. A nonpositive timeout returns
// kTimeout immediately without releasing m.
WaitResult AlertWaitFor(Mutex& m, Condition& c,
                        std::chrono::nanoseconds timeout);

// Like Semaphore::P, but may raise Alerted instead of returning (in which
// case the semaphore was not taken).
void AlertP(Semaphore& s);

}  // namespace taos

#endif  // TAOS_SRC_THREADS_ALERT_H_
