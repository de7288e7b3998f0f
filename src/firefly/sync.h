// The Threads synchronization primitives on the simulated Firefly,
// implemented exactly as the paper's Implementation section describes:
//
//  - Mutex / Semaphore: a pair (Lock-bit, Queue). User code is an inline
//    test-and-set (one simulated instruction); the Nub subroutines enqueue /
//    re-test / de-schedule and unblock-one under the global spin-lock.
//  - Condition: a pair (Eventcount, Queue). Wait reads the eventcount,
//    releases the mutex, then Block(c, i) sleeps only if the eventcount is
//    unchanged; Signal/Broadcast increment it and make one/all queued
//    threads ready. set_use_eventcount(false) removes the comparison,
//    recreating the wakeup-waiting race (experiment E7).
//  - Alerts: a per-thread flag plus unblock-if-alertably-blocked, under the
//    spin-lock.
//
// When the machine has a TraceSink, every operation emits its spec-visible
// atomic action inside the simulation step that performs it, so the emitted
// order is exactly the execution's serialization. One modelling choice is
// documented in DESIGN.md: the eventcount snapshot that Block compares
// against is taken at Wait's mutex-release step (the linearization point of
// the spec's Enqueue action) rather than one step earlier.
//
// All objects must outlive no longer than their Machine, and are only used
// from that machine's fibers.

#ifndef TAOS_SRC_FIREFLY_SYNC_H_
#define TAOS_SRC_FIREFLY_SYNC_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/alerted.h"
#include "src/base/intrusive_queue.h"
#include "src/firefly/machine.h"
#include "src/spec/action.h"
#include "src/threads/wait_result.h"

namespace taos::firefly {

class Condition;

class Mutex {
 public:
  explicit Mutex(Machine& machine);
  ~Mutex();
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Acquire();
  void Release();

  // Extension beyond the paper's "simple priority scheme": when enabled,
  // a blocking Acquire boosts the holder's effective priority to its own,
  // and Release restores the releaser's base priority — the classic cure
  // for priority inversion (demonstrated in tests/firefly_priority_test).
  void set_priority_inheritance(bool v) { priority_inheritance_ = v; }

  spec::ObjId id() const { return id_; }
  Fiber* HolderForDebug() const { return holder_; }

  std::uint64_t fast_acquires() const { return fast_acquires_; }
  std::uint64_t slow_acquires() const { return slow_acquires_; }

 private:
  friend class Condition;

  // Acquire loop; emits `emit` at the successful test-and-set, running
  // `at_success` (still within that atomic step) first.
  void AcquireInternal(const spec::Action& emit,
                       const std::function<void()>& at_success = nullptr);

  // Release; runs `at_clear` within the lock-bit-clearing step (Wait's
  // Enqueue action emits there instead of a plain Release).
  void ReleaseInternal(const std::function<void()>& at_clear);

  Machine& machine_;
  bool bit_ = false;  // the Lock-bit
  bool priority_inheritance_ = false;
  Fiber* holder_ = nullptr;
  IntrusiveQueue<Fiber> queue_;  // guarded by the Nub spin-lock
  spec::ObjId id_;

  std::uint64_t fast_acquires_ = 0;
  std::uint64_t slow_acquires_ = 0;
};

// LOCK e DO ... END
class Lock {
 public:
  explicit Lock(Mutex& m) : m_(m) { m_.Acquire(); }
  ~Lock() { m_.Release(); }
  Lock(const Lock&) = delete;
  Lock& operator=(const Lock&) = delete;

 private:
  Mutex& m_;
};

class Condition {
 public:
  explicit Condition(Machine& machine);
  ~Condition();
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  void Wait(Mutex& m) { WaitUntil(m, kNoDeadline, /*alertable=*/false); }

  // Wait with a deadline, in virtual time: `timeout_steps` machine steps
  // from now. kSatisfied after a Signal/Broadcast wakeup, kTimeout once the
  // simulated clock reached the deadline first; either way m is held again
  // on return. The clock only readies the waiter, which then dequeues
  // itself; a Signal that dequeued it first, even after the clock readied
  // it, is reported as kSatisfied. timeout_steps == 0 returns kTimeout
  // immediately without releasing m; kNoDeadline waits as Wait does. On a
  // traced machine the expiry path emits the spec's TimeoutResume action.
  WaitResult WaitFor(Mutex& m, std::uint64_t timeout_steps) {
    return WaitUntil(m, timeout_steps, /*alertable=*/false);
  }

  void Signal();
  void Broadcast();

  // Ablation (E7): when false, Block always sleeps — the eventcount
  // comparison that covers the wakeup-waiting race is removed. Only valid
  // on an untraced machine.
  void set_use_eventcount(bool v) { use_eventcount_ = v; }

  spec::ObjId id() const { return id_; }

  std::uint64_t absorbed_wakeups() const { return absorbed_; }
  std::uint64_t fast_signals() const { return fast_signals_; }
  // Signals that made more than one thread runnable (pop + window absorbs).
  std::uint64_t multi_unblock_signals() const {
    return multi_unblock_signals_;
  }

 private:
  friend void DequeueBlocked(Fiber* t, bool alerted);
  friend void AlertWait(Mutex& m, Condition& c);
  friend WaitResult AlertWaitFor(Mutex& m, Condition& c,
                                 std::uint64_t timeout_steps);

  // The one body of Wait, WaitFor, AlertWait and AlertWaitFor (alertable).
  // An alertable wait returns kAlerted with the alert consumed; kTimeout
  // never consumes one.
  WaitResult WaitUntil(Mutex& m, std::uint64_t timeout_steps, bool alertable);

  // Signal (all = false) and Broadcast share one body.
  void Wake(bool all);
  bool EraseWindow(Fiber* f);
  bool ErasePendingRaise(Fiber* f);
  bool ErasePendingTimeout(Fiber* f);
  void DecSize() {
    if (c_size_ > 0) {
      --c_size_;
    }
  }

  Machine& machine_;
  std::uint64_t ec_ = 0;  // the Eventcount
  IntrusiveQueue<Fiber> queue_;  // guarded by the Nub spin-lock
  spec::ObjId id_;
  bool use_eventcount_ = true;

  // |c| in spec terms: queued + in-window + pending-raise fibers. Drives the
  // "no threads to unblock" user-code fast path of Signal/Broadcast.
  int c_size_ = 0;
  std::vector<Fiber*> window_;
  // Fibers an Alert or their own deadline took off queue_: still members
  // of c until their AlertResume / TimeoutResume action fires.
  std::vector<Fiber*> pending_raise_;
  std::vector<Fiber*> pending_timeout_;

  std::uint64_t absorbed_ = 0;
  std::uint64_t fast_signals_ = 0;
  std::uint64_t multi_unblock_signals_ = 0;
};

class Semaphore {
 public:
  // The spec's Semaphore is INITIALLY available; `initially_available =
  // false` is an extension used by baseline constructions (e.g. the naive
  // semaphore-encoded condition variable) that need a taken token up front.
  explicit Semaphore(Machine& machine, bool initially_available = true);
  ~Semaphore();
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  void P();
  void V();

  spec::ObjId id() const { return id_; }
  bool AvailableForDebug() const { return !bit_; }

 private:
  friend void DequeueBlocked(Fiber* t, bool alerted);
  friend void AlertP(Semaphore& s);

  // P's acquire loop; alertable for AlertP, which may raise Alerted.
  void PInternal(bool alertable);

  Machine& machine_;
  bool bit_ = false;  // 1 iff unavailable
  IntrusiveQueue<Fiber> queue_;  // guarded by the Nub spin-lock
  spec::ObjId id_;
};

// Simulator twin of taos::Event (src/threads/event.h): a boolean state
// variable with manual/auto reset, the base object of the multi-object
// wait. Level-triggered with waiter-side consumption, exactly the real
// runtime's semantics; the structure mirrors Semaphore with the bit sense
// inverted (set = available).
enum class EventReset : std::uint8_t { kManual, kAuto };

class Poll;

class Event {
 public:
  explicit Event(Machine& machine, EventReset reset = EventReset::kManual);
  ~Event();
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  void Set();
  void Reset();
  void Wait();
  // Deadline in virtual time (machine steps), as Condition::WaitFor
  // (kNoDeadline waits as Wait does). A waiter whose deadline dequeued it
  // still claims the event if it is set, in the same step, and otherwise
  // emits the spec's WaitFor/TIMEOUT action over {this}.
  WaitResult WaitFor(std::uint64_t timeout_steps);

  bool IsSet() const { return set_; }
  EventReset reset_mode() const { return reset_; }
  spec::ObjId id() const { return id_; }

 private:
  friend class Poll;
  friend void DequeueBlocked(Fiber* t, bool alerted);

  // The claim, inside the current step: if set, consume it (auto-reset)
  // and emit the spec action; false if the event is clear.
  bool TryClaim(Fiber* self);

  Machine& machine_;
  bool set_ = false;
  IntrusiveQueue<Fiber> queue_;   // plain waiters, guarded by the spin-lock
  std::vector<Fiber*> pollers_;   // blocked Poll waiters registered here
  const EventReset reset_;
  spec::ObjId id_;
};

// Simulator twin of taos::Poll: WaitAny/WaitAll over a set of Events. The
// driver serializes everything, so instead of the runtime's notify-latch
// protocol a blocked poll waiter simply sits on every member's pollers_
// list; Event::Set (and Alert, and the waiter whose deadline passed)
// deregisters it from ALL members — the simulator's O(1)-equivalent of
// atomic deregistration, trivially free of the lost-wakeup window the
// litmus tests probe because it happens under the Nub spin-lock. Wakeups
// are hints (Mesa): the waiter re-scans, and consumption happens
// waiter-side inside one atomic step, which is also where the spec's
// WaitAny/WaitAll action is emitted. A waiter whose deadline passed
// rescans in the step that deregisters it: a grant beats an expiry.
class Poll {
 public:
  static constexpr std::size_t kMaxWait = 8;

  Poll() = default;
  Poll(const Poll&) = delete;
  Poll& operator=(const Poll&) = delete;

  // REQUIRES e not already added, fewer than kMaxWait members, all members
  // on the same Machine.
  void Add(Event& e);
  std::size_t size() const { return n_; }

  // REQUIRES a non-empty wait set (all variants).
  std::size_t WaitAny();

  struct AnyResult {
    std::size_t index;  // size() when result != kSatisfied
    WaitResult result;
  };
  AnyResult WaitAnyFor(std::uint64_t timeout_steps);
  std::size_t AlertWaitAny();  // raises taos::Alerted
  AnyResult AlertWaitAnyFor(std::uint64_t timeout_steps);

  void WaitAll();
  WaitResult WaitAllFor(std::uint64_t timeout_steps);
  void AlertWaitAll();  // raises taos::Alerted
  WaitResult AlertWaitAllFor(std::uint64_t timeout_steps);

 private:
  friend class Event;
  friend void DequeueBlocked(Fiber* t, bool alerted);

  // Every public wait: WaitInternal bracketed by the recorder event, plus
  // the timed-wait outcome counters when a deadline is set.
  WaitResult Wait(bool all, bool alertable, std::uint64_t timeout_steps,
                  std::size_t* index);
  // The one body of every wait; timeout_steps == kNoDeadline for the
  // untimed ones.
  WaitResult WaitInternal(bool all, bool alertable,
                          std::uint64_t timeout_steps, std::size_t* index);
  // Scan + consume + emit, inside the current atomic step. REQUIRES the
  // Nub spin-lock held (the emission linearizes there).
  bool TryGrantLocked(bool all, const spec::ObjIdSet& ws, std::size_t* index);
  void RegisterAllLocked(Fiber* f);
  void DeregisterFiber(Fiber* f);
  spec::ObjIdSet WaitSetIds() const;

  Event* events_[kMaxWait] = {};
  std::size_t n_ = 0;
};

// Alerting.
void Alert(FiberHandle t);
bool TestAlert();
void AlertWait(Mutex& m, Condition& c);  // raises taos::Alerted
void AlertP(Semaphore& s);               // raises taos::Alerted

// AlertWait with a virtual-time deadline, reporting all three outcomes as a
// value instead of raising (the simulator twin of taos::AlertWaitFor):
// kSatisfied on a signal wakeup, kTimeout when the deadline dequeued the
// waiter first, kAlerted when an Alert ended it (the alert flag is
// consumed, no Alerted is thrown). On the kTimeout path a pending alert is
// deliberately NOT consumed. m is held again on return in every case;
// timeout_steps == 0 returns kTimeout immediately without releasing m, and
// kNoDeadline waits as AlertWait does.
WaitResult AlertWaitFor(Mutex& m, Condition& c, std::uint64_t timeout_steps);

}  // namespace taos::firefly

#endif  // TAOS_SRC_FIREFLY_SYNC_H_
