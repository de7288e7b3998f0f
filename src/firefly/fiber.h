// A Fiber is a simulated Taos thread running on the simulated Firefly
// multiprocessor (see machine.h).
//
// Each fiber is a coroutine (a taos::Context, src/base/context.h) on the
// thread that calls Machine::Run: the driver resumes one fiber for one
// atomic step, and the fiber suspends back to the driver at the next step
// boundary (Machine::Step). Exactly one of them runs at any moment, so a
// whole execution is a deterministic function of the driver's scheduling
// choices.

#ifndef TAOS_SRC_FIREFLY_FIBER_H_
#define TAOS_SRC_FIREFLY_FIBER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/base/context.h"
#include "src/base/intrusive_queue.h"
#include "src/spec/state.h"

namespace taos::firefly {

class Machine;

// Thrown from a parked fiber's suspend point when the Machine is torn down
// with fibers still blocked (e.g. after a detected deadlock), unwinding its
// stack so its destructors run before the stack is reused.
struct FiberKilled {};

struct Fiber {
  QueueNode queue_node;  // ready pool or a wait queue

  Machine* machine = nullptr;
  spec::ThreadId id = spec::kNil;
  int priority = 0;       // effective (may be boosted by inheritance)
  int base_priority = 0;  // as given at Fork
  std::string name;

  enum class Run : std::uint8_t {
    kReadyPool,  // in the Nub's ready pool, awaiting a processor
    kOnCpu,      // assigned to a processor, runnable
    kSpinning,   // on a processor, busy-waiting on the Nub spin-lock
    kBlocked,    // de-scheduled on some wait queue
    kDone,       // body finished
  };
  Run run_state = Run::kReadyPool;
  int cpu = -1;                   // processor index while kOnCpu/kSpinning
  int last_cpu = -1;              // processor of the previous dispatch
  std::uint64_t slice_steps = 0;  // steps since last dispatch (time slicing)

  // Blocking bookkeeping (the driver serializes all access).
  enum class BlockKind : std::uint8_t {
    kNone,
    kMutex,
    kSemaphore,
    kCondition,
    kEvent,  // blocked in Event::Wait/WaitFor
    kPoll,   // blocked in Poll::WaitAny*/WaitAll*; blocked_obj is the Poll
  };
  BlockKind block_kind = BlockKind::kNone;
  bool alertable = false;
  bool alert_woken = false;
  void* blocked_obj = nullptr;

  // Timed-wait bookkeeping. Virtual time is the machine's step counter: a
  // timed block sets `timed` and an absolute `deadline_step` before
  // de-scheduling, and names the routine that removes it from its wait
  // queue should the clock win. The driver plays the clock interrupt: when
  // steps_ reaches the deadline (or when the machine would otherwise be
  // idle, in which case it jumps the clock forward), it dequeues the fiber
  // via `timeout_dequeue`, sets `timeout_woken`, and makes it ready. A
  // grant that dequeues the fiber first wins: MakeReady clears `timed`, so
  // the expiry never fires on a fiber some Signal/Release already took.
  bool timed = false;
  std::uint64_t deadline_step = 0;
  bool timeout_woken = false;
  void (*timeout_dequeue)(Fiber*) = nullptr;

  // Membership in the spec's `alerts` set.
  bool alerted = false;

  bool ended_by_alert = false;

  std::function<void()> body;
  std::unique_ptr<Context> context;  // runs body on the fiber's stack

  Fiber() = default;
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
};

// Opaque handle clients use to name a fiber (Alert, Join).
struct FiberHandle {
  Fiber* fiber = nullptr;

  spec::ThreadId id() const { return fiber ? fiber->id : spec::kNil; }
  bool operator==(const FiberHandle&) const = default;
};

}  // namespace taos::firefly

#endif  // TAOS_SRC_FIREFLY_FIBER_H_
