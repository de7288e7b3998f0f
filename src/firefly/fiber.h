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

// The deadline (and the timeout_steps) of a wait that has none.
inline constexpr std::uint64_t kNoDeadline = ~std::uint64_t{0};

// Thrown from a parked fiber's suspend point when the Machine is torn down
// with fibers still blocked (e.g. after a detected deadlock), unwinding its
// stack so its destructors run before the stack is reused.
struct FiberKilled {};

struct Fiber {
  QueueNode queue_node;  // a wait queue
  // The ready pool. A fiber the clock readied is on both: runnable, and
  // still on the wait queue it will dequeue itself from.
  QueueNode ready_node;

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

  // The deadline of the current de-scheduling, on the virtual clock (the
  // machine's step counter); kNoDeadline when it has none. The driver plays
  // the clock interrupt: once steps_ reaches the deadline, it puts a fiber
  // still blocked into the ready pool and does nothing else. The fiber
  // stays on its wait queue with block_kind set, and dequeues itself under
  // the spin-lock when it runs again (Machine::DescheduleSelfUntil), unless
  // a grant or an Alert dequeued it first.
  std::uint64_t deadline_step = kNoDeadline;

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
