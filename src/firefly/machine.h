// The simulated Firefly multiprocessor and its Nub.
//
// SRC Report 20 evaluates on the Firefly, "a symmetric multiprocessor; each
// processor is able to address the entire memory", whose Nub kernel layer
// maintains queues of blocked threads, a ready pool, a priority-based
// scheduler and a time-slicing algorithm, all under a single global
// spin-lock acquired with the hardware's test-and-set instruction.
//
// This module substitutes a deterministic discrete-step simulation for that
// hardware (see DESIGN.md, Substitutions):
//
//  - The machine has K simulated processors. Each fiber occupies a processor
//    while runnable; the Nub's ready pool holds fibers awaiting one.
//  - Execution proceeds in atomic steps. Before every shared-memory
//    micro-operation a fiber calls Machine::Step(), which suspends it back
//    to the driver; the driver picks which processor's fiber performs the
//    next step and resumes it. All interleavings of the real machine at
//    instruction granularity are reachable by some choice sequence, and a
//    fixed choice sequence replays deterministically.
//  - Fibers are coroutines on the thread that calls Run() (fiber.h): the
//    whole machine, every simulated processor included, is one OS thread,
//    and a step costs one stack switch each way.
//  - The Nub spin-lock is modelled exactly: acquisition is a test-and-set
//    step; a fiber that fails busy-waits. (Busy-wait steps have no visible
//    effect, so the driver simply does not select a spinning fiber until
//    the lock is free — the reachable behaviours are unchanged and
//    exhaustive exploration stays finite.) Preemption never interrupts a
//    spin-lock holder, as in a kernel that masks interrupts in the Nub.
//  - Time slicing: after `time_slice` steps a fiber is preempted at its next
//    step boundary (if an equal-or-higher-priority fiber is waiting) and
//    rotated through the ready pool.
//
// Scheduling choices come from a Chooser: seeded-random for stress, or a
// replay/enumeration chooser for the model checker (src/model).

#ifndef TAOS_SRC_FIREFLY_MACHINE_H_
#define TAOS_SRC_FIREFLY_MACHINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/xorshift.h"
#include "src/firefly/fiber.h"
#include "src/spec/trace.h"

namespace taos::firefly {

// Picks the next fiber to perform a step.
class Chooser {
 public:
  virtual ~Chooser() = default;
  // `runnable` is never empty; returns an index into it.
  virtual std::size_t Choose(const std::vector<Fiber*>& runnable) = 0;
};

class RandomChooser : public Chooser {
 public:
  explicit RandomChooser(std::uint64_t seed) : rng_(seed) {}
  std::size_t Choose(const std::vector<Fiber*>& runnable) override {
    return rng_.Below(static_cast<std::uint32_t>(runnable.size()));
  }

 private:
  XorShift rng_;
};

// Weakly fair scheduling: rotates through the runnable fibers, so every
// continuously runnable fiber steps infinitely often. The specification
// promises no liveness at all; this chooser lets tests state the
// implementation-level property "live under a fair scheduler".
class RoundRobinChooser : public Chooser {
 public:
  std::size_t Choose(const std::vector<Fiber*>& runnable) override {
    return next_++ % runnable.size();
  }

 private:
  std::size_t next_ = 0;
};

struct MachineConfig {
  int cpus = 2;
  std::uint64_t time_slice = 0;  // steps per slice; 0 disables preemption
  std::uint64_t max_steps = 2'000'000;  // livelock guard
  std::uint64_t seed = 1;        // for the default RandomChooser
  Chooser* chooser = nullptr;    // overrides the seeded default if set
  spec::TraceSink* trace = nullptr;
};

struct RunResult {
  bool completed = false;  // every fiber ran to the end of its body
  bool deadlock = false;   // progress stopped with fibers still blocked
  bool hit_step_limit = false;
  std::uint64_t steps = 0;
  std::vector<std::string> stuck_fibers;  // names, when deadlocked

  std::string ToString() const;
};

class Machine {
 public:
  explicit Machine(MachineConfig config = {});
  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // Creates a fiber and places it in the ready pool. Must be called before
  // Run() or from inside a running fiber.
  FiberHandle Fork(std::function<void()> body, int priority = 0,
                   std::string name = "");

  // Drives the machine until every fiber completes, deadlock, or the step
  // limit. Call at most once.
  RunResult Run();

  // ---- called from fiber context ----

  // Marks an atomic step boundary; the next shared-memory micro-op of the
  // calling fiber is one atomic step. May preempt (time slice).
  void Step();

  static Fiber* Self();

  // The Nub spin-lock. SpinAcquire contains its own Step()s (each
  // test-and-set is a step); SpinRelease performs one.
  void SpinAcquire();
  void SpinRelease();
  bool SpinHeldBySelf() const { return spin_holder_ == Self(); }

  // De-schedules the calling fiber (which must hold the spin-lock, have
  // enqueued itself on some wait queue and set its block_kind), releasing
  // the spin-lock and freeing its processor, until it is readied and the
  // scheduler assigns it a processor again. Returns true if a MakeReady (a
  // grant or an Alert) has dequeued it by then. Returns false if only the
  // clock has readied it, once steps() reached `deadline_step`: the fiber is
  // then still on its wait queue with block_kind set, and must take the
  // spin-lock and dequeue itself, unless a MakeReady lands first. This is
  // the simulator's Parker::Park(deadline); the self-dequeue on top of it
  // is sync.cc's twin of ParkBlockedUntil (src/threads/timer.h).
  bool DescheduleSelfUntil(std::uint64_t deadline_step);
  void DescheduleSelf() { DescheduleSelfUntil(kNoDeadline); }

  // Ends a blocked fiber's wait: clears its blocked state and, unless the
  // clock already readied it, adds it to the ready pool, where the
  // scheduler will find it a processor. Caller must hold the spin-lock and
  // have taken f off its wait queue.
  void MakeReady(Fiber* f);

  // Changes a fiber's effective priority (requeueing it if it sits in the
  // ready pool). Used by the priority-inheritance mutex extension.
  void SetFiberPriority(Fiber* f, int priority);

  // ---- tracing & introspection ----
  spec::TraceSink* trace() const { return config_.trace; }
  bool tracing() const { return config_.trace != nullptr; }
  spec::ObjId NextObjId() { return next_obj_id_++; }
  std::uint64_t steps() const { return steps_; }
  const MachineConfig& config() const { return config_; }

  // Number of preemptions performed by the time-slicer (for tests).
  std::uint64_t preemptions() const { return preemptions_; }

  // Times a fiber was dispatched on a different processor than before —
  // "the scheduler is free to move it from one processor to another".
  std::uint64_t migrations() const { return migrations_; }

  // Failed test-and-set attempts on the Nub spin-lock (contention events).
  std::uint64_t spin_contentions() const { return spin_contentions_; }

  // Timed waits the simulated clock interrupt readied (for tests). Each
  // such waiter then dequeued itself, or found that a grant or an Alert had
  // dequeued it first.
  std::uint64_t timer_expiries() const { return timer_expiries_; }

  // True once Run() ended in deadlock or at the step limit. Simulated
  // synchronization objects skip their "no one still queued" destructor
  // checks on an aborted machine.
  bool Aborted() const { return aborted_; }

  // True while the destructor is unwinding parked fibers; simulated
  // primitives bail out instead of scheduling.
  bool ShuttingDown() const { return shutting_down_; }

 private:
  static constexpr int kMaxPriority = 8;

  void FiberMain(Fiber* f);  // the body of every fiber's Context
  void YieldToDriver();
  void Switch(Fiber* f);  // driver side: runs f until it yields
  void KillStragglers();
  void Dispatch();  // assign ready fibers to idle processors
  void CollectRunnable(std::vector<Fiber*>* out) const;
  void MaybePreempt(Fiber* f);
  bool ReadyFiberAtOrAbove(int priority) const;
  void Ready(Fiber* f);  // into the ready pool

  // The simulated clock interrupt: readies each blocked fiber whose
  // deadline has passed, leaving it on its wait queue. Fires only with the
  // spin-lock free (a real Nub's interrupt handler would acquire it; the
  // driver runs the whole handler between steps instead).
  void ReadyDueTimedWaits();
  // When nothing is runnable but timed waits are pending, advances steps_
  // to the earliest deadline (the idle machine sleeps until the next clock
  // interrupt). Returns false if no timed-blocked fiber exists.
  bool JumpToNextDeadline();

  MachineConfig config_;
  std::unique_ptr<Chooser> owned_chooser_;
  Chooser* chooser_ = nullptr;

  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<Fiber*> cpu_fiber_;  // per-processor current fiber (or null)
  IntrusiveQueue<Fiber, &Fiber::ready_node> ready_pool_[kMaxPriority];

  bool spin_bit_ = false;
  Fiber* spin_holder_ = nullptr;

  bool shutting_down_ = false;
  bool ran_ = false;
  bool aborted_ = false;

  std::uint64_t steps_ = 0;
  std::uint64_t preemptions_ = 0;
  std::uint64_t migrations_ = 0;
  std::uint64_t spin_contentions_ = 0;
  std::uint64_t timer_expiries_ = 0;
  spec::ThreadId next_thread_id_ = 1;
  spec::ObjId next_obj_id_ = 1;
};

}  // namespace taos::firefly

#endif  // TAOS_SRC_FIREFLY_MACHINE_H_
