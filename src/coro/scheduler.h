// The paper's *other* implementation of the Threads package:
//
//   "We have two implementations of the Threads package. One runs within
//    any single process on a normal Unix system. It is implemented using a
//    co-routine mechanism for blocking one thread and resuming another."
//
// This module is that implementation: threads are coroutines (each a
// taos::Context, src/base/context.h, the switch the simulated Firefly also
// runs its fibers on) multiplexed onto the one OS thread that calls Run().
// There is no preemption and no parallelism; control moves
// only at blocking operations and explicit Yields, so the synchronization
// primitives (src/coro/sync.h) need none of the Firefly machinery — no
// lock bit, no spin-lock, no eventcount. Mutex release hands off directly;
// the wakeup-waiting race cannot occur because nothing runs between a
// Wait's release-mutex and its block. The same *specification* governs both
// implementations — the point the paper makes about specifications
// insulating clients from implementation structure.

#ifndef TAOS_SRC_CORO_SCHEDULER_H_
#define TAOS_SRC_CORO_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/context.h"
#include "src/base/intrusive_queue.h"
#include "src/spec/state.h"
#include "src/spec/trace.h"

namespace taos::coro {

class Scheduler;

// Thrown into blocked coroutines during scheduler teardown so their stacks
// unwind (running destructors) before the stacks are freed.
struct CoroKilled {};

struct Coro {
  QueueNode queue_node;  // run queue or a wait queue

  Scheduler* scheduler = nullptr;
  spec::ThreadId id = spec::kNil;
  std::string name;

  enum class State : std::uint8_t { kReady, kRunning, kBlocked, kDone };
  State state = State::kReady;

  bool alerted = false;      // membership in the spec's `alerts` set
  bool alertable = false;    // blocked in AlertWait / AlertP
  bool alert_woken = false;  // dequeued by Alert
  void* blocked_obj = nullptr;
  enum class BlockKind : std::uint8_t { kNone, kMutex, kSemaphore, kCondition, kJoin };
  BlockKind block_kind = BlockKind::kNone;

  bool killed = false;
  bool ended_by_alert = false;

  IntrusiveQueue<Coro> joiners;  // coroutines waiting for this one to end

  std::function<void()> body;
  std::unique_ptr<Context> context;  // runs body on the coroutine's stack

  Coro() = default;
  Coro(const Coro&) = delete;
  Coro& operator=(const Coro&) = delete;
};

struct CoroHandle {
  Coro* coro = nullptr;
  spec::ThreadId id() const { return coro ? coro->id : spec::kNil; }
  bool operator==(const CoroHandle&) const = default;
};

struct CoroRunResult {
  bool completed = false;
  bool deadlock = false;
  std::vector<std::string> stuck;  // names of forever-blocked coroutines

  std::string ToString() const;
};

class Scheduler {
 public:
  Scheduler() = default;
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Creates a coroutine (ready to run). Callable before Run() and from
  // inside running coroutines.
  CoroHandle Fork(std::function<void()> body, std::string name = "");

  // Runs coroutines round-robin until all complete or none can proceed.
  // May be called repeatedly (e.g. after Fork-ing more work).
  CoroRunResult Run();

  // ---- called from coroutine context ----

  // Cooperative reschedule: goes to the back of the run queue.
  void Yield();

  // Blocks until the coroutine finishes. Returns immediately if it has.
  void Join(CoroHandle h);

  // The running coroutine.
  static Coro* Current();

  // Like Current(), but null when called outside coroutine context.
  static Coro* CurrentOrNull();

  // The number of context switches performed (for the E14 bench).
  std::uint64_t switches() const { return switches_; }

  // Spec tracing: when set, every synchronization operation emits its
  // atomic action. Cooperative scheduling makes the emission trivially
  // exact — nothing runs between an action and its emission.
  void SetTrace(spec::TraceSink* sink) { trace_ = sink; }
  spec::TraceSink* trace() const { return trace_; }
  void Emit(const spec::Action& action) {
    if (trace_ != nullptr) {
      trace_->Emit(action);
    }
  }

  // Fresh ObjId for a coro::Mutex/Condition/Semaphore.
  spec::ObjId NextObjId() { return next_obj_id_++; }

  // The scheduler owning the coroutine currently executing (valid inside
  // coroutine context and while Run() is active on this thread).
  static Scheduler* CurrentScheduler();

  bool ShuttingDown() const { return shutting_down_; }

  // True once Run() detected a deadlock (and unwound the stragglers).
  // Synchronization-object destructors tolerate leftover queue entries on
  // an aborted scheduler.
  bool Aborted() const { return aborted_; }

  // ---- used by the synchronization primitives ----

  // The caller must already be enqueued on some wait queue (or marked with
  // its BlockKind); suspends until MakeReady. Throws CoroKilled if the
  // scheduler is being destroyed.
  void BlockSelf();

  // Moves a blocked coroutine to the run queue.
  void MakeReady(Coro* c);

 private:
  void CoroMain(Coro* self);  // the body of every coroutine's Context
  void SwitchToScheduler();
  void StartOrResume(Coro* c);

  std::vector<std::unique_ptr<Coro>> coros_;
  IntrusiveQueue<Coro> run_queue_;
  spec::ThreadId next_id_ = 1;
  spec::ObjId next_obj_id_ = 1;
  spec::TraceSink* trace_ = nullptr;
  std::uint64_t switches_ = 0;
  bool shutting_down_ = false;
  bool aborted_ = false;
};

}  // namespace taos::coro

#endif  // TAOS_SRC_CORO_SCHEDULER_H_
