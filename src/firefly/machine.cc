#include "src/firefly/machine.h"

#include <sstream>
#include <utility>

#include "src/base/alerted.h"
#include "src/base/check.h"

namespace taos::firefly {

namespace {
// The fiber the driver is running on this thread; null in driver code.
thread_local Fiber* tls_fiber = nullptr;
}  // namespace

std::string RunResult::ToString() const {
  std::ostringstream os;
  if (completed) {
    os << "completed";
  } else if (deadlock) {
    os << "DEADLOCK (stuck:";
    for (const std::string& n : stuck_fibers) {
      os << " " << n;
    }
    os << ")";
  } else if (hit_step_limit) {
    os << "step limit";
  } else {
    os << "not run";
  }
  os << " after " << steps << " steps";
  return os.str();
}

Machine::Machine(MachineConfig config) : config_(config) {
  TAOS_CHECK(config_.cpus >= 1);
  if (config_.chooser != nullptr) {
    chooser_ = config_.chooser;
  } else {
    owned_chooser_ = std::make_unique<RandomChooser>(config_.seed);
    chooser_ = owned_chooser_.get();
  }
  cpu_fiber_.assign(static_cast<std::size_t>(config_.cpus), nullptr);
}

Machine::~Machine() {
  // Unwind fibers Run() left unfinished (it was never called, or they are
  // still parked), so no stack is dropped with live frames on it.
  KillStragglers();
  // Drain the ready pools so queue destructors see empty lists.
  for (auto& q : ready_pool_) {
    while (q.PopFront() != nullptr) {
    }
  }
}

FiberHandle Machine::Fork(std::function<void()> body, int priority,
                          std::string name) {
  TAOS_CHECK(priority >= 0 && priority < kMaxPriority);
  auto fiber = std::make_unique<Fiber>();
  Fiber* f = fiber.get();
  f->machine = this;
  f->id = next_thread_id_++;
  f->priority = priority;
  f->base_priority = priority;
  f->name = name.empty() ? ("fiber" + std::to_string(f->id)) : std::move(name);
  f->body = std::move(body);
  f->context = std::make_unique<Context>([this, f] { FiberMain(f); });
  f->run_state = Fiber::Run::kReadyPool;
  ready_pool_[priority].PushBack(f);
  fibers_.push_back(std::move(fiber));
  return FiberHandle{f};
}

void Machine::FiberMain(Fiber* f) {
  try {
    if (!shutting_down_) {  // a fiber killed before its first step never runs
      f->body();
    }
  } catch (const FiberKilled&) {
  } catch (const Alerted&) {
    f->ended_by_alert = true;
  }
  f->run_state = Fiber::Run::kDone;
  if (f->cpu >= 0) {
    cpu_fiber_[static_cast<std::size_t>(f->cpu)] = nullptr;
    f->cpu = -1;
  }
}

Fiber* Machine::Self() {
  TAOS_CHECK(tls_fiber != nullptr);
  return tls_fiber;
}

void Machine::YieldToDriver() {
  Context::Suspend();
  if (shutting_down_) {
    throw FiberKilled{};
  }
}

void Machine::Switch(Fiber* f) {
  Fiber* outer = std::exchange(tls_fiber, f);
  f->context->Resume();
  tls_fiber = outer;
}

void Machine::Step() {
  Fiber* f = Self();
  if (shutting_down_) {
    return;  // tearing down: no more scheduling, let the unwind proceed
  }
  ++steps_;
  ++f->slice_steps;
  MaybePreempt(f);
  YieldToDriver();
}

void Machine::MaybePreempt(Fiber* f) {
  if (config_.time_slice == 0 || f->slice_steps < config_.time_slice) {
    return;
  }
  if (spin_holder_ == f) {
    return;  // never preempt inside the Nub (interrupts masked)
  }
  if (!ReadyFiberAtOrAbove(f->priority)) {
    return;
  }
  // Timer interrupt: rotate this fiber through the ready pool.
  ++preemptions_;
  f->slice_steps = 0;
  cpu_fiber_[static_cast<std::size_t>(f->cpu)] = nullptr;
  f->cpu = -1;
  f->run_state = Fiber::Run::kReadyPool;
  ready_pool_[f->priority].PushBack(f);
  // Fall through: the YieldToDriver in Step() parks us until re-dispatched.
}

bool Machine::ReadyFiberAtOrAbove(int priority) const {
  for (int p = kMaxPriority - 1; p >= priority; --p) {
    if (!ready_pool_[p].Empty()) {
      return true;
    }
  }
  return false;
}

void Machine::SpinAcquire() {
  Fiber* f = Self();
  for (;;) {
    if (shutting_down_) {
      return;
    }
    Step();  // the test-and-set instruction
    if (!spin_bit_) {
      spin_bit_ = true;
      spin_holder_ = f;
      return;
    }
    // Busy-wait. The driver will not select us again until the bit clears;
    // the skipped retries have no visible effect.
    ++spin_contentions_;
    f->run_state = Fiber::Run::kSpinning;
    YieldToDriver();
    // Back on the processor with the lock (momentarily) free: retry.
  }
}

void Machine::SpinRelease() {
  if (shutting_down_) {
    return;
  }
  Fiber* f = Self();
  TAOS_CHECK(spin_holder_ == f);
  Step();  // the clear instruction
  spin_bit_ = false;
  spin_holder_ = nullptr;
}

bool Machine::DescheduleSelfUntil(std::uint64_t deadline_step) {
  Fiber* f = Self();
  if (shutting_down_) {
    return true;  // tearing down: the caller's ShuttingDown check ends it
  }
  TAOS_CHECK(spin_holder_ == f);
  TAOS_CHECK(f->block_kind != Fiber::BlockKind::kNone);
  // De-schedule: free the processor, hand back the spin-lock, and wait for
  // MakeReady or the clock, then dispatch. Within the simulation this whole
  // transition is one step (nothing else runs between its parts).
  Step();
  f->deadline_step = deadline_step;
  f->run_state = Fiber::Run::kBlocked;
  cpu_fiber_[static_cast<std::size_t>(f->cpu)] = nullptr;
  f->cpu = -1;
  spin_bit_ = false;
  spin_holder_ = nullptr;
  YieldToDriver();
  return f->block_kind == Fiber::BlockKind::kNone;
}

void Machine::MakeReady(Fiber* f) {
  if (shutting_down_) {
    return;
  }
  TAOS_CHECK(spin_holder_ == Self());
  TAOS_CHECK(f->block_kind != Fiber::BlockKind::kNone);
  f->block_kind = Fiber::BlockKind::kNone;
  f->blocked_obj = nullptr;
  if (f->run_state == Fiber::Run::kBlocked) {
    Ready(f);  // otherwise the clock readied f and it is already runnable
  }
}

void Machine::Ready(Fiber* f) {
  f->run_state = Fiber::Run::kReadyPool;
  f->slice_steps = 0;
  ready_pool_[f->priority].PushBack(f);
}

void Machine::ReadyDueTimedWaits() {
  if (spin_bit_) {
    return;  // a fiber is inside the Nub; the interrupt stays masked
  }
  for (auto& f : fibers_) {
    if (f->run_state == Fiber::Run::kBlocked && f->deadline_step <= steps_) {
      ++timer_expiries_;
      Ready(f.get());
    }
  }
}

bool Machine::JumpToNextDeadline() {
  std::uint64_t earliest = kNoDeadline;
  for (const auto& f : fibers_) {
    if (f->run_state == Fiber::Run::kBlocked && f->deadline_step < earliest) {
      earliest = f->deadline_step;
    }
  }
  if (earliest == kNoDeadline) {
    return false;
  }
  // The machine is idle until the next clock interrupt: virtual time skips
  // straight to it. (If nothing was runnable the spin-lock is free — a
  // holder would be on a processor — so the clock fires next iteration.)
  if (steps_ < earliest) {
    steps_ = earliest;
  }
  return true;
}

void Machine::SetFiberPriority(Fiber* f, int priority) {
  if (shutting_down_) {
    return;
  }
  TAOS_CHECK(priority >= 0 && priority < kMaxPriority);
  if (f->priority == priority) {
    return;
  }
  if (f->run_state == Fiber::Run::kReadyPool) {
    ready_pool_[f->priority].Remove(f);
    f->priority = priority;
    ready_pool_[priority].PushBack(f);
  } else {
    f->priority = priority;
  }
}

void Machine::Dispatch() {
  for (std::size_t cpu = 0; cpu < cpu_fiber_.size(); ++cpu) {
    if (cpu_fiber_[cpu] != nullptr) {
      continue;
    }
    // Highest priority first; FIFO within a priority.
    for (int p = kMaxPriority - 1; p >= 0; --p) {
      if (Fiber* f = ready_pool_[p].PopFront()) {
        f->run_state = Fiber::Run::kOnCpu;
        f->cpu = static_cast<int>(cpu);
        if (f->last_cpu >= 0 && f->last_cpu != f->cpu) {
          ++migrations_;
        }
        f->last_cpu = f->cpu;
        f->slice_steps = 0;
        cpu_fiber_[cpu] = f;
        break;
      }
    }
  }
}

void Machine::CollectRunnable(std::vector<Fiber*>* out) const {
  out->clear();
  for (Fiber* f : cpu_fiber_) {
    if (f == nullptr) {
      continue;
    }
    if (f->run_state == Fiber::Run::kOnCpu) {
      out->push_back(f);
    } else if (f->run_state == Fiber::Run::kSpinning && !spin_bit_) {
      out->push_back(f);
    }
  }
}

RunResult Machine::Run() {
  TAOS_CHECK(!ran_);
  ran_ = true;
  RunResult result;
  std::vector<Fiber*> runnable;
  for (;;) {
    ReadyDueTimedWaits();
    Dispatch();
    CollectRunnable(&runnable);
    if (runnable.empty()) {
      if (JumpToNextDeadline()) {
        continue;  // not deadlock: the clock readies a waiter at the new now
      }
      bool all_done = true;
      for (const auto& f : fibers_) {
        if (f->run_state != Fiber::Run::kDone) {
          all_done = false;
          result.stuck_fibers.push_back(f->name);
        }
      }
      result.completed = all_done;
      result.deadlock = !all_done;
      break;
    }
    if (steps_ >= config_.max_steps) {
      result.hit_step_limit = true;
      break;
    }
    Fiber* f = runnable[chooser_->Choose(runnable)];
    if (f->run_state == Fiber::Run::kSpinning) {
      f->run_state = Fiber::Run::kOnCpu;
    }
    Switch(f);
  }
  result.steps = steps_;
  aborted_ = result.deadlock || result.hit_step_limit;
  if (aborted_) {
    // Unwind the stuck fibers NOW, while the synchronization objects their
    // destructors may touch (e.g. a Lock releasing its Mutex) still exist —
    // the caller's objects outlive Run() but not ~Machine().
    KillStragglers();
  }
  return result;
}

void Machine::KillStragglers() {
  shutting_down_ = true;
  for (auto& f : fibers_) {
    if (f->run_state != Fiber::Run::kDone) {
      Switch(f.get());  // FiberKilled is thrown from its suspend point
    }
  }
}

}  // namespace taos::firefly
