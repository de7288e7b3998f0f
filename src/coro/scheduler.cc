#include "src/coro/scheduler.h"

#include <sstream>

#include "src/base/alerted.h"
#include "src/base/check.h"

namespace taos::coro {

namespace {
thread_local Scheduler* tls_scheduler = nullptr;
thread_local Coro* tls_current = nullptr;
}  // namespace

std::string CoroRunResult::ToString() const {
  std::ostringstream os;
  if (completed) {
    os << "completed";
  } else if (deadlock) {
    os << "DEADLOCK (stuck:";
    for (const std::string& n : stuck) {
      os << " " << n;
    }
    os << ")";
  } else {
    os << "not run";
  }
  return os.str();
}

Scheduler::~Scheduler() {
  // Started coroutines are always fully unwound inside Run() (a deadlocked
  // Run kills its stragglers before returning, while the caller's
  // synchronization objects are still alive). Anything left here never
  // began executing its body, so there is nothing on its stack to unwind.
  shutting_down_ = true;
  while (run_queue_.PopFront() != nullptr) {
  }
  for (auto& c : coros_) {
    TAOS_CHECK(c->state == Coro::State::kDone || !c->context->started());
    if (c->queue_node.InQueue()) {
      // Drained above or still parked on a caller queue that died first;
      // either way sever it.
      c->queue_node.prev = nullptr;
      c->queue_node.next = nullptr;
    }
    while (c->joiners.PopFront() != nullptr) {
    }
  }
}

CoroHandle Scheduler::Fork(std::function<void()> body, std::string name) {
  auto coro = std::make_unique<Coro>();
  Coro* c = coro.get();
  c->scheduler = this;
  c->id = next_id_++;
  c->name = name.empty() ? ("coro" + std::to_string(c->id)) : std::move(name);
  c->body = std::move(body);
  c->context = std::make_unique<Context>([this, c] { CoroMain(c); });
  c->state = Coro::State::kReady;
  run_queue_.PushBack(c);
  coros_.push_back(std::move(coro));
  return CoroHandle{c};
}

Coro* Scheduler::Current() {
  TAOS_CHECK(tls_current != nullptr);
  return tls_current;
}

Coro* Scheduler::CurrentOrNull() { return tls_current; }

Scheduler* Scheduler::CurrentScheduler() {
  TAOS_CHECK(tls_scheduler != nullptr);
  return tls_scheduler;
}

void Scheduler::CoroMain(Coro* self) {
  try {
    self->body();
  } catch (const CoroKilled&) {
  } catch (const Alerted&) {
    self->ended_by_alert = true;
  }
  self->state = Coro::State::kDone;
  while (Coro* j = self->joiners.PopFront()) {
    j->block_kind = Coro::BlockKind::kNone;
    MakeReady(j);
  }
}

void Scheduler::MakeReady(Coro* c) {
  if (shutting_down_) {
    // The straggler-killing loop will reach it; do not reschedule.
    c->block_kind = Coro::BlockKind::kNone;
    return;
  }
  TAOS_CHECK(c->state == Coro::State::kBlocked);
  c->state = Coro::State::kReady;
  c->block_kind = Coro::BlockKind::kNone;
  c->blocked_obj = nullptr;
  run_queue_.PushBack(c);
}

void Scheduler::SwitchToScheduler() {
  Coro* self = tls_current;
  Context::Suspend();
  // Resumed (possibly much later, possibly to be killed).
  if (self->killed) {
    self->killed = false;  // deliver exactly once; unwind code may block
    throw CoroKilled{};
  }
}

void Scheduler::BlockSelf() {
  Coro* self = Current();
  if (shutting_down_) {
    return;  // unwinding: pretend the wait was satisfied
  }
  TAOS_CHECK(self->state == Coro::State::kRunning);
  self->state = Coro::State::kBlocked;
  SwitchToScheduler();
}

void Scheduler::Yield() {
  Coro* self = Current();
  if (shutting_down_) {
    return;
  }
  self->state = Coro::State::kReady;
  run_queue_.PushBack(self);
  SwitchToScheduler();
}

void Scheduler::Join(CoroHandle h) {
  TAOS_CHECK(h.coro != nullptr);
  Coro* self = Current();
  if (h.coro->state == Coro::State::kDone || shutting_down_) {
    return;
  }
  h.coro->joiners.PushBack(self);
  self->block_kind = Coro::BlockKind::kJoin;
  self->blocked_obj = h.coro;
  BlockSelf();
}

void Scheduler::StartOrResume(Coro* c) {
  tls_current = c;
  c->state = Coro::State::kRunning;
  ++switches_;
  c->context->Resume();
  tls_current = nullptr;
}

CoroRunResult Scheduler::Run() {
  TAOS_CHECK(tls_current == nullptr);  // not from inside a coroutine
  TAOS_CHECK(!shutting_down_);
  Scheduler* prev = tls_scheduler;
  tls_scheduler = this;

  while (Coro* c = run_queue_.PopFront()) {
    StartOrResume(c);
  }

  CoroRunResult result;
  result.completed = true;
  for (const auto& c : coros_) {
    if (c->state != Coro::State::kDone) {
      result.completed = false;
      result.stuck.push_back(c->name);
    }
  }
  result.deadlock = !result.completed;

  if (result.deadlock) {
    // Unwind the stuck coroutines now, while the wait queues they sit on
    // (owned by the caller) are still alive. The scheduler is dead
    // afterwards.
    aborted_ = true;
    shutting_down_ = true;
    for (auto& c : coros_) {
      if (c->state == Coro::State::kBlocked) {
        c->killed = true;
        StartOrResume(c.get());
      }
    }
  }

  tls_scheduler = prev;
  return result;
}

}  // namespace taos::coro
