#include "src/threads/semaphore.h"

#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/spec/action.h"
#include "src/threads/nub.h"
#include "src/threads/timer.h"

namespace taos {

#if defined(__x86_64__)
static_assert(sizeof(Semaphore) == 56, "Semaphore is its LockCore alone");
#endif

Semaphore::Semaphore() : core_(Nub::Get().NextObjId()) {}

void Semaphore::PSlow() {
  obs::WithEvent(obs::Op::kP, id(), [&] { PUntil(kNoDeadline); });
}

WaitResult Semaphore::PUntil(std::uint64_t deadline_ns) {
  Nub& nub = Nub::Get();
  ThreadRecord* self = nub.Current();
  if (nub.tracing()) {
    obs::Inc(obs::Counter::kNubP);
    return core_.TracedAcquireFor(
        self, deadline_ns, ThreadRecord::BlockKind::kSemaphore,
        /*alertable=*/false,
        {.acquired = spec::MakeP(self->id, id()),
         .timeout = spec::MakePTimeout(self->id, id())});
  }
  if (TestAndSet()) {
    return WaitResult::kSatisfied;
  }
  if (deadline_ns == 0) {
    return WaitResult::kTimeout;
  }
  obs::Inc(obs::Counter::kNubP);
  return core_.AcquireFor(self, deadline_ns,
                          ThreadRecord::BlockKind::kSemaphore,
                          /*alertable=*/false);
}

bool Semaphore::TryPSlow() {
  Nub& nub = Nub::Get();
  if (nub.tracing()) {
    return core_.TracedTryAcquire(spec::MakeP(nub.Current()->id, id()));
  }
  return TestAndSet();
}

WaitResult Semaphore::PFor(std::chrono::nanoseconds timeout) {
  WaitResult result = WaitResult::kSatisfied;
  obs::WithEvent(obs::Op::kP, id(), [&] {
    result = PUntil(timeout.count() > 0 ? DeadlineAfter(timeout) : 0);
  });
  obs::Inc(result == WaitResult::kSatisfied
               ? obs::Counter::kTimedWaitSatisfied
               : obs::Counter::kTimedWaitTimeouts);
  return result;
}

void Semaphore::VSlow() {
  obs::WithEvent(obs::Op::kV, id(), [&] {
    Nub& nub = Nub::Get();
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubV);
      core_.TracedRelease(spec::MakeV(nub.Current()->id, id()));
      return;
    }
    ClearBit();
  });
}

}  // namespace taos
