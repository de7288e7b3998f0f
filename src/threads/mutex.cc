#include "src/threads/mutex.h"

#include "src/base/check.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/spec/action.h"
#include "src/threads/nub.h"
#include "src/threads/timer.h"

namespace taos {

// The core (56 B) plus holder_ fill one cache line. Keep it so: perfbench
// kv's shards are 64-byte aligned, so the Mutex's size sets how many cache
// lines each spans, and kv's throughput has moved with it before.
#if defined(__x86_64__)
static_assert(sizeof(Mutex) == 64, "Mutex grew past one cache line");
#endif

Mutex::Mutex() : core_(Nub::Get().NextObjId()) {}

Mutex::~Mutex() {
  TAOS_CHECK(!core_.IsSetForDebug());
}

void Mutex::AcquireSlow() {
  obs::WithEvent(obs::Op::kAcquire, id(), [&] { AcquireUntil(kNoDeadline); });
}

WaitResult Mutex::AcquireUntil(std::uint64_t deadline_ns) {
  Nub& nub = Nub::Get();
  ThreadRecord* self = nub.Current();
  if (nub.tracing()) {
    obs::Inc(obs::Counter::kNubAcquire);
    return TracedAcquireFor(self, deadline_ns,
                            spec::MakeAcquire(self->id, id()))
               ? WaitResult::kSatisfied
               : WaitResult::kTimeout;
  }
  // The user-code test-and-set again (the in-line one may not have run):
  // the Nub is entered only if it fails.
  WaitResult result = WaitResult::kSatisfied;
  if (core_.TestAndSet()) {
    obs::Inc(obs::Counter::kFastMutexAcquire);
  } else if (deadline_ns == 0) {
    return WaitResult::kTimeout;
  } else {
    obs::Inc(obs::Counter::kNubAcquire);
    result = core_.AcquireFor(self, deadline_ns,
                              ThreadRecord::BlockKind::kMutex,
                              /*alertable=*/false);
  }
  if (result == WaitResult::kSatisfied) {
    NoteAcquired(self);
  }
  return result;
}

bool Mutex::TryAcquireSlow() {
  Nub& nub = Nub::Get();
  ThreadRecord* self = nub.Current();
  if (nub.tracing()) {
    if (!core_.TracedTryAcquire(spec::MakeAcquire(self->id, id()))) {
      return false;
    }
  } else if (core_.TestAndSet()) {
    obs::Inc(obs::Counter::kFastMutexAcquire);
  } else {
    return false;
  }
  NoteAcquired(self);
  return true;
}

WaitResult Mutex::AcquireFor(std::chrono::nanoseconds timeout) {
  WaitResult result = WaitResult::kSatisfied;
  obs::WithEvent(obs::Op::kAcquire, id(), [&] {
    result = AcquireUntil(timeout.count() > 0 ? DeadlineAfter(timeout) : 0);
  });
  obs::Inc(result == WaitResult::kSatisfied
               ? obs::Counter::kTimedWaitSatisfied
               : obs::Counter::kTimedWaitTimeouts);
  return result;
}

void Mutex::ReleaseSlow() {
  obs::WithEvent(obs::Op::kRelease, id(), [&] {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubRelease);
      NoteReleased(self);
      core_.TracedRelease(spec::MakeRelease(self->id, id()));
      return;
    }
    if (obs::diag::Enabled()) [[unlikely]] {
      obs::diag::ClearOwner(id());
    }
    ClearBit(self);
  });
}

bool Mutex::TracedAcquireFor(ThreadRecord* self, std::uint64_t deadline_ns,
                             const spec::Action& emit, ObjLock* co_lock,
                             const std::function<void()>& at_success) {
  if (core_.TracedAcquireFor(
          self, deadline_ns, ThreadRecord::BlockKind::kMutex,
          /*alertable=*/false,
          {.acquired = emit,
           .timeout = spec::MakeAcquireTimeout(self->id, id())},
          co_lock, at_success) != WaitResult::kSatisfied) {
    return false;
  }
  NoteAcquired(self);
  return true;
}

}  // namespace taos
