#include "src/threads/thread.h"

#include <utility>

#include "src/base/check.h"
#include "src/threads/alert.h"
#include "src/threads/nub.h"

namespace taos {

Thread::~Thread() {
  if (os_.joinable()) {
    Join();
  }
}

Thread Thread::Fork(std::function<void()> fn) {
  // The record is created by the parent so the handle is valid immediately,
  // even before the child runs (Alert on a not-yet-started thread must
  // work: the pending alert is found at the child's first alertable point).
  // Two claims: the child's, dropped when it exits, and the Thread's,
  // dropped by Join.
  ThreadRecord* rec = Nub::Get().CreateRecord(/*owners=*/2);
  std::thread os([rec, fn = std::move(fn)]() mutable {
    Nub::AdoptRecord(rec);
    try {
      fn();
    } catch (const Alerted&) {
      rec->ended_by_alert.store(true, std::memory_order_release);
    }
  });
  return Thread(ThreadHandle::Of(rec), std::move(os));
}

void Thread::Join() {
  TAOS_CHECK(os_.joinable());
  os_.join();
  ended_by_alert_ = handle_.rec->ended_by_alert.load(std::memory_order_acquire);
  Nub::Get().ReleaseRecord(handle_.rec);
}

ThreadHandle Thread::Self() {
  return ThreadHandle::Of(Nub::Get().Current());
}

bool Thread::EndedByAlert() const {
  TAOS_CHECK(handle_.rec != nullptr);
  return os_.joinable()
             ? handle_.rec->ended_by_alert.load(std::memory_order_acquire)
             : ended_by_alert_;
}

}  // namespace taos
