#include "src/threads/nub.h"

#include <pthread.h>

#include "src/base/chaos.h"
#include "src/base/check.h"
#include "src/base/env.h"

namespace taos {

namespace internal {
constinit thread_local ThreadRecord* g_current = nullptr;
}  // namespace internal

namespace {

// Runs on an exiting thread that registered `arg` (its record), after its
// thread_local destructors, and drops the thread's claim. Nub::ExitCurrent
// runs it too, at the end of each Fork's life on a pooled host. A later
// synchronization call on this thread (from another key's destructor)
// registers a record again, which re-arms the key, and the next destructor
// round releases that one too. Wakes the thread still owes (it exits
// holding a mutex it signalled under) are paid first: the waiters then
// queue on that mutex, where the watchdog can see them, instead of staying
// parked on nothing.
void ExitRecord(void* arg) {
  auto* rec = static_cast<ThreadRecord*>(arg);
  if (rec->owed_wakes != nullptr) {
    WakeOwed(rec);
  }
  internal::g_current = nullptr;
  Nub::Get().ReleaseRecord(rec);
}

pthread_key_t RecordKey() {
  static const pthread_key_t key = [] {
    pthread_key_t k;
    TAOS_CHECK(pthread_key_create(&k, ExitRecord) == 0);
    return k;
  }();
  return key;
}

void SetCurrent(ThreadRecord* rec) {
  internal::g_current = rec;
  pthread_setspecific(RecordKey(), rec);
}

}  // namespace

Nub::Nub() {
  global_lock_mode_.store(EnvFlag("TAOS_NUB_GLOBAL_LOCK"));
}

ThreadRecord* Nub::CreateRecord(int owners) {
  ThreadRecord* rec = nullptr;
  {
    SpinGuard g(free_lock_);
    if (!free_.empty()) {
      rec = free_.back();
      free_.pop_back();
    }
  }
  if (rec == nullptr) {
    rec = new ThreadRecord();
    records_allocated_.fetch_add(1, std::memory_order_relaxed);
  }
  rec->refs.store(owners, std::memory_order_relaxed);
  rec->alerted.store(false, std::memory_order_relaxed);
  rec->ended_by_alert.store(false, std::memory_order_relaxed);
  rec->join_word.store(0, std::memory_order_relaxed);
  rec->poll_latch.store(0, std::memory_order_relaxed);
  rec->biased_rw = nullptr;
  rec->bias_slot_marked = false;
  // The id is the record's generation. It is written under the record lock
  // because a stale handle's Alert may be reading it there right now.
  const spec::ThreadId id =
      next_thread_id_.fetch_add(1, std::memory_order_relaxed);
  SpinGuard g(rec->lock);
  rec->id = id;
  if (rec->diag_slot != nullptr) {
    obs::diag::RetagWaiterSlot(rec->diag_slot, id);
  }
  return rec;
}

void Nub::AdoptRecord(ThreadRecord* rec) {
  TAOS_CHECK(internal::g_current == nullptr || internal::g_current == rec);
  SetCurrent(rec);
}

void Nub::ExitCurrent() {
  // Cleared first, so the host thread's own exit later finds no record to
  // release a second time.
  pthread_setspecific(RecordKey(), nullptr);
  ExitRecord(internal::g_current);
}

ThreadRecord* Nub::RegisterCurrent() {
  SetCurrent(Get().CreateRecord(/*owners=*/1));
  return internal::g_current;
}

void Nub::ReleaseRecord(ThreadRecord* rec) {
  if (rec->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    return;
  }
  // The thread has exited and no Thread object needs the record any more,
  // but its id is still live: an Alert through a handle landing here sets
  // an alert nobody will consume, which is harmless.
  TAOS_CHAOS(kThreadExitToReclaim);
  {
    SpinGuard g(rec->lock);
    TAOS_CHECK(rec->block_kind == ThreadRecord::BlockKind::kNone);
    rec->id = spec::kNil;
  }
  SpinGuard g(free_lock_);
  free_.push_back(rec);
}

}  // namespace taos
