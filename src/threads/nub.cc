#include "src/threads/nub.h"

#include "src/base/check.h"
#include "src/base/env.h"

namespace taos {

namespace internal {
constinit thread_local ThreadRecord* g_current = nullptr;
}  // namespace internal

Nub::Nub() {
  global_lock_mode_.store(EnvFlag("TAOS_NUB_GLOBAL_LOCK"));
}

ThreadRecord* Nub::CreateRecord() {
  auto rec = std::make_unique<ThreadRecord>();
  rec->id = next_thread_id_.fetch_add(1, std::memory_order_relaxed);
  ThreadRecord* raw = rec.get();
  {
    SpinGuard g(registry_lock_);
    registry_.push_back(std::move(rec));
  }
  return raw;
}

void Nub::AdoptRecord(ThreadRecord* rec) {
  TAOS_CHECK(internal::g_current == nullptr || internal::g_current == rec);
  internal::g_current = rec;
}

ThreadRecord* Nub::RegisterCurrent() {
  internal::g_current = Get().CreateRecord();
  return internal::g_current;
}

ThreadRecord* Nub::RecordFor(spec::ThreadId id) {
  SpinGuard g(registry_lock_);
  for (const auto& rec : registry_) {
    if (rec->id == id) {
      return rec.get();
    }
  }
  return nullptr;
}

}  // namespace taos
