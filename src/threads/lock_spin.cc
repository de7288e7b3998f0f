#include "src/threads/lock_spin.h"

#include <algorithm>

#include "src/base/chaos.h"
#include "src/base/spinlock.h"
#include "src/obs/metrics.h"
#include "src/waitq/parker.h"

namespace taos {

bool SpinForLock(std::atomic<bool>* spinner, std::uint64_t deadline_ns,
                 bool (*attempt)(void*), void* arg) {
  // The flag is a heuristic, not a lock: relaxed is enough, and the load
  // keeps a busy flag's line shared among the waiters that find it set.
  if (spinner != nullptr &&
      (spinner->load(std::memory_order_relaxed) ||
       spinner->exchange(true, std::memory_order_relaxed))) {
    obs::Inc(obs::Counter::kLockSpinBusy);
    TAOS_CHAOS(kLockSpinToEnqueue);
    return false;
  }
  waitq::SpinGate& gate = waitq::SpinGate::Get();
  const unsigned cpu = waitq::SpinGate::CurrentCpu();
  bool hit = false;
  if (!gate.Admit(cpu)) {
    obs::Inc(obs::Counter::kLockSpinSkipped);
  } else {
    // One attempt, and one clock read, per 32 pauses (~0.8 µs on a 26 ns
    // pause; see the header for why not every pause).
    const std::uint64_t end = std::min(
        obs::NowNanos() + waitq::Parker::kSpinBudgetNs, deadline_ns);
    do {
      for (int i = 0; i < 32; ++i) {
        SpinLock::Pause();
      }
      hit = attempt(arg);
    } while (!hit && obs::NowNanos() < end);
    gate.Record(cpu, hit);
    obs::Inc(hit ? obs::Counter::kLockSpinHits
                 : obs::Counter::kLockSpinMisses);
  }
  if (spinner != nullptr) {
    spinner->store(false, std::memory_order_relaxed);
  }
  if (!hit) {
    TAOS_CHAOS(kLockSpinToEnqueue);
  }
  return hit;
}

}  // namespace taos
