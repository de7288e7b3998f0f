#include "src/base/spinlock.h"

#include <thread>

namespace taos {

void SpinLock::AcquireSlow() {
  const std::uint64_t start = obs::NowNanos();
  std::uint64_t iters = 0;
  std::uint64_t wait = 1;
  for (;;) {
    // Busy-wait on a plain read until the bit looks clear, then retry the
    // test-and-set. `test()` is C++20.
    while (bit_.test(std::memory_order_relaxed)) {
      for (std::uint64_t i = 0; i < wait; ++i) {
        Pause();
      }
      iters += wait;
      if (wait < kMaxBackoffPauses) {
        wait <<= 1;
      }
      if (iters >= kYieldThreshold) {
        std::this_thread::yield();
      }
    }
    if (!bit_.test_and_set(std::memory_order_acquire)) {
      TAOS_CHAOS(kSpinAcquired);
      break;
    }
    ++iters;  // lost the race to another test-and-set
  }
  const std::uint64_t now = obs::NowNanos();
  obs::Inc(obs::Counter::kContendedSpinAcquires);
  obs::Add(obs::Counter::kSpinIterations, iters);
  obs::Record(obs::Histogram::kSpinIterationsPerAcquire, iters);
  obs::Record(obs::Histogram::kSpinAcquireNanos, now - start);
  if (obs::diag::Enabled()) [[unlikely]] {
    const std::uint64_t released = release_ns_.load(std::memory_order_relaxed);
    // Only meaningful if a diag-stamped release happened while we spun;
    // a zero stamp means diag came on mid-spin or the holder released
    // before we started waiting.
    if (released >= start && now > released) {
      obs::Record(obs::Histogram::kLockHandoffNanos, now - released);
    }
  }
}

}  // namespace taos
