#include "src/waitq/parker.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "src/base/chaos.h"
#include "src/base/spinlock.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"

#if defined(__linux__)
#include <linux/futex.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace taos::waitq {

namespace {

#if defined(__linux__)
void FutexWait(std::atomic<std::uint32_t>& word, std::uint32_t expected,
               const struct timespec* timeout = nullptr) {
  // Returns on wake, on EAGAIN (word already changed), on ETIMEDOUT (when a
  // relative `timeout` is given), or spuriously; the caller re-checks the
  // word either way.
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
          FUTEX_WAIT_PRIVATE, expected, timeout, nullptr, 0);
}

void FutexWakeOne(std::atomic<std::uint32_t>& word) {
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word),
          FUTEX_WAKE_PRIVATE, 1, nullptr, nullptr, 0);
}
#endif

// Consumes the wakeup-causality stamp deposited by Unpark (if any) and
// emits the wakee-side half of the flow edge plus the signal-to-running
// latency sample. Out of line from the permit protocol: called only after
// Park has consumed a permit, so the stamp reads are ordered after the
// waker's stamp writes by the permit word's release/acquire edge.
void ConsumeWakeStamp(std::atomic<std::uint64_t>& wake_flow,
                      std::atomic<std::uint64_t>& wake_ns) {
  const std::uint64_t flow = wake_flow.load(std::memory_order_relaxed);
  if (flow == 0) {
    return;
  }
  wake_flow.store(0, std::memory_order_relaxed);
  if (!obs::RecorderEnabled()) {
    return;  // stamped while on, drained while off: drop the orphan half
  }
  const std::uint64_t granted = wake_ns.load(std::memory_order_relaxed);
  const std::uint64_t now = obs::NowNanos();
  const std::uint64_t latency = now > granted ? now - granted : 0;
  obs::RecordEvent(obs::Op::kParkResume, 0, granted, latency, 0, flow);
  obs::Record(obs::Histogram::kWakeupLatencyNanos, latency);
}

}  // namespace

SpinGate::SpinGate(unsigned cells)
    : count_(std::max(cells, 1u)), cells_(new Cell[count_]) {}

SpinGate& SpinGate::Get() {
  static SpinGate gate(std::thread::hardware_concurrency());
  return gate;
}

unsigned SpinGate::CurrentCpu() {
#if defined(__linux__)
  const int cpu = sched_getcpu();
  return cpu < 0 ? 0u : static_cast<unsigned>(cpu);
#else
  return 0;
#endif
}

#if defined(__linux__)
static_assert(sizeof(CpuMask::words) == sizeof(cpu_set_t));
#endif

CpuMask CurrentAffinity() {
  CpuMask mask;
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    std::memcpy(mask.words, &set, sizeof(set));
  }
#endif
  return mask;
}

void SetCurrentAffinity(const CpuMask& mask) {
#if defined(__linux__)
  cpu_set_t set;
  std::memcpy(&set, mask.words, sizeof(set));
  sched_setaffinity(0, sizeof(set), &set);
#else
  (void)mask;
#endif
}

bool SpinGate::Admit(unsigned cpu) {
  Cell& c = At(cpu);
  if (c.credit.load(std::memory_order_relaxed) > 0) {
    return true;
  }
  const std::uint32_t skips = c.skips.load(std::memory_order_relaxed) + 1;
  if (skips < c.gap.load(std::memory_order_relaxed)) {
    c.skips.store(skips, std::memory_order_relaxed);
    return false;
  }
  c.skips.store(0, std::memory_order_relaxed);
  return true;  // the probe
}

void SpinGate::Record(unsigned cpu, bool hit) {
  Cell& c = At(cpu);
  const std::int32_t credit = c.credit.load(std::memory_order_relaxed);
  const bool probe = credit <= 0;
  if (hit) {
    if (probe) {
      c.gap.store(kFirstProbeGap, std::memory_order_relaxed);
    }
    c.credit.store(std::min(credit + kHitCredit, kMaxCredit),
                   std::memory_order_relaxed);
    return;
  }
  if (probe) {
    c.gap.store(std::min(c.gap.load(std::memory_order_relaxed) * 2,
                         kMaxProbeGap),
                std::memory_order_relaxed);
  }
  c.credit.store(std::max(credit - kMissCost, 0), std::memory_order_relaxed);
}

bool SpinGate::IsOpen(unsigned cpu) const {
  return At(cpu).credit.load(std::memory_order_relaxed) > 0;
}

const char* Parker::BackendName(Backend b) {
  return b == Backend::kFutex ? "futex" : "condvar";
}

Parker::Backend Parker::Resolve(Backend b) {
#if defined(__linux__)
  return b;
#else
  (void)b;
  return Backend::kCondvar;
#endif
}

Parker::Backend Parker::DefaultBackend() {
  static const Backend backend = [] {
    const char* v = std::getenv("TAOS_WAITQ_PARKER");
    if (v != nullptr) {
      if (std::strcmp(v, "condvar") == 0) {
        return Backend::kCondvar;
      }
      if (std::strcmp(v, "futex") == 0) {
        return Resolve(Backend::kFutex);
      }
    }
    return Resolve(Backend::kFutex);
  }();
  return backend;
}

bool Parker::Park(Spin spin, std::uint64_t deadline_ns) {
  // Between the caller's last re-test and the deschedule: the wakeup-waiting
  // window the permit protocol exists for.
  TAOS_CHAOS(kParkerBeforePark);
  const std::uint64_t start = obs::NowNanos();
  if (spin == Spin::kGated) {
    SpinPhase(start, deadline_ns);
  }
  // A spin hit left kNotified in the word: the backend consumes it below
  // with its acquire CAS/load, without sleeping.
  const bool notified = backend_ == Backend::kFutex ? FutexPark(deadline_ns)
                                                    : CondvarPark(deadline_ns);
  obs::Record(obs::Histogram::kParkWaitNanos, obs::NowNanos() - start);
  if (!notified) {
    // Timed out, permit not consumed: an Unpark can still land before the
    // caller acts on the timeout (timeout-vs-grant at the parker level).
    // Any wake stamp stays put — it travels with the still-pending permit.
    TAOS_CHAOS(kParkerTimedReturn);
    return false;
  }
  ConsumeWakeStamp(wake_flow_, wake_ns_);
  return true;
}

void Parker::SpinPhase(std::uint64_t start_ns, std::uint64_t deadline_ns) {
  if (state_.load(std::memory_order_relaxed) == kNotified) {
    obs::Inc(obs::Counter::kParkPermitReady);
    return;
  }
  SpinGate& gate = SpinGate::Get();
  const unsigned cpu = SpinGate::CurrentCpu();
  if (!gate.Admit(cpu)) {
    obs::Inc(obs::Counter::kParkSpinSkipped);
    return;
  }
  // Relaxed loads only: the spin watches for the permit, it does not take
  // it. A clock read every few pauses keeps the budget check cheap.
  const std::uint64_t end = std::min(start_ns + kSpinBudgetNs, deadline_ns);
  bool hit = false;
  do {
    for (int i = 0; i < 8 && !hit; ++i) {
      SpinLock::Pause();
      hit = state_.load(std::memory_order_relaxed) == kNotified;
    }
  } while (!hit && obs::NowNanos() < end);
  gate.Record(cpu, hit);
  obs::Inc(hit ? obs::Counter::kParkSpinHits : obs::Counter::kParkSpinMisses);
}

void Parker::Unpark() {
  TAOS_CHAOS(kParkerBeforeUnpark);
  const std::uint64_t start = obs::NowNanos();
  std::uint64_t flow = 0;
  if (obs::RecorderEnabled()) [[unlikely]] {
    // Stamp the causality edge before depositing the permit (see the
    // member comment in parker.h); the waker-side event is recorded after.
    flow = obs::NextFlowId();
    wake_ns_.store(start, std::memory_order_relaxed);
    wake_flow_.store(flow, std::memory_order_relaxed);
  }
  if (backend_ == Backend::kFutex) {
    FutexUnpark();
  } else {
    CondvarUnpark();
  }
  const std::uint64_t end = obs::NowNanos();
  obs::Record(obs::Histogram::kUnparkNanos, end - start);
  if (flow != 0) [[unlikely]] {
    obs::RecordEvent(obs::Op::kUnpark, 0, start, end - start, 0, flow);
  }
}

void Parker::SpuriousWakeForDebug() {
#if defined(__linux__)
  if (backend_ == Backend::kFutex) {
    FutexWakeOne(state_);
    return;
  }
#endif
  // No state change, no mu_: exactly the wakeup the standard allows
  // condition_variable::wait to produce on its own.
  cv_.notify_one();
}

bool Parker::FutexPark(std::uint64_t deadline_ns) {
#if defined(__linux__)
  for (;;) {
    std::uint32_t cur = state_.load(std::memory_order_relaxed);
    if (cur == kNotified) {
      // Permit already deposited: consume it without sleeping. acquire pairs
      // with Unpark's release so everything before the Unpark is visible.
      if (state_.compare_exchange_weak(cur, kEmpty,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        return true;
      }
      continue;
    }
    if (cur == kEmpty) {
      if (!state_.compare_exchange_weak(cur, kParked,
                                        std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
        continue;  // lost to a concurrent Unpark: re-read
      }
    }
    // state_ is kParked (set by us, or left over from a spurious return).
    struct timespec ts;
    const struct timespec* timeout = nullptr;
    if (deadline_ns != kNoDeadline) {
      const std::uint64_t now = obs::NowNanos();
      if (now >= deadline_ns) {
        // Deadline passed while the word says kParked. Put it back to
        // kEmpty; if the CAS loses, an Unpark just landed — consume it next
        // pass (the permit, not the deadline, decides the return value in
        // that race).
        std::uint32_t parked = kParked;
        if (state_.compare_exchange_strong(parked, kEmpty,
                                           std::memory_order_relaxed,
                                           std::memory_order_relaxed)) {
          return false;
        }
        continue;
      }
      const std::uint64_t rel = deadline_ns - now;
      ts.tv_sec = static_cast<time_t>(rel / 1'000'000'000ull);
      ts.tv_nsec = static_cast<long>(rel % 1'000'000'000ull);
      timeout = &ts;
    }
    obs::Inc(obs::Counter::kParkFutexWaits);
    FutexWait(state_, kParked, timeout);
  }
#else
  return CondvarPark(deadline_ns);
#endif
}

void Parker::FutexUnpark() {
#if defined(__linux__)
  // release pairs with the consuming CAS in FutexPark.
  const std::uint32_t old =
      state_.exchange(kNotified, std::memory_order_release);
  if (old == kParked) {
    FutexWakeOne(state_);
  }
#else
  CondvarUnpark();
#endif
}

bool Parker::CondvarPark(std::uint64_t deadline_ns) {
  std::unique_lock<std::mutex> lk(mu_);
  // acquire pairs with CondvarUnpark's release: the park-return edge must
  // carry the unparker's prior writes on the permit word alone (see the
  // header's fence argument), not lean on mu_ happening to synchronize.
  while (state_.load(std::memory_order_acquire) != kNotified) {
    if (deadline_ns == kNoDeadline) {
      obs::Inc(obs::Counter::kParkCondvarWaits);
      cv_.wait(lk);
      continue;
    }
    const std::uint64_t now = obs::NowNanos();
    if (now >= deadline_ns) {
      return false;
    }
    obs::Inc(obs::Counter::kParkCondvarWaits);
    // obs::NowNanos is steady-clock based, so translating the remaining
    // nanoseconds onto steady_clock keeps wait_until on the same timeline.
    cv_.wait_until(lk, std::chrono::steady_clock::now() +
                           std::chrono::nanoseconds(deadline_ns - now));
  }
  // The reset may stay relaxed: it is a store sequenced after the acquire
  // load above, and only the owning thread's next Park reads it.
  state_.store(kEmpty, std::memory_order_relaxed);
  return true;
}

void Parker::CondvarUnpark() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    // release pairs with the acquire load in CondvarPark.
    state_.store(kNotified, std::memory_order_release);
  }
  cv_.notify_one();
}

}  // namespace taos::waitq
