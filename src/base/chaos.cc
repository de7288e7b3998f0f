#include "src/base/chaos.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "src/obs/coverage.h"
#include "src/obs/diag.h"

namespace taos {
namespace chaos {
namespace {

struct PointInfo {
  const char* name;
  Category category;
};

constexpr PointInfo kPoints[kNumPoints] = {
    {"spin.acquired", Category::kAfterCas},
    {"spin.before_release", Category::kGeneric},
    {"lock.enqueued_to_test", Category::kAfterCas},
    {"lock.backout", Category::kCancel},
    {"lock.wake_to_retry", Category::kGeneric},
    {"lock.release_window", Category::kGeneric},
    {"lock.timed_finish", Category::kTimer},
    {"cond.release_to_block", Category::kGeneric},
    {"cond.claim_to_recheck", Category::kAfterCas},
    {"cond.signal_to_resume", Category::kGeneric},
    {"cond.timed_finish", Category::kTimer},
    {"alert.flag_to_cancel", Category::kCancel},
    {"alert.lock_retry", Category::kGeneric},
    {"alert.wait_window", Category::kBeforePark},
    {"parker.before_park", Category::kBeforePark},
    {"parker.before_unpark", Category::kBeforeUnpark},
    {"parker.timed_return", Category::kTimer},
    {"rwlock.reader_cas", Category::kAfterCas},
    {"rwlock.last_reader_wake", Category::kBeforeUnpark},
    {"diag.publish_to_park", Category::kBeforePark},
    {"diag.owner_stamp", Category::kAfterCas},
    {"diag.snapshot", Category::kGeneric},
    {"poll.register", Category::kAfterCas},
    {"poll.scan_to_park", Category::kBeforePark},
    {"poll.notify", Category::kBeforeUnpark},
    {"poll.deregister", Category::kCancel},
    {"event.set_to_resume", Category::kGeneric},
    {"msgq.handoff", Category::kGeneric},
    {"lock.spin_to_enqueue", Category::kBeforePark},
    {"msgq.unlock_to_wake", Category::kBeforeUnpark},
    {"thread.exit_to_reclaim", Category::kGeneric},
    {"rwlock.bias_recheck", Category::kAfterCas},
};

constexpr const char* kStrategyNames[] = {"uniform", "preempt-after-cas",
                                          "delay-before-park"};

bool NamesEqualDashBlind(const char* a, const char* b) {
  for (;; ++a, ++b) {
    const char ca = (*a == '_') ? '-' : *a;
    const char cb = (*b == '_') ? '-' : *b;
    if (ca != cb) {
      return false;
    }
    if (ca == '\0') {
      return true;
    }
  }
}

}  // namespace

const char* PointName(Point p) {
  return kPoints[static_cast<std::uint32_t>(p)].name;
}

Category PointCategory(Point p) {
  return kPoints[static_cast<std::uint32_t>(p)].category;
}

const char* StrategyName(Strategy s) {
  return kStrategyNames[static_cast<std::uint8_t>(s)];
}

bool ParseStrategy(const char* text, Strategy* out) {
  for (std::uint8_t i = 0; i < 3; ++i) {
    if (NamesEqualDashBlind(text, kStrategyNames[i])) {
      *out = static_cast<Strategy>(i);
      return true;
    }
  }
  return false;
}

std::uint64_t FullPointMask() {
  return (std::uint64_t{1} << kNumPoints) - 1;
}

std::uint64_t MaskForCategory(Category c) {
  std::uint64_t mask = 0;
  for (int i = 0; i < kNumPoints; ++i) {
    if (kPoints[i].category == c) {
      mask |= std::uint64_t{1} << i;
    }
  }
  return mask;
}

// All randomness flows through here, so a {seed, strategy} pair fully
// determines each thread's decision stream. Probabilities are per-256.
Decision Decide(Strategy strategy, Category category, XorShift& rng) {
  const std::uint32_t fire_draw = rng.Below(256);
  std::uint32_t fire_below = 0;
  bool biased = false;
  switch (strategy) {
    case Strategy::kUniform:
      fire_below = 12;  // ~5% everywhere
      break;
    case Strategy::kPreemptAfterCas:
      biased = category == Category::kAfterCas;
      fire_below = biased ? 128 : 4;
      break;
    case Strategy::kDelayBeforePark:
      biased = category == Category::kBeforePark ||
               category == Category::kBeforeUnpark;
      fire_below = biased ? 128 : 4;
      break;
  }
  if (fire_draw >= fire_below) {
    return {};
  }
  const std::uint32_t kind_draw = rng.Below(256);
  if (biased) {
    // The biased points get real preemption: mostly sleeps long enough for
    // a racing thread to run a whole slow path through the window.
    if (kind_draw < 64) {
      return {ActionKind::kYield, 0};
    }
    const std::uint32_t ceiling =
        strategy == Strategy::kDelayBeforePark ? 200 : 50;
    return {ActionKind::kSleep, 1 + rng.Below(ceiling)};
  }
  if (kind_draw < 128) {
    return {ActionKind::kYield, 0};
  }
  if (kind_draw < 230) {
    return {ActionKind::kSpin, 16 + rng.Below(241)};
  }
  return {ActionKind::kSleep, 1 + rng.Below(100)};
}

#if defined(TAOS_CHAOS_ENABLED)

namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

namespace {

std::atomic<std::uint64_t> g_seed{0};
std::atomic<std::uint8_t> g_strategy{0};
std::atomic<std::uint64_t> g_point_mask{0};
// Bumped by Configure; threads lazily reseed when their epoch is stale.
std::atomic<std::uint64_t> g_epoch{0};
std::atomic<std::uint32_t> g_next_ordinal{0};

int g_slots[kNumPoints] = {};
std::atomic<bool> g_slots_registered{false};

struct ThreadStream {
  std::uint64_t epoch = 0;
  XorShift rng;
};
thread_local ThreadStream t_stream;

void RegisterSlots() {
  // RegisterCoverageSlot dedups by name, so racing registrars agree.
  for (int i = 0; i < kNumPoints; ++i) {
    g_slots[i] = obs::RegisterCoverageSlot(kPoints[i].name);
  }
  g_slots_registered.store(true, std::memory_order_release);
}

void Pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Reads TAOS_CHAOS_SEED (+ optional strategy and mask) at process start.
// Runs during static init; any crossing before then simply sees chaos off.
struct EnvInit {
  EnvInit() {
    const char* seed_text = std::getenv("TAOS_CHAOS_SEED");
    if (seed_text == nullptr || *seed_text == '\0') {
      return;
    }
    Config config;
    config.seed = std::strtoull(seed_text, nullptr, 0);
    if (const char* s = std::getenv("TAOS_CHAOS_STRATEGY")) {
      if (!ParseStrategy(s, &config.strategy)) {
        std::fprintf(stderr, "taos chaos: unknown TAOS_CHAOS_STRATEGY '%s'\n",
                     s);
        std::abort();
      }
    }
    if (const char* m = std::getenv("TAOS_CHAOS_POINTS")) {
      config.point_mask = std::strtoull(m, nullptr, 0);
    }
    Configure(config);
  }
};
EnvInit g_env_init;

// Installs the diag snapshot probe (the kDiagSnapshot seam) during static
// init. Lives here rather than in diag.cc because obs sits below chaos in
// the library order; in chaos builds every TAOS_CHAOS crossing references
// InjectSlow, so this TU — and with it the probe — is always linked in.
struct SnapshotProbeInit {
  SnapshotProbeInit() {
    obs::diag::SetSnapshotProbe(+[] { TAOS_CHAOS(kDiagSnapshot); });
  }
};
SnapshotProbeInit g_snapshot_probe_init;

}  // namespace

void Configure(const Config& config) {
  RegisterSlots();
  g_seed.store(config.seed, std::memory_order_relaxed);
  g_strategy.store(static_cast<std::uint8_t>(config.strategy),
                   std::memory_order_relaxed);
  g_point_mask.store(config.point_mask & FullPointMask(),
                     std::memory_order_relaxed);
  g_next_ordinal.store(0, std::memory_order_relaxed);
  // The epoch bump publishes the fields above to lazily-reseeding threads;
  // callers are quiescent, so no crossing races the reconfiguration.
  g_epoch.fetch_add(1, std::memory_order_release);
  internal::g_enabled.store(true, std::memory_order_release);
}

void Disable() {
  internal::g_enabled.store(false, std::memory_order_release);
}

Config ActiveConfig() {
  Config config;
  config.seed = g_seed.load(std::memory_order_relaxed);
  config.strategy =
      static_cast<Strategy>(g_strategy.load(std::memory_order_relaxed));
  config.point_mask = g_point_mask.load(std::memory_order_relaxed);
  return config;
}

void PrintConfigBanner(std::FILE* f) {
  if (!Active()) {
    return;
  }
  const Config config = ActiveConfig();
  std::fprintf(f,
               "taos chaos: seed=%llu strategy=%s point-mask=0x%llx\n"
               "taos chaos: replay with TAOS_CHAOS_SEED=%llu "
               "TAOS_CHAOS_STRATEGY=%s TAOS_CHAOS_POINTS=0x%llx\n",
               static_cast<unsigned long long>(config.seed),
               StrategyName(config.strategy),
               static_cast<unsigned long long>(config.point_mask),
               static_cast<unsigned long long>(config.seed),
               StrategyName(config.strategy),
               static_cast<unsigned long long>(config.point_mask));
}

namespace internal {

void InjectSlow(Point p) {
  const std::uint32_t index = static_cast<std::uint32_t>(p);
  const std::uint64_t mask = g_point_mask.load(std::memory_order_relaxed);
  if ((mask & (std::uint64_t{1} << index)) == 0) {
    return;
  }
  const std::uint64_t epoch = g_epoch.load(std::memory_order_acquire);
  ThreadStream& stream = t_stream;
  if (stream.epoch != epoch) {
    // First crossing (or first since a reconfigure): derive this thread's
    // stream from the seed and an arrival ordinal. Ordinals depend on
    // arrival order, which is deterministic enough in practice: the same
    // seed applies the same pressure pattern to the same workload shape.
    const std::uint32_t ordinal =
        g_next_ordinal.fetch_add(1, std::memory_order_relaxed);
    stream.rng = XorShift(g_seed.load(std::memory_order_relaxed) ^
                          (0x9e3779b97f4a7c15ULL * (ordinal + 1)));
    stream.epoch = epoch;
  }
  if (g_slots_registered.load(std::memory_order_acquire)) {
    obs::CoverageHit(g_slots[index]);
  }
  const Strategy strategy =
      static_cast<Strategy>(g_strategy.load(std::memory_order_relaxed));
  const Decision d = Decide(strategy, kPoints[index].category, stream.rng);
  if (d.kind == ActionKind::kNone) {
    return;
  }
  if (g_slots_registered.load(std::memory_order_acquire)) {
    obs::CoverageFire(g_slots[index]);
  }
  switch (d.kind) {
    case ActionKind::kNone:
      break;
    case ActionKind::kYield:
      std::this_thread::yield();
      break;
    case ActionKind::kSpin:
      for (std::uint32_t i = 0; i < d.amount; ++i) {
        Pause();
      }
      break;
    case ActionKind::kSleep:
      std::this_thread::sleep_for(std::chrono::microseconds(d.amount));
      break;
  }
}

}  // namespace internal

#endif  // TAOS_CHAOS_ENABLED

}  // namespace chaos
}  // namespace taos
