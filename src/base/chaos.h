// Chaos schedule injection: seeded perturbation points in the runtime's
// slow paths, compiled out entirely unless -DTAOS_CHAOS=ON.
//
// The simulator (src/model) can enumerate interleavings, but the production
// Nub runs under the real scheduler, where the narrow windows the paper
// worries about — wakeup-waiting, Alert-vs-grant, timeout-vs-grant — are hit
// by luck. A TAOS_CHAOS(point) marker names each such window; in a chaos
// build a seeded per-thread PRNG decides at every crossing whether to yield,
// sleep, or spin there, widening the window so racing threads actually land
// inside it. Every crossing also bumps an obs coverage slot
// (src/obs/coverage.h), so a run reports which race windows were exercised
// instead of presuming it.
//
// Zero cost when off:
//   - default build: TAOS_CHAOS(p) expands to ((void)0) — nothing survives
//     compilation, so benches on the default build measure the real runtime;
//   - chaos build, not enabled: one relaxed load of a global flag and a
//     predicted branch per crossing (bench_uncontended proves parity).
//
// Determinism and replay: all decisions derive from {seed, strategy,
// point-mask}. Each thread draws from its own XorShift stream, seeded from
// the global seed and a per-thread arrival ordinal, so a failure under
//   TAOS_CHAOS_SEED=<n> [TAOS_CHAOS_STRATEGY=<s>] [TAOS_CHAOS_POINTS=<hex>]
// re-applies the same per-window pressure when re-run. (The OS scheduler is
// still free-running — the seed replays the pressure, not the exact
// interleaving — but in practice a seed that found a window keeps finding
// it; TAOS_CHECK failures print the active triple via PanicImpl.)
//
// Layering: this header is included by spinlock.h and the parker, so it must
// not use any taos synchronization — std::atomic, thread_local and pure code
// only. Injection actions use std::this_thread and a raw pause instruction.

#ifndef TAOS_SRC_BASE_CHAOS_H_
#define TAOS_SRC_BASE_CHAOS_H_

#include <atomic>
#include <cstdint>
#include <cstdio>

#include "src/base/xorshift.h"

namespace taos {
namespace chaos {

// One enumerator per named race window. The enumerator's value is its bit in
// the point mask, so new points go at the end (reordering or removing one
// changes what a recorded mask replays). Grouped by the subsystem that owns
// the seam.
enum class Point : std::uint32_t {
  // Spin-lock seams: every NubGuard / record-lock crossing. A sleep here
  // stretches critical sections, which is what makes rule 3's try-lock dance
  // and the guard-ordered paths actually contend.
  kSpinAcquired = 0,     // holding the lock, before the caller's work
  kSpinBeforeRelease,    // still holding, after the caller's work
  // The lock core's slow paths: Mutex, Semaphore and AlertP
  // (src/threads/lock_core).
  kLockEnqueuedToTest,   // queued, before re-testing the Lock-bit
  kLockBackout,          // bit found free: before leaving the queue
  kLockWakeToRetry,      // unparked, before retrying the test-and-set
  kLockReleaseWindow,    // Release/V: bit cleared, before the queue_len scan
  kLockTimedFinish,      // timed: park over, before the final retest
  // Condition slow paths.
  kCondReleaseToBlock,   // Wait: m released, before blocking (wakeup-waiting)
  kCondClaimToRecheck,   // Block: c locked, before re-reading the ec
  kCondSignalToResume,   // Signal: ec advanced, before picking a waiter
  kCondTimedFinish,      // timed: park over, before reacquiring m
  // Alert: the cancellation seams.
  kAlertFlagToCancel,    // alerted flag set, before dequeuing the waiter
  kAlertLockRetry,       // rule 3: object try-lock failed, before retrying
  kAlertWaitWindow,      // alertable Block (AlertWait) and AlertP: holding
                         // the record lock across the alerted-flag check
                         // and the enqueue
  // Parker park/unpark edges (both backends).
  kParkerBeforePark,
  kParkerBeforeUnpark,
  kParkerTimedReturn,    // timed park returned without a permit, before the
                         // waiter dequeues itself: the grant-vs-timeout
                         // window
  // The rwlock fast path.
  kRwlockReaderCas,      // rwlock: reader-count CAS won, before returning
  kRwlockLastReaderWake, // rwlock: count hit zero, before waking a writer
  // Contention-diagnosis seams (src/obs/diag).
  kDiagPublishToPark,    // blocked edge published, before the deschedule —
                         // a snapshot here sees "blocked" pre-park
  kDiagOwnerStamp,       // acquire epilogue, before the owner-table stamp
  kDiagSnapshot,         // inside SnapshotBlocked, racing the publishers
  // Multi-object wait seams (src/threads/poll, src/threads/event).
  kPollRegister,         // registration installed, before the ready re-scan
  kPollScanToPark,       // scan found nothing, before the park episode
  kPollNotify,           // Set won the latch 0->1, before the unblock dance
  kPollDeregister,       // grant taken, before deregistering the rest —
                         // the lost-wakeup window the litmus test models
  kEventSetToResume,     // Set: flag stored, before waking waiters/pollers
  kMsgqHandoff,          // MessageQueue: state changed under the user
                         // mutex, before the event edge is published
  // The lock core's spin on the bit (src/threads/lock_spin).
  kLockSpinToEnqueue,    // the spin did not take the bit (missed, gate
                         // closed, or another waiter spinning), before the
                         // enqueue-then-retest
  // MessageQueue's edge sets, split across its mutex (message_queue.h).
  kMsgqUnlockToWake,     // edge Set published and mu_ released, before the
                         // wake half runs
  // Thread exit (src/threads/nub.cc).
  kThreadExitToReclaim,  // a record's last claim dropped (its thread has
                         // exited and been joined), before its id is
                         // retired: a stale Alert here still matches it
  // The rwlock's biased readers (src/threads/rwmutex.h).
  kRwlockBiasRecheck,    // reader's slot CAS won, before it re-reads the
                         // bias flag a revoking writer is clearing
  kCount,
};

inline constexpr int kNumPoints = static_cast<int>(Point::kCount);
static_assert(kNumPoints <= 64, "point mask is a uint64_t");

// Each point belongs to one category; strategies bias by category.
enum class Category : std::uint8_t {
  kGeneric,      // any atomic transition
  kAfterCas,     // just won a CAS/claim, dependent publish still pending
  kBeforePark,   // about to deschedule
  kBeforeUnpark, // about to wake someone
  kCancel,       // cancellation racing a grant
  kTimer,        // deadline machinery
};

enum class Strategy : std::uint8_t {
  kUniform,          // equal low-probability pressure on every enabled point
  kPreemptAfterCas,  // heavy preemption right after successful CAS/claims
  kDelayBeforePark,  // long delays on the park/unpark edges
};

struct Config {
  std::uint64_t seed = 0;
  Strategy strategy = Strategy::kUniform;
  std::uint64_t point_mask = ~std::uint64_t{0};  // clamped to known points
};

// ---- Introspection: available in every build (tests name points and parse
// strategies regardless of whether injection is compiled in).

const char* PointName(Point p);
Category PointCategory(Point p);
const char* StrategyName(Strategy s);
// Accepts "preempt-after-cas" or "preempt_after_cas"; returns false on junk.
bool ParseStrategy(const char* text, Strategy* out);
std::uint64_t FullPointMask();
// Bits of every point in the given category.
std::uint64_t MaskForCategory(Category c);

// What one crossing does. Exposed (with Decide) so tests can pin the
// decision stream's determinism without racing real threads.
enum class ActionKind : std::uint8_t { kNone, kYield, kSpin, kSleep };
struct Decision {
  ActionKind kind = ActionKind::kNone;
  std::uint32_t amount = 0;  // spin: pause-loop iterations; sleep: microseconds
};
// Pure function of (strategy, category, rng draws).
Decision Decide(Strategy strategy, Category category, XorShift& rng);

#if defined(TAOS_CHAOS_ENABLED)

inline constexpr bool kCompiledIn = true;

namespace internal {
extern std::atomic<bool> g_enabled;
void InjectSlow(Point p);
}  // namespace internal

// True when injection is compiled in AND a seed has been configured (env or
// Configure). Tests use this to scale iteration counts down under pressure.
inline bool Active() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

// Installs a configuration and starts injecting. Threads that cross a point
// after this call get fresh per-thread streams (arrival-ordinal seeded).
// Callers must be quiescent, like Nub::SetGlobalLockMode.
void Configure(const Config& config);
// Stops injecting (the configuration is retained for the banner).
void Disable();
// The configuration Configure/env installed; meaningful once Active().
Config ActiveConfig();

// One "taos chaos: ..." line plus a replay recipe, iff Active(). PanicImpl
// calls this so an invariant failure under chaos prints the triple needed
// to reproduce it.
void PrintConfigBanner(std::FILE* f);

// The per-crossing gate: one relaxed load and a predicted branch when chaos
// is compiled in but not enabled.
inline void MaybeInject(Point p) {
  if (internal::g_enabled.load(std::memory_order_relaxed)) {
    internal::InjectSlow(p);
  }
}

#define TAOS_CHAOS(point) \
  ::taos::chaos::MaybeInject(::taos::chaos::Point::point)

#else  // !TAOS_CHAOS_ENABLED

inline constexpr bool kCompiledIn = false;

inline bool Active() { return false; }
inline void Configure(const Config&) {}
inline void Disable() {}
inline Config ActiveConfig() { return Config{}; }
inline void PrintConfigBanner(std::FILE*) {}

#define TAOS_CHAOS(point) ((void)0)

#endif  // TAOS_CHAOS_ENABLED

}  // namespace chaos
}  // namespace taos

#endif  // TAOS_SRC_BASE_CHAOS_H_
