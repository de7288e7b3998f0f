// Contention diagnosis: the always-compiled waits-for registry and the
// watchdog that turns a silent hang into a named deadlock.
//
// The paper specifies the primitives by who may proceed when; the counters
// (metrics.h) and the flight recorder (recorder.h) say how often and how
// long, but neither can answer the two questions a hung process poses:
// WHO is blocked on WHAT, and who was supposed to wake them? This header
// materializes the blocking relation itself:
//
//   - Every thread owns one WaiterSlot. The blocking slow paths publish
//     BlockedOn{object id, wait kind, since_ns} into it right before
//     de-scheduling and clear it on wake (src/threads/thread_record.h is
//     the single funnel). Publication is seqlock-style: writers (serialized
//     by the record's parking-lot lock) bump `seq` to odd, store the
//     fields, bump to even; a reader that sees an odd or changing seq
//     retries or skips. All fields are relaxed atomics so the lock-free
//     readers are exactly as racy as intended and no more (TSan-clean).
//
//   - An owner table maps object id -> holding thread for the primitives
//     that have an owner (Mutex, ReaderWriterMutex writers). Stamped from
//     the acquire slow paths behind the Enabled() gate, one bit of the
//     slow-mode word the in-line fast paths already test, so diagnosis
//     costs them nothing when off — the same budget as the recorder.
//
//   - SnapshotBlocked() + FindCycles() turn the two tables into the
//     thread -> object -> owner graph and its cycles; Watchdog runs them
//     periodically from a background thread and dumps blocked edges, wait
//     ages, recent flight-recorder events and (via hook) the chaos replay
//     triple when a deadlock or stall is detected.
//
// Teardown safety (the Rule3Backoff lesson, DESIGN.md §14): the registry
// stores only integers. A snapshot never dereferences a synchronization
// object — the object named by a stale slot or owner stamp may already be
// destroyed, and spec::ObjIds are never reused, so the worst a race can
// produce is a report naming an object that just died, never a touch of
// freed memory.
//
// Layering: taos_obs is the bottom library (src/base links against it), so
// this header and diag.cc use the standard library and metrics.h only. The
// chaos probe and banner hooks exist so higher layers can inject their
// seams without a dependency inversion.

#ifndef TAOS_SRC_OBS_DIAG_H_
#define TAOS_SRC_OBS_DIAG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"

namespace taos::obs::diag {

// What a blocked thread is waiting for. Values mirror
// ThreadRecord::BlockKind (static_asserted at the publish site) so the
// threads layer can cast instead of mapping.
enum class WaitKind : std::uint8_t {
  kNone = 0,
  kMutex,
  kSemaphore,
  kCondition,
  kRwShared,
  kRwExclusive,
  kEvent,
  kPollAny,
  kPollAll,
};

const char* WaitKindName(WaitKind k);

// One thread's published blocking state. Cache-line sized and aligned;
// single logical writer (serialized externally by the owning record's
// parking-lot lock), any number of lock-free readers.
struct alignas(64) WaiterSlot {
  std::atomic<std::uint32_t> seq{0};  // odd while a write is in flight
  std::atomic<std::uint8_t> kind{0};  // WaitKind
  std::atomic<std::uint8_t> alertable{0};
  std::atomic<std::uint64_t> obj{0};       // spec::ObjId
  std::atomic<std::uint64_t> since_ns{0};  // NowNanos at publication
  std::atomic<std::uint64_t> tid{0};  // the thread; rewritten on reuse
};

// The owner-stamp gate, one bit of the slow-mode word (metrics.h): when
// diagnosis is off it costs an uncontended acquire nothing beyond the
// fast path's single test of that word.
inline bool Enabled() { return SlowModeOn(SlowMode::kDiag); }

// Runtime switch for the owner stamps (blocked-slot publication is
// unconditional — it lives on paths that are about to de-schedule anyway).
// Toggle while quiescent, like the recorder: flipping it mid-acquisition
// only risks a stale or missing owner stamp, never a crash.
void SetEnabled(bool on);

// Allocates and registers a slot for thread `tid`. Slots are never freed:
// the threads layer keeps each one with its thread record and recycles it
// with the record, retagging it for the record's next thread (below). A
// thread that exits is never blocked, so a slot between owners reads kNone.
WaiterSlot* RegisterWaiterSlot(std::uint64_t tid);

// Hands a slot over to thread `tid`, as one seqlock write that also clears
// its blocked state. Serialized like PublishBlocked.
void RetagWaiterSlot(WaiterSlot* s, std::uint64_t tid);

// Slots allocated so far.
std::size_t WaiterSlotCount();

// Seqlock write: callers hold whatever serializes writes to this slot (the
// record's parking-lot lock in the production runtime).
inline void PublishBlocked(WaiterSlot* s, WaitKind kind, std::uint64_t obj,
                          std::uint64_t since_ns, bool alertable) {
  const std::uint32_t seq = s->seq.load(std::memory_order_relaxed);
  s->seq.store(seq + 1, std::memory_order_release);
  s->kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
  s->alertable.store(alertable ? 1 : 0, std::memory_order_relaxed);
  s->obj.store(obj, std::memory_order_relaxed);
  s->since_ns.store(since_ns, std::memory_order_relaxed);
  s->seq.store(seq + 2, std::memory_order_release);
}

inline void ClearBlocked(WaiterSlot* s) {
  PublishBlocked(s, WaitKind::kNone, 0, 0, false);
}

// --- owner table (object id -> holding thread) ---
//
// A fixed-size open-addressed table of {obj, owner} atomics: stamps claim
// an empty slot with a CAS, clears free it again. Best-effort by design —
// a full probe window drops the stamp, and a clear racing a stamp on a
// just-recycled slot can transiently misattribute an owner. The watchdog
// compensates by confirming any cycle across two consecutive snapshots.

void StampOwner(std::uint64_t obj, std::uint64_t tid);
void ClearOwner(std::uint64_t obj);
// 0 when unknown (never stamped, dropped, or currently unowned).
std::uint64_t OwnerOf(std::uint64_t obj);

// --- snapshot and cycle detection ---

struct BlockedEdge {
  std::uint64_t tid = 0;
  std::uint64_t obj = 0;
  std::uint64_t since_ns = 0;
  WaitKind kind = WaitKind::kNone;
  bool alertable = false;
  std::uint64_t owner = 0;  // OwnerOf(obj) at snapshot time; 0 = unknown
};

// Seqlock-consistent read of every registered slot that is currently
// blocked, with owners resolved. Also fires the snapshot probe (the chaos
// seam installed by SetSnapshotProbe).
std::vector<BlockedEdge> SnapshotBlocked();

// A deadlock: blocked edges forming a closed thread -> object -> owner
// loop, listed in walk order starting from the smallest tid.
struct Cycle {
  std::vector<BlockedEdge> edges;
};

// Each thread has at most one outgoing edge (it blocks on at most one
// object), so the waits-for graph is functional and every cycle is a
// simple loop. Owner-less kinds (semaphores, conditions, reader waits
// against an unknown holder) terminate a walk — they cannot close a cycle.
std::vector<Cycle> FindCycles(const std::vector<BlockedEdge>& edges);

// Human-readable report: one line per blocked thread (kind, object, wait
// age, owner), then any cycles. `now_ns` supplies the age reference.
std::string FormatBlockedReport(const std::vector<BlockedEdge>& edges,
                                const std::vector<Cycle>& cycles,
                                std::uint64_t now_ns);

// Chaos seam: called once per SnapshotBlocked(). Installed by the chaos
// layer (which sits above obs) so the snapshot window is injectable
// without this library depending on chaos.h.
void SetSnapshotProbe(void (*probe)());

// --- the watchdog ---

class Watchdog {
 public:
  struct Options {
    std::uint64_t interval_ms = 1000;
    // A blocked edge older than this flags a stall dump even without a
    // cycle. Test mains pick something comfortably below the ctest
    // timeout so a hang self-diagnoses before the harness kills it.
    std::uint64_t stall_ms = 30000;
    std::FILE* out = nullptr;  // dump destination; nullptr = stderr
    // Also append dumps to this file (CI uploads it on failure). Empty =
    // TAOS_WATCHDOG_DUMP env var if set, else no file.
    std::string dump_path;
    // Extra banner printed at the end of each dump (test mains pass
    // chaos::PrintConfigBanner so a dump carries the replay triple).
    void (*banner)(std::FILE*) = nullptr;
    // Called (from the watchdog thread) with the formatted dump when a
    // deadlock cycle is confirmed. The deliberately-deadlocked CI fixture
    // uses this to exit 0 instead of hanging.
    std::function<void(const std::string& dump,
                       const std::vector<Cycle>& cycles)>
        on_deadlock;
  };

  Watchdog() = default;
  ~Watchdog() { Stop(); }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void Start(const Options& options);
  void Stop();
  bool running() const { return thread_.joinable(); }

  // Scans performed so far (tests use this to wait for coverage).
  std::uint64_t scans() const {
    return scans_.load(std::memory_order_relaxed);
  }

 private:
  void ThreadMain();
  void Scan();
  // A cycle is only reported once the same members are seen blocked with
  // identical since_ns in two consecutive scans: real deadlocks are
  // eternal, while an owner-table race or an in-flight wake can fake one
  // for a single snapshot.
  bool ConfirmedInPreviousScan(const Cycle& cycle) const;
  void Dump(const std::string& report);

  Options options_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<std::uint64_t> scans_{0};
  // tid -> (obj, since_ns) from the previous scan.
  std::vector<BlockedEdge> prev_edges_;
  bool deadlock_reported_ = false;
  std::uint64_t last_stall_dump_ns_ = 0;
};

}  // namespace taos::obs::diag

#endif  // TAOS_SRC_OBS_DIAG_H_
