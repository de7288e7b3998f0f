#include "src/obs/diag.h"

#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <chrono>

#include "src/obs/metrics.h"
#include "src/obs/recorder.h"

namespace taos::obs::diag {

void SetEnabled(bool on) { SetSlowMode(SlowMode::kDiag, on); }

const char* WaitKindName(WaitKind k) {
  switch (k) {
    case WaitKind::kNone:
      return "none";
    case WaitKind::kMutex:
      return "mutex";
    case WaitKind::kSemaphore:
      return "semaphore";
    case WaitKind::kCondition:
      return "condition";
    case WaitKind::kRwShared:
      return "rw-shared";
    case WaitKind::kRwExclusive:
      return "rw-exclusive";
    case WaitKind::kEvent:
      return "event";
    case WaitKind::kPollAny:
      return "poll-any";
    case WaitKind::kPollAll:
      return "poll-all";
  }
  return "?";
}

namespace {

// Slot registry. Slots are heap-allocated and never freed (see
// RegisterWaiterSlot's contract in the header); the vector only grows, and
// readers copy the pointers under the mutex before scanning lock-free.
std::mutex& SlotRegistryLock() {
  static std::mutex* m = new std::mutex;
  return *m;
}

std::vector<WaiterSlot*>& SlotRegistry() {
  static std::vector<WaiterSlot*>* v = new std::vector<WaiterSlot*>;
  return *v;
}

std::atomic<void (*)()> g_snapshot_probe{nullptr};

// Owner table: open-addressed, fixed size, power of two. 4096 slots is two
// orders of magnitude beyond any test or bench in this repo; on overflow a
// stamp is silently dropped (OwnerOf then reports "unknown", which only
// widens the watchdog's "no cycle provable" case — never a false positive).
constexpr std::size_t kOwnerTableSize = 4096;

struct OwnerCell {
  std::atomic<std::uint64_t> obj{0};
  std::atomic<std::uint64_t> owner{0};
};

OwnerCell* OwnerTable() {
  static OwnerCell* t = new OwnerCell[kOwnerTableSize];
  return t;
}

std::size_t OwnerHash(std::uint64_t obj) {
  // Fibonacci hash; obj ids are small sequential integers.
  return static_cast<std::size_t>((obj * 0x9E3779B97F4A7C15ULL) >> 52) &
         (kOwnerTableSize - 1);
}

constexpr std::size_t kOwnerProbeLimit = 32;

void AppendU64(std::string* out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

void AppendMillis(std::string* out, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", static_cast<double>(ns) / 1e6);
  out->append(buf);
}

}  // namespace

WaiterSlot* RegisterWaiterSlot(std::uint64_t tid) {
  auto* slot = new WaiterSlot;
  slot->tid.store(tid, std::memory_order_relaxed);
  std::lock_guard<std::mutex> g(SlotRegistryLock());
  SlotRegistry().push_back(slot);
  return slot;
}

void RetagWaiterSlot(WaiterSlot* s, std::uint64_t tid) {
  const std::uint32_t seq = s->seq.load(std::memory_order_relaxed);
  s->seq.store(seq + 1, std::memory_order_release);
  s->tid.store(tid, std::memory_order_relaxed);
  s->kind.store(static_cast<std::uint8_t>(WaitKind::kNone),
                std::memory_order_relaxed);
  s->seq.store(seq + 2, std::memory_order_release);
}

std::size_t WaiterSlotCount() {
  std::lock_guard<std::mutex> g(SlotRegistryLock());
  return SlotRegistry().size();
}

void StampOwner(std::uint64_t obj, std::uint64_t tid) {
  OwnerCell* table = OwnerTable();
  const std::size_t h = OwnerHash(obj);
  for (std::size_t i = 0; i < kOwnerProbeLimit; ++i) {
    OwnerCell& cell = table[(h + i) & (kOwnerTableSize - 1)];
    std::uint64_t cur = cell.obj.load(std::memory_order_relaxed);
    if (cur == obj) {
      cell.owner.store(tid, std::memory_order_relaxed);
      return;
    }
    if (cur == 0) {
      std::uint64_t expected = 0;
      if (cell.obj.compare_exchange_strong(expected, obj,
                                           std::memory_order_relaxed)) {
        cell.owner.store(tid, std::memory_order_relaxed);
        return;
      }
      if (expected == obj) {  // lost the race to ourselves-by-id
        cell.owner.store(tid, std::memory_order_relaxed);
        return;
      }
    }
  }
  // Table section full: drop the stamp (best-effort; see header).
}

void ClearOwner(std::uint64_t obj) {
  OwnerCell* table = OwnerTable();
  const std::size_t h = OwnerHash(obj);
  for (std::size_t i = 0; i < kOwnerProbeLimit; ++i) {
    OwnerCell& cell = table[(h + i) & (kOwnerTableSize - 1)];
    const std::uint64_t cur = cell.obj.load(std::memory_order_relaxed);
    if (cur == obj) {
      // Free the slot: owner first so a racing OwnerOf sees 0, then the
      // key. ObjIds are never reused (Nub::NextObjId only counts up), so a
      // freed slot can only be re-claimed by a DIFFERENT object — a racing
      // stamp for this object targets whatever slot its probe finds, not a
      // stale reincarnation of this one.
      cell.owner.store(0, std::memory_order_relaxed);
      cell.obj.store(0, std::memory_order_relaxed);
      return;
    }
    if (cur == 0) {
      // A concurrent stamp may still be probing past this empty cell;
      // keep looking so release-after-stamp can't leak a stale owner.
      continue;
    }
  }
}

std::uint64_t OwnerOf(std::uint64_t obj) {
  OwnerCell* table = OwnerTable();
  const std::size_t h = OwnerHash(obj);
  for (std::size_t i = 0; i < kOwnerProbeLimit; ++i) {
    OwnerCell& cell = table[(h + i) & (kOwnerTableSize - 1)];
    const std::uint64_t cur = cell.obj.load(std::memory_order_relaxed);
    if (cur == obj) {
      return cell.owner.load(std::memory_order_relaxed);
    }
  }
  return 0;
}

void SetSnapshotProbe(void (*probe)()) {
  g_snapshot_probe.store(probe, std::memory_order_release);
}

std::vector<BlockedEdge> SnapshotBlocked() {
  if (void (*probe)() = g_snapshot_probe.load(std::memory_order_acquire)) {
    probe();
  }
  std::vector<WaiterSlot*> slots;
  {
    std::lock_guard<std::mutex> g(SlotRegistryLock());
    slots = SlotRegistry();
  }
  std::vector<BlockedEdge> edges;
  for (WaiterSlot* s : slots) {
    // Bounded seqlock read: a slot whose writer is mid-publication for the
    // whole retry window is skipped — that thread is actively transitioning,
    // not stuck, so omitting it from this snapshot is correct.
    for (int attempt = 0; attempt < 4; ++attempt) {
      const std::uint32_t seq0 = s->seq.load(std::memory_order_acquire);
      if (seq0 & 1) {
        continue;
      }
      BlockedEdge e;
      e.tid = s->tid.load(std::memory_order_relaxed);
      e.kind = static_cast<WaitKind>(s->kind.load(std::memory_order_relaxed));
      e.alertable = s->alertable.load(std::memory_order_relaxed) != 0;
      e.obj = s->obj.load(std::memory_order_relaxed);
      e.since_ns = s->since_ns.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s->seq.load(std::memory_order_relaxed) != seq0) {
        continue;
      }
      if (e.kind != WaitKind::kNone) {
        e.owner = OwnerOf(e.obj);
        edges.push_back(e);
      }
      break;
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const BlockedEdge& a, const BlockedEdge& b) {
              return a.tid < b.tid;
            });
  return edges;
}

std::vector<Cycle> FindCycles(const std::vector<BlockedEdge>& edges) {
  std::vector<Cycle> cycles;
  // tid -> index in `edges` (edges are sorted by tid and unique per tid).
  auto edge_for = [&edges](std::uint64_t tid) -> const BlockedEdge* {
    auto it = std::lower_bound(
        edges.begin(), edges.end(), tid,
        [](const BlockedEdge& e, std::uint64_t t) { return e.tid < t; });
    return (it != edges.end() && it->tid == tid) ? &*it : nullptr;
  };
  std::vector<std::uint64_t> in_cycle;
  for (const BlockedEdge& start : edges) {
    if (std::find(in_cycle.begin(), in_cycle.end(), start.tid) !=
        in_cycle.end()) {
      continue;  // already reported as part of another cycle
    }
    // Walk the functional graph: thread -> owner of blocked-on object.
    // Bounded by the edge count, so a lasso that doesn't return to `start`
    // terminates without bookkeeping.
    std::vector<const BlockedEdge*> path;
    const BlockedEdge* cur = &start;
    for (std::size_t steps = 0; steps <= edges.size(); ++steps) {
      path.push_back(cur);
      if (cur->owner == 0) {
        break;  // unowned / unknown holder: cannot close a cycle
      }
      if (cur->owner == start.tid) {
        // Closed. Report only from the smallest tid so each cycle is
        // emitted once regardless of which member we started from.
        bool smallest = true;
        for (const BlockedEdge* e : path) {
          if (e->tid < start.tid) {
            smallest = false;
            break;
          }
        }
        if (smallest) {
          Cycle c;
          for (const BlockedEdge* e : path) {
            c.edges.push_back(*e);
            in_cycle.push_back(e->tid);
          }
          cycles.push_back(std::move(c));
        }
        break;
      }
      const BlockedEdge* next = edge_for(cur->owner);
      if (next == nullptr) {
        break;  // owner is running, not blocked: no cycle through here
      }
      // A lasso (cycle not involving `start`) revisits a path member; the
      // step bound handles termination, and that inner cycle is reported
      // when the loop reaches its smallest member as `start`.
      cur = next;
    }
  }
  return cycles;
}

std::string FormatBlockedReport(const std::vector<BlockedEdge>& edges,
                                const std::vector<Cycle>& cycles,
                                std::uint64_t now_ns) {
  std::string out;
  out += "=== taos waits-for snapshot: ";
  AppendU64(&out, edges.size());
  out += " blocked thread(s) ===\n";
  for (const BlockedEdge& e : edges) {
    out += "  thread ";
    AppendU64(&out, e.tid);
    out += " blocked on ";
    out += WaitKindName(e.kind);
    out += " obj ";
    AppendU64(&out, e.obj);
    out += " for ";
    AppendMillis(&out, now_ns >= e.since_ns ? now_ns - e.since_ns : 0);
    out += " ms";
    if (e.owner != 0) {
      out += " (held by thread ";
      AppendU64(&out, e.owner);
      out += ")";
    }
    if (e.alertable) {
      out += " [alertable]";
    }
    out += "\n";
  }
  for (const Cycle& c : cycles) {
    out += "DEADLOCK: cycle of ";
    AppendU64(&out, c.edges.size());
    out += " thread(s):\n";
    for (const BlockedEdge& e : c.edges) {
      out += "  thread ";
      AppendU64(&out, e.tid);
      out += " waits for ";
      out += WaitKindName(e.kind);
      out += " obj ";
      AppendU64(&out, e.obj);
      out += " held by thread ";
      AppendU64(&out, e.owner);
      out += "\n";
    }
  }
  return out;
}

void Watchdog::Start(const Options& options) {
  Stop();
  options_ = options;
  if (options_.dump_path.empty()) {
    if (const char* p = std::getenv("TAOS_WATCHDOG_DUMP");
        p != nullptr && *p != '\0') {
      options_.dump_path = p;
    }
  }
  stop_ = false;
  deadlock_reported_ = false;
  prev_edges_.clear();
  last_stall_dump_ns_ = 0;
  thread_ = std::thread([this] { ThreadMain(); });
}

void Watchdog::Stop() {
  if (!thread_.joinable()) {
    return;
  }
  {
    std::lock_guard<std::mutex> g(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Watchdog::ThreadMain() {
  std::unique_lock<std::mutex> g(mu_);
  while (!stop_) {
    if (cv_.wait_for(g, std::chrono::milliseconds(options_.interval_ms),
                     [this] { return stop_; })) {
      return;
    }
    g.unlock();
    Scan();
    scans_.fetch_add(1, std::memory_order_relaxed);
    g.lock();
  }
}

bool Watchdog::ConfirmedInPreviousScan(const Cycle& cycle) const {
  for (const BlockedEdge& e : cycle.edges) {
    bool found = false;
    for (const BlockedEdge& p : prev_edges_) {
      if (p.tid == e.tid && p.obj == e.obj && p.since_ns == e.since_ns) {
        found = true;
        break;
      }
    }
    if (!found) {
      return false;
    }
  }
  return true;
}

void Watchdog::Scan() {
  const std::uint64_t now = NowNanos();
  std::vector<BlockedEdge> edges = SnapshotBlocked();
  std::vector<Cycle> cycles = FindCycles(edges);

  // Keep only cycles whose every member was blocked on the same object
  // since the same instant one interval ago: survives the owner-table and
  // wake-in-flight transients a single snapshot can fabricate.
  std::vector<Cycle> confirmed;
  for (Cycle& c : cycles) {
    if (ConfirmedInPreviousScan(c)) {
      confirmed.push_back(std::move(c));
    }
  }

  bool stalled = false;
  if (options_.stall_ms > 0) {
    const std::uint64_t limit_ns = options_.stall_ms * 1000000ULL;
    for (const BlockedEdge& e : edges) {
      if (now >= e.since_ns && now - e.since_ns > limit_ns) {
        stalled = true;
        break;
      }
    }
  }

  // NowNanos is zero-based at the first call in the process, so the "have
  // we dumped recently" throttle must treat 0 as "never", not "at t=0" —
  // otherwise a stall seen in the first 10 intervals of process life is
  // silently swallowed.
  const bool stall_throttled =
      last_stall_dump_ns_ != 0 &&
      now - last_stall_dump_ns_ <= 10 * options_.interval_ms * 1000000ULL;
  if ((!confirmed.empty() && !deadlock_reported_) ||
      (stalled && !stall_throttled)) {
    std::string report = FormatBlockedReport(edges, confirmed, now);
    Dump(report);
    if (!confirmed.empty()) {
      deadlock_reported_ = true;
      if (options_.on_deadlock) {
        options_.on_deadlock(report, confirmed);
      }
    }
    if (stalled) {
      last_stall_dump_ns_ = now;
    }
  }

  prev_edges_ = std::move(edges);
}

void Watchdog::Dump(const std::string& report) {
  std::FILE* outs[2] = {options_.out != nullptr ? options_.out : stderr,
                        nullptr};
  std::FILE* dump_file = nullptr;
  if (!options_.dump_path.empty()) {
    dump_file = std::fopen(options_.dump_path.c_str(), "a");
    outs[1] = dump_file;
  }
  for (std::FILE* f : outs) {
    if (f == nullptr) {
      continue;
    }
    std::fputs(report.c_str(), f);
    DumpRecentEventsForDebug(f, 32);
    if (options_.banner != nullptr) {
      options_.banner(f);
    }
    std::fflush(f);
  }
  if (dump_file != nullptr) {
    std::fclose(dump_file);
  }
}

}  // namespace taos::obs::diag
