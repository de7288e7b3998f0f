#include "src/obs/recorder.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace taos::obs {

namespace {

// 4096 events * 40 bytes = 160 KiB per recording thread.
constexpr std::uint64_t kRingCapacity = 4096;
static_assert((kRingCapacity & (kRingCapacity - 1)) == 0);

struct Ring {
  std::uint32_t tid = 0;
  // Total events ever written; slot i lives at slots[i % capacity]. The
  // owner stores it with release order after filling the slot; the drain
  // reads it with acquire order (see the memory model in recorder.h).
  std::atomic<std::uint64_t> next{0};
  Event slots[kRingCapacity];
};

std::mutex& RegistryLock() {
  static std::mutex* m = new std::mutex();
  return *m;
}

std::vector<Ring*>& Registry() {
  static std::vector<Ring*>* v = new std::vector<Ring*>();
  return *v;
}

std::uint32_t NextTid() {
  static std::atomic<std::uint32_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Ring& LocalRing() {
  thread_local Ring* ring = [] {
    Ring* r = new Ring();  // leaked: events survive thread exit until drained
    r->tid = NextTid();
    std::lock_guard<std::mutex> g(RegistryLock());
    Registry().push_back(r);
    return r;
  }();
  return *ring;
}

constexpr const char* kOpNames[static_cast<int>(Op::kNumOps)] = {
    "Acquire", "Release", "Wait",   "Signal",     "Broadcast",   "P",
    "V",       "Alert",   "AlertWait", "AlertP", "Unpark",
    "ParkResume", "TimerExpire", "EventSet", "EventWait", "Poll",
};

std::mutex& MetadataLock() {
  static std::mutex* m = new std::mutex();
  return *m;
}

std::vector<std::pair<std::string, std::string>>& Metadata() {
  static auto* v = new std::vector<std::pair<std::string, std::string>>();
  return *v;
}

void AppendJsonEscaped(std::ostringstream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
}

// Fixed-point microseconds with nanosecond precision, avoiding double
// formatting drift: 1234 ns -> "1.234".
void AppendMicros(std::ostringstream& os, std::uint64_t ns) {
  os << ns / 1000 << '.' << static_cast<char>('0' + (ns / 100) % 10)
     << static_cast<char>('0' + (ns / 10) % 10)
     << static_cast<char>('0' + ns % 10);
}

}  // namespace

const char* OpName(Op op) { return kOpNames[static_cast<int>(op)]; }

void ScopedEvent::Arm(Op op, std::uint64_t obj, std::uint32_t tid) {
  armed_ = true;
  op_ = op;
  tid_ = tid;
  obj_ = obj;
  start_ = NowNanos();
}

void ScopedEvent::Finish() {
  RecordEvent(op_, obj_, start_, NowNanos() - start_, tid_);
}

void SetRecorderEnabled(bool on) {
  SetSlowMode(SlowMode::kRecorder, on);
}

void RecordEvent(Op op, std::uint64_t obj, std::uint64_t ts_ns,
                 std::uint64_t dur_ns, std::uint32_t tid, std::uint64_t flow) {
  Ring& ring = LocalRing();
  const std::uint64_t i = ring.next.load(std::memory_order_relaxed);
  Event& slot = ring.slots[i % kRingCapacity];
  slot.ts_ns = ts_ns;
  slot.dur_ns = dur_ns;
  slot.obj = obj;
  slot.flow = flow;
  slot.tid = tid == 0 ? ring.tid : tid;
  slot.op = op;
  ring.next.store(i + 1, std::memory_order_release);
}

std::uint64_t NextFlowId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void SetTraceMetadata(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> g(MetadataLock());
  for (auto& kv : Metadata()) {
    if (kv.first == key) {
      kv.second = value;
      return;
    }
  }
  Metadata().emplace_back(key, value);
}

std::string DrainChromeTraceJson() {
  std::ostringstream os;
  std::uint64_t dropped_total = 0;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> dropped_by_ring;
  os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  bool first = true;
  std::lock_guard<std::mutex> g(RegistryLock());
  for (Ring* ring : Registry()) {
    const std::uint64_t next = ring->next.load(std::memory_order_acquire);
    const std::uint64_t begin = next > kRingCapacity ? next - kRingCapacity : 0;
    dropped_total += begin;
    if (begin != 0) {
      dropped_by_ring.emplace_back(ring->tid, begin);
    }
    if (next != begin) {
      os << (first ? "" : ",")
         << "\n {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
            "\"tid\": "
         << ring->tid << ", \"args\": {\"name\": \"taos-thread-" << ring->tid
         << "\"}}";
      first = false;
    }
    // Ring order is completion order; nested ScopedEvents (e.g. Wait's
    // mutex re-acquisition inside Wait) complete before their enclosing
    // scope. Sort by start time so each thread's row is monotone and
    // Perfetto renders enclosing scopes as enclosing slices.
    std::vector<Event> events;
    events.reserve(static_cast<std::size_t>(next - begin));
    for (std::uint64_t i = begin; i < next; ++i) {
      events.push_back(ring->slots[i % kRingCapacity]);
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) {
                       return a.ts_ns < b.ts_ns;
                     });
    for (const Event& e : events) {
      os << ",\n {\"name\": \"" << OpName(e.op)
         << "\", \"cat\": \"sync\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
         << e.tid << ", \"ts\": ";
      AppendMicros(os, e.ts_ns);
      os << ", \"dur\": ";
      AppendMicros(os, e.dur_ns);
      os << ", \"args\": {\"obj\": " << e.obj;
      if (e.flow != 0) {
        os << ", \"flow\": " << e.flow;
      }
      os << "}}";
      // Perfetto flow arrows: a flow-stamped Unpark starts the edge at the
      // waker's grant instant ("s"), the matching ParkResume finishes it at
      // the wakee's resume instant ("f", binding point "enclosing slice").
      // kUnpark events carry ts = grant instant, kParkResume events carry
      // ts = grant instant + dur = latency, so the arrow spans the
      // signal-to-running window.
      if (e.flow != 0 && (e.op == Op::kUnpark || e.op == Op::kParkResume)) {
        const bool start = e.op == Op::kUnpark;
        os << ",\n {\"name\": \"wakeup\", \"cat\": \"wakeup\", \"ph\": \""
           << (start ? 's' : 'f') << "\"";
        if (!start) {
          os << ", \"bp\": \"e\"";
        }
        os << ", \"id\": " << e.flow << ", \"pid\": 1, \"tid\": " << e.tid
           << ", \"ts\": ";
        AppendMicros(os, start ? e.ts_ns : e.ts_ns + e.dur_ns);
        os << "}";
      }
    }
    ring->next.store(0, std::memory_order_relaxed);
  }
  os << "\n], \"otherData\": {\"dropped_events\": " << dropped_total;
  os << ", \"dropped_by_ring\": {";
  for (std::size_t i = 0; i < dropped_by_ring.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << dropped_by_ring[i].first
       << "\": " << dropped_by_ring[i].second;
  }
  os << "}";
  {
    std::lock_guard<std::mutex> mg(MetadataLock());
    for (const auto& kv : Metadata()) {
      os << ", \"";
      AppendJsonEscaped(os, kv.first);
      os << "\": \"";
      AppendJsonEscaped(os, kv.second);
      os << "\"";
    }
  }
  os << "}}\n";
  return os.str();
}

void DumpRecentEventsForDebug(std::FILE* f, std::size_t max_events) {
  // Relaxed, non-draining reads; see the contract in recorder.h. Collect
  // the newest events of every ring, then keep the globally newest N.
  std::vector<Event> events;
  {
    std::lock_guard<std::mutex> g(RegistryLock());
    for (Ring* ring : Registry()) {
      const std::uint64_t next = ring->next.load(std::memory_order_acquire);
      const std::uint64_t lo =
          next > kRingCapacity ? next - kRingCapacity : 0;
      const std::uint64_t from =
          next - lo > max_events ? next - max_events : lo;
      for (std::uint64_t i = from; i < next; ++i) {
        Event e = ring->slots[i % kRingCapacity];
        if (e.tid == 0) {
          e.tid = ring->tid;
        }
        events.push_back(e);
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  if (events.size() > max_events) {
    events.erase(events.begin(),
                 events.end() - static_cast<std::ptrdiff_t>(max_events));
  }
  std::fprintf(f, "--- last %zu flight-recorder events (newest last) ---\n",
               events.size());
  for (const Event& e : events) {
    std::fprintf(f, "  ts=%llu.%03lluus dur=%llu.%03lluus tid=%u %s obj=%llu",
                 static_cast<unsigned long long>(e.ts_ns / 1000),
                 static_cast<unsigned long long>(e.ts_ns % 1000),
                 static_cast<unsigned long long>(e.dur_ns / 1000),
                 static_cast<unsigned long long>(e.dur_ns % 1000), e.tid,
                 OpName(e.op), static_cast<unsigned long long>(e.obj));
    if (e.flow != 0) {
      std::fprintf(f, " flow=%llu", static_cast<unsigned long long>(e.flow));
    }
    std::fputc('\n', f);
  }
  std::fputs("--- end flight-recorder events ---\n", f);
}

bool DrainChromeTraceJsonToFile(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << DrainChromeTraceJson();
  return static_cast<bool>(out);
}

}  // namespace taos::obs
