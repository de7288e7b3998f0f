#include "tools/diag_analysis.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <set>

namespace taos::diagtool {

namespace {

using obs::json::Parse;
using obs::json::Value;

// One parsed "X" trace event, timestamps back in integer nanoseconds.
struct Ev {
  std::string name;
  std::uint64_t tid = 0;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t obj = 0;
  std::uint64_t flow = 0;
};

bool IsWaiterOp(const std::string& name) {
  return name == "Acquire" || name == "Wait" || name == "P" ||
         name == "AlertWait" || name == "AlertP";
}

bool IsHolderOp(const std::string& name) {
  return name == "Release" || name == "V" || name == "Signal" ||
         name == "Broadcast";
}

// The drain prints microseconds with three decimals (exact nanoseconds);
// llround recovers the integer.
std::uint64_t MicrosToNanos(double us) {
  return us <= 0 ? 0 : static_cast<std::uint64_t>(std::llround(us * 1000.0));
}

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out->append(buf);
}

// "1234567" ns -> "1.235ms" / "12.3us" — compact, deterministic.
std::string Ns(std::uint64_t ns) {
  char buf[32];
  if (ns >= 1000000) {
    std::snprintf(buf, sizeof(buf), "%.3fms", static_cast<double>(ns) / 1e6);
  } else if (ns >= 1000) {
    std::snprintf(buf, sizeof(buf), "%.1fus", static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 "ns", ns);
  }
  return buf;
}

std::uint64_t Percentile(const std::vector<std::uint64_t>& sorted,
                         double p) {
  if (sorted.empty()) {
    return 0;
  }
  const std::size_t i = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(i, sorted.size() - 1)];
}

// Longest chains in the wake-causality DAG: link j -> i is legal when i's
// waker is j's wakee and i's grant happens after j's resume (the woken
// thread went on to wake someone else). O(n^2) over matched edges, which
// quick-mode traces keep small; capped defensively for huge drains.
std::vector<HandoffChain> LongestChains(const std::vector<FlowEdge>& edges) {
  constexpr std::size_t kMaxEdgesForChains = 20000;
  const std::size_t n = std::min(edges.size(), kMaxEdgesForChains);
  std::vector<std::size_t> len(n, 1);
  std::vector<std::ptrdiff_t> prev(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (edges[j].wakee_tid == edges[i].waker_tid &&
          edges[j].resume_ns() <= edges[i].grant_ns && len[j] + 1 > len[i]) {
        len[i] = len[j] + 1;
        prev[i] = static_cast<std::ptrdiff_t>(j);
      }
    }
  }
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return len[a] != len[b] ? len[a] > len[b] : a < b;
  });
  std::vector<HandoffChain> chains;
  std::set<std::size_t> used;
  for (std::size_t k = 0; k < n && chains.size() < kMaxChains; ++k) {
    const std::size_t tail = order[k];
    if (len[tail] < 2 || used.count(tail) != 0) {
      continue;
    }
    HandoffChain chain;
    bool overlaps = false;
    for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(tail); i >= 0;
         i = prev[static_cast<std::size_t>(i)]) {
      overlaps |= !used.insert(static_cast<std::size_t>(i)).second;
      chain.links.push_back(edges[static_cast<std::size_t>(i)]);
    }
    if (overlaps) {
      continue;  // suffix of an already-reported chain
    }
    std::reverse(chain.links.begin(), chain.links.end());
    chain.span_ns = chain.links.back().resume_ns() - chain.links.front().grant_ns;
    chains.push_back(std::move(chain));
  }
  return chains;
}

}  // namespace

bool AnalyzeTraceJson(const std::string& text, TraceAnalysis* out,
                      std::string* error) {
  *out = TraceAnalysis{};
  std::optional<Value> doc = Parse(text, error);
  if (!doc) {
    return false;
  }
  const Value* trace_events = doc->Find("traceEvents");
  if (trace_events == nullptr || !trace_events->IsArray()) {
    if (error != nullptr) {
      *error = "not a Chrome trace: no traceEvents array";
    }
    return false;
  }
  if (const Value* other = doc->Find("otherData");
      other != nullptr && other->IsObject()) {
    for (const auto& [key, v] : other->object) {
      if (key == "dropped_events" && v.IsNumber()) {
        out->dropped_events = static_cast<std::uint64_t>(v.number);
      } else if (v.IsString()) {
        out->metadata.emplace_back(key, v.string);
      }
    }
  }

  std::vector<Ev> evs;
  for (const Value& e : trace_events->array) {
    const Value* ph = e.Find("ph");
    if (ph == nullptr || !ph->IsString() || ph->string != "X") {
      continue;  // metadata ("M") and flow markers ("s"/"f") re-render evs
    }
    Ev ev;
    if (const Value* v = e.Find("name"); v != nullptr && v->IsString()) {
      ev.name = v->string;
    }
    if (const Value* v = e.Find("tid"); v != nullptr && v->IsNumber()) {
      ev.tid = static_cast<std::uint64_t>(v->number);
    }
    if (const Value* v = e.Find("ts"); v != nullptr && v->IsNumber()) {
      ev.ts_ns = MicrosToNanos(v->number);
    }
    if (const Value* v = e.Find("dur"); v != nullptr && v->IsNumber()) {
      ev.dur_ns = MicrosToNanos(v->number);
    }
    if (const Value* args = e.Find("args");
        args != nullptr && args->IsObject()) {
      if (const Value* v = args->Find("obj"); v != nullptr && v->IsNumber()) {
        ev.obj = static_cast<std::uint64_t>(v->number);
      }
      if (const Value* v = args->Find("flow"); v != nullptr && v->IsNumber()) {
        ev.flow = static_cast<std::uint64_t>(v->number);
      }
    }
    evs.push_back(std::move(ev));
  }
  out->total_events = evs.size();

  // --- per-object wait attribution ---
  std::map<std::uint64_t, ObjStats> by_obj;
  std::map<std::uint64_t, std::map<std::string, std::uint64_t>> ops_by_obj;
  for (const Ev& e : evs) {
    if (e.obj == 0) {
      continue;  // Unpark/ParkResume carry no object
    }
    ObjStats& s = by_obj[e.obj];
    s.obj = e.obj;
    if (IsWaiterOp(e.name)) {
      s.wait_count += 1;
      s.wait_ns += e.dur_ns;
      s.max_wait_ns = std::max(s.max_wait_ns, e.dur_ns);
      ops_by_obj[e.obj][e.name] += 1;
    } else if (IsHolderOp(e.name)) {
      s.holder_count += 1;
      s.holder_ns += e.dur_ns;
    }
  }
  for (auto& [obj, s] : by_obj) {
    for (const auto& [op, count] : ops_by_obj[obj]) {
      s.waiter_ops.emplace_back(op, count);  // map order: already by name
    }
    out->objects.push_back(std::move(s));
  }
  std::sort(out->objects.begin(), out->objects.end(),
            [](const ObjStats& a, const ObjStats& b) {
              return a.wait_ns != b.wait_ns ? a.wait_ns > b.wait_ns
                                            : a.obj < b.obj;
            });

  // --- wakeup-causality edges (flow pairs) ---
  std::map<std::uint64_t, FlowEdge> by_flow;
  std::map<std::uint64_t, bool> has_unpark, has_resume;
  for (const Ev& e : evs) {
    if (e.flow == 0 || (e.name != "Unpark" && e.name != "ParkResume")) {
      continue;
    }
    FlowEdge& edge = by_flow[e.flow];
    edge.flow = e.flow;
    if (e.name == "Unpark") {
      edge.waker_tid = e.tid;
      edge.grant_ns = e.ts_ns;
      has_unpark[e.flow] = true;
    } else {
      edge.wakee_tid = e.tid;
      // ParkResume carries ts = grant instant, dur = latency; prefer the
      // waker's own grant stamp when both halves are present.
      if (!has_unpark[e.flow]) {
        edge.grant_ns = e.ts_ns;
      }
      edge.latency_ns = e.dur_ns;
      has_resume[e.flow] = true;
    }
  }
  for (const auto& [flow, edge] : by_flow) {
    if (has_unpark[flow] && has_resume[flow]) {
      out->edges.push_back(edge);
    } else if (has_unpark[flow]) {
      out->unmatched_unparks += 1;  // wakee's ring wrapped, or still parked
    } else {
      out->unmatched_resumes += 1;  // waker's ring wrapped
    }
  }
  std::sort(out->edges.begin(), out->edges.end(),
            [](const FlowEdge& a, const FlowEdge& b) {
              return a.grant_ns != b.grant_ns ? a.grant_ns < b.grant_ns
                                              : a.flow < b.flow;
            });

  // --- broadcast stampedes: permits granted inside a Broadcast's slice by
  // the broadcasting thread ---
  for (const Ev& b : evs) {
    if (b.name != "Broadcast") {
      continue;
    }
    out->broadcast.broadcasts += 1;
    std::uint64_t woken = 0;
    for (const Ev& u : evs) {
      if (u.name == "Unpark" && u.tid == b.tid && u.ts_ns >= b.ts_ns &&
          u.ts_ns <= b.ts_ns + b.dur_ns) {
        woken += 1;
      }
    }
    if (woken > 0) {
      out->broadcast.waking_broadcasts += 1;
      out->broadcast.woken_total += woken;
      out->broadcast.max_woken = std::max(out->broadcast.max_woken, woken);
    }
  }

  out->chains = LongestChains(out->edges);
  return true;
}

std::string FormatTraceReport(const TraceAnalysis& a, std::size_t top) {
  std::string out;
  out += "=== taos-diag: trace report ===\n";
  AppendF(&out, "events: %" PRIu64 " (dropped: %" PRIu64 ")\n",
          a.total_events, a.dropped_events);
  if (!a.metadata.empty()) {
    out += "run:";
    for (const auto& [k, v] : a.metadata) {
      AppendF(&out, " %s=%s", k.c_str(), v.c_str());
    }
    out += "\n";
  }

  out += "\n--- top contended objects (by total waiter-side time) ---\n";
  std::size_t shown = 0;
  for (const ObjStats& s : a.objects) {
    if (s.wait_count == 0 || shown == top) {
      continue;
    }
    ++shown;
    AppendF(&out,
            "obj %" PRIu64 ": %" PRIu64 " waits, total %s, max %s"
            "; holder side: %" PRIu64 " ops, %s\n",
            s.obj, s.wait_count, Ns(s.wait_ns).c_str(),
            Ns(s.max_wait_ns).c_str(), s.holder_count,
            Ns(s.holder_ns).c_str());
    out += "  waiters:";
    for (const auto& [op, count] : s.waiter_ops) {
      AppendF(&out, " %s x%" PRIu64, op.c_str(), count);
    }
    out += "\n";
  }
  if (shown == 0) {
    out += "(no waiter-side events)\n";
  }

  out += "\n--- wakeup latency (permit grant -> Park return) ---\n";
  AppendF(&out,
          "edges: %zu matched, %" PRIu64 " unmatched unpark, %" PRIu64
          " unmatched resume\n",
          a.edges.size(), a.unmatched_unparks, a.unmatched_resumes);
  if (!a.edges.empty()) {
    std::vector<std::uint64_t> lat;
    lat.reserve(a.edges.size());
    for (const FlowEdge& e : a.edges) {
      lat.push_back(e.latency_ns);
    }
    std::sort(lat.begin(), lat.end());
    AppendF(&out, "min %s  p50 %s  p90 %s  max %s\n", Ns(lat.front()).c_str(),
            Ns(Percentile(lat, 0.5)).c_str(),
            Ns(Percentile(lat, 0.9)).c_str(), Ns(lat.back()).c_str());
  }

  out += "\n--- longest wakeup handoff chains ---\n";
  if (a.chains.empty()) {
    out += "(no chains: no thread both woke and was woken)\n";
  }
  // A long chain's interior is noise (hundreds of hops on a stampede
  // trace); print the head, elide the middle, keep the terminus.
  constexpr std::size_t kMaxRenderedHops = 12;
  for (const HandoffChain& c : a.chains) {
    AppendF(&out, "chain of %zu wakes spanning %s: t%" PRIu64,
            c.links.size(), Ns(c.span_ns).c_str(), c.links.front().waker_tid);
    for (std::size_t i = 0; i < c.links.size(); ++i) {
      if (c.links.size() > kMaxRenderedHops && i == kMaxRenderedHops - 1 &&
          i + 1 < c.links.size()) {
        AppendF(&out, " -> ... (%zu more) ",
                c.links.size() - kMaxRenderedHops);
        AppendF(&out, "-> t%" PRIu64, c.links.back().wakee_tid);
        break;
      }
      AppendF(&out, " -> t%" PRIu64, c.links[i].wakee_tid);
    }
    out += "\n";
  }

  out += "\n--- broadcast stampedes ---\n";
  AppendF(&out,
          "broadcasts: %" PRIu64 " (%" PRIu64
          " woke someone), woken total: %" PRIu64 ", max per broadcast: %" PRIu64
          "\n",
          a.broadcast.broadcasts, a.broadcast.waking_broadcasts,
          a.broadcast.woken_total, a.broadcast.max_woken);
  AppendF(&out, "stampede ratio (threads woken per waking broadcast): %.2f\n",
          a.broadcast.StampedeRatio());
  return out;
}

bool FormatBenchReport(const std::string& text, std::string* out,
                       std::string* error) {
  std::optional<Value> doc = Parse(text, error);
  if (!doc) {
    return false;
  }
  const Value* bench = doc->Find("bench");
  const Value* metrics = doc->Find("metrics");
  if (bench == nullptr || !bench->IsString() || metrics == nullptr ||
      !metrics->IsObject()) {
    if (error != nullptr) {
      *error = "not a BENCH_*.json report (missing bench/metrics)";
    }
    return false;
  }
  out->clear();
  AppendF(out, "=== taos-diag: bench report (%s) ===\n",
          bench->string.c_str());
  for (const char* key : {"global_lock_mode", "num_cpus"}) {
    if (const Value* v = doc->Find(key)) {
      if (v->IsString()) {
        AppendF(out, "%s: %s\n", key, v->string.c_str());
      } else if (v->IsNumber()) {
        AppendF(out, "%s: %.0f\n", key, v->number);
      } else {
        AppendF(out, "%s: %s\n", key, v->boolean ? "true" : "false");
      }
    }
  }

  if (const Value* counters = metrics->Find("counters");
      counters != nullptr && counters->IsObject()) {
    *out += "counters:";
    for (const char* key :
         {"handoffs", "cond_wakes_deferred", "spurious_wakeups",
          "wakeup_waiting_hits", "park_futex_waits", "park_condvar_waits",
          "park_permit_ready", "park_spin_hits", "park_spin_misses",
          "park_spin_skipped", "lock_spin_hits", "lock_spin_misses",
          "lock_spin_skipped", "lock_spin_busy"}) {
      if (const Value* v = counters->Find(key); v != nullptr && v->IsNumber()) {
        AppendF(out, " %s=%.0f", key, v->number);
      }
    }
    *out += "\n";
  }

  const Value* hists = metrics->Find("histograms");
  if (hists == nullptr || !hists->IsObject()) {
    return true;
  }
  *out += "latency histograms (log2 ns buckets; p50/p90/p99 upper bounds):\n";
  for (const char* key : {"wakeup_latency_ns", "unpark_ns", "blocked_ns",
                          "lock_handoff_ns", "park_wait_ns"}) {
    const Value* h = hists->Find(key);
    if (h == nullptr || !h->IsArray()) {
      continue;
    }
    std::uint64_t total = 0;
    for (const Value& b : h->array) {
      total += b.IsNumber() ? static_cast<std::uint64_t>(b.number) : 0;
    }
    if (total == 0) {
      AppendF(out, "  %-18s (no samples)\n", key);
      continue;
    }
    // Bucket 0 holds value 0; bucket i holds [2^(i-1), 2^i). Report the
    // bucket upper bound the given quantile falls in.
    auto quantile_bound = [&](double q) -> std::uint64_t {
      const auto want = static_cast<std::uint64_t>(
          q * static_cast<double>(total) + 0.5);
      std::uint64_t seen = 0;
      for (std::size_t i = 0; i < h->array.size(); ++i) {
        seen += static_cast<std::uint64_t>(h->array[i].number);
        if (seen >= want) {
          return i == 0 ? 0 : (std::uint64_t{1} << i);
        }
      }
      return std::uint64_t{1} << (h->array.size() - 1);
    };
    AppendF(out, "  %-18s %8" PRIu64 " samples  p50<%s p90<%s p99<%s\n", key,
            total, Ns(quantile_bound(0.5)).c_str(),
            Ns(quantile_bound(0.9)).c_str(), Ns(quantile_bound(0.99)).c_str());
  }
  return true;
}

}  // namespace taos::diagtool
