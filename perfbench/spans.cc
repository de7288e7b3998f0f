#include "perfbench/spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench::spans {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::size_t> g_count{0};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<std::uint32_t> g_next_tid{1};
std::size_t g_cap = 0;  // written while quiescent

struct ThreadSpans;
std::mutex g_mu;
std::vector<ThreadSpans*> g_live;  // guarded by g_mu
std::vector<Span> g_retired;       // spans of exited threads; guarded by g_mu

// One thread's spans. Registered on first use; a thread that exits hands
// its spans to g_retired, so churn's short-lived children keep theirs.
struct ThreadSpans {
  ThreadSpans() : tid(g_next_tid.fetch_add(1, std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> l(g_mu);
    g_live.push_back(this);
  }
  ~ThreadSpans() {
    std::lock_guard<std::mutex> l(g_mu);
    g_retired.insert(g_retired.end(), done.begin(), done.end());
    g_live.erase(std::find(g_live.begin(), g_live.end(), this));
  }
  ThreadSpans(const ThreadSpans&) = delete;
  ThreadSpans& operator=(const ThreadSpans&) = delete;

  const std::uint32_t tid;
  std::uint64_t next_seq = 1;
  std::uint64_t op = 0;
  bool sampled = false;
  std::uint64_t parent = 0;
  std::vector<std::uint64_t> open;  // ids of the open Scopes, innermost last
  std::vector<Span> done;  // written by the owner; Collect reads it once
                           // every other recording thread has exited
};

thread_local ThreadSpans t_spans;

void Record(ThreadSpans& t, const Span& s) {
  if (g_count.fetch_add(1, std::memory_order_relaxed) >= g_cap) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  t.done.push_back(s);
}

// The innermost open Scope on this thread, else the op's parent.
std::uint64_t CurrentParent() {
  const ThreadSpans& t = t_spans;
  return t.open.empty() ? t.parent : t.open.back();
}

std::string LayerOf(const char* name) {
  const std::string n(name);
  return n.substr(0, n.find('.'));
}

}  // namespace

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Enable(std::size_t cap) {
  g_cap = cap;
  g_count.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_relaxed);
}

std::vector<Span> Collect(std::uint64_t* dropped) {
  g_enabled.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> l(g_mu);
  std::vector<Span> all = std::move(g_retired);
  g_retired.clear();
  for (ThreadSpans* t : g_live) {
    all.insert(all.end(), t->done.begin(), t->done.end());
    t->done.clear();
    t->done.shrink_to_fit();
  }
  *dropped = g_dropped.load(std::memory_order_relaxed);
  return all;
}

void SetOp(std::uint64_t op, bool sampled, std::uint64_t parent) {
  ThreadSpans& t = t_spans;
  t.op = op;
  t.sampled = sampled && g_enabled.load(std::memory_order_relaxed);
  t.parent = parent;
}

std::uint64_t NewId() {
  ThreadSpans& t = t_spans;
  return (static_cast<std::uint64_t>(t.tid) << 40) | t.next_seq++;
}

void Emit(const char* name, std::uint64_t id, std::uint64_t parent,
          std::uint64_t start_ns, std::uint64_t end_ns) {
  ThreadSpans& t = t_spans;
  if (!t.sampled) {
    return;
  }
  Record(t, Span{name, id, parent, t.op, start_ns, end_ns, t.tid});
}

Scope::Scope(const char* name) : name_(name) {
  if (!t_spans.sampled) {
    return;
  }
  parent_ = CurrentParent();
  id_ = NewId();
  t_spans.open.push_back(id_);
  start_ = NowNs();
}

Scope::~Scope() {
  if (id_ == 0) {
    return;
  }
  const std::uint64_t end = NowNs();
  ThreadSpans& t = t_spans;
  t.open.pop_back();
  Record(t, Span{name_, id_, parent_, t.op, start_, end, t.tid});
}

Analysis Analyze(const std::vector<Span>& spans) {
  Analysis a;
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index.emplace(spans[i].id, i);
  }
  // Child intervals grouped by parent index.
  std::vector<std::pair<std::size_t, std::size_t>> edges;  // (parent, child)
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    a.durations_ns[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns));
    if (s.parent == 0) {
      ++a.ops;
      continue;
    }
    auto it = index.find(s.parent);
    if (it != index.end()) {
      edges.emplace_back(it->second, i);
    }
  }
  std::sort(edges.begin(), edges.end());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
  std::size_t e = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    cover.clear();
    for (; e < edges.size() && edges[e].first == i; ++e) {
      const Span& c = spans[edges[e].second];
      const std::uint64_t lo = std::max(c.start_ns, s.start_ns);
      const std::uint64_t hi = std::min(c.end_ns, s.end_ns);
      if (lo < hi) {
        cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::uint64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    a.self_ns[LayerOf(s.name)] +=
        static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return a;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      std::size_t max_spans,
                      const std::string& other_data_json) {
  std::vector<const Span*> order;
  order.reserve(spans.size());
  for (const Span& s : spans) {
    order.push_back(&s);
  }
  std::sort(order.begin(), order.end(), [](const Span* x, const Span* y) {
    return x->start_ns < y->start_ns;
  });
  if (order.size() > max_spans) {
    order.resize(max_spans);
  }
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const Span* s : order) {
    by_id.emplace(s->id, s);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::uint64_t t0 = order.empty() ? 0 : order.front()->start_ns;
  auto us = [t0](std::uint64_t ns) { return static_cast<double>(ns - t0) / 1e3; };
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  std::uint64_t flow = 0;
  for (const Span* s : order) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"id\":%llu,\"parent\":%llu}}",
                 first ? "" : ",\n", s->name, LayerOf(s->name).c_str(), s->tid,
                 us(s->start_ns), static_cast<double>(s->end_ns - s->start_ns) / 1e3,
                 static_cast<unsigned long long>(s->op),
                 static_cast<unsigned long long>(s->id),
                 static_cast<unsigned long long>(s->parent));
    first = false;
    auto p = by_id.find(s->parent);
    if (p != by_id.end() && p->second->tid != s->tid) {
      // A cross-thread cause (the rpc worker serving a client's op): draw
      // an arrow from inside the parent's slice to the child's.
      ++flow;
      const double at = us(std::max(s->start_ns, p->second->start_ns));
      std::fprintf(f,
                   ",\n{\"name\":\"cause\",\"cat\":\"flow\",\"ph\":\"s\","
                   "\"id\":%llu,\"pid\":1,\"tid\":%u,\"ts\":%.3f}"
                   ",\n{\"name\":\"cause\",\"cat\":\"flow\",\"ph\":\"f\","
                   "\"bp\":\"e\",\"id\":%llu,\"pid\":1,\"tid\":%u,\"ts\":%.3f}",
                   static_cast<unsigned long long>(flow), p->second->tid, at,
                   static_cast<unsigned long long>(flow), s->tid,
                   us(s->start_ns));
    }
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ns\",\"otherData\":%s}\n",
               other_data_json.c_str());
  return std::fclose(f) == 0;
}

}  // namespace perfbench::spans
