// perfbench: runs one workload (rpc, kv or churn) against the public
// src/threads API, checks its outputs, and prints every metric by name with
// its unit. The last line of stdout is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced for half the time each and reports the
// per-layer metrics, the tracing overhead, and writes the spans as a Chrome
// trace. See perfbench/README.md.
//
//   perfbench --workload rpc --seed 1 --seconds 10 --trace 0 [--out-dir D]
//             [--git-sha S] [--src-sha1 S]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/spans.h"
#include "perfbench/stats.h"
#include "src/base/chaos.h"
#include "src/base/spinlock.h"
#include "src/obs/diag.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/threads/nub.h"
#include "src/waitq/parker.h"

namespace perfbench {
namespace {

constexpr std::size_t kSpanCap = 1000000;  // spans kept in a traced phase
constexpr std::size_t kTraceFileSpans = 50000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/traces";
  std::string git_sha = "unknown";
  std::string src_sha1 = "unknown";
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      o->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      o->trace = std::strcmp(v, "0") != 0;
    } else if (k == "--out-dir") {
      o->out_dir = v;
    } else if (k == "--git-sha") {
      o->git_sha = v;
    } else if (k == "--src-sha1") {
      o->src_sha1 = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string EnvOrNull(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? "null" : Quote(v);
}

// Everything that decides what a number means: the hardware, the build and
// every runtime knob in effect. num_cpus is read once, for the process.
std::string Stamp(const Options& o, bool recorder_in_traced_phase) {
  taos::Nub& nub = taos::Nub::Get();
  const bool futex =
      taos::waitq::Parker::DefaultBackend() == taos::waitq::Parker::Backend::kFutex;
  auto b = [](bool v) { return std::string(v ? "true" : "false"); };
  return std::string("{") +
         "\"workload\": " + Quote(o.workload) +
         ", \"seed\": " + std::to_string(o.seed) +
         ", \"seconds\": " + std::to_string(o.seconds) +
         ", \"trace\": " + b(o.trace) +
         ", \"num_cpus\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"affinity_cpus\": " + std::to_string(AllowedCpuCount()) +
         ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + Quote(PERFBENCH_COMPILER) +
         ", \"git_sha\": " + Quote(o.git_sha) +
         ", \"src_sha1\": " + Quote(o.src_sha1) +
         ", \"waitq\": " + Quote(nub.waitq_mode() ? "waitq" : "classic") +
         ", \"lock_backend\": " + Quote(taos::LockBackendName(nub.lock_backend())) +
         ", \"nub_lock\": " + Quote(nub.global_lock_mode() ? "global" : "sharded") +
         ", \"parker\": " + Quote(futex ? "futex" : "condvar") +
         ", \"chaos_compiled\": " + b(taos::chaos::kCompiledIn) +
         ", \"chaos_active\": " + b(taos::chaos::Active()) +
         ", \"diag_enabled\": " + b(taos::obs::diag::Enabled()) +
         ", \"recorder_in_traced_phase\": " + b(recorder_in_traced_phase) +
         ", \"env\": {\"TAOS_WAITQ\": " + EnvOrNull("TAOS_WAITQ") +
         ", \"TAOS_LOCK\": " + EnvOrNull("TAOS_LOCK") +
         ", \"TAOS_NUB_GLOBAL_LOCK\": " + EnvOrNull("TAOS_NUB_GLOBAL_LOCK") +
         ", \"TAOS_WAITQ_PARKER\": " + EnvOrNull("TAOS_WAITQ_PARKER") +
         ", \"TAOS_CHAOS_SEED\": " + EnvOrNull("TAOS_CHAOS_SEED") + "}}";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double SpanQuantile(spans::Analysis& a, const char* name, double q) {
  auto it = a.durations_ns.find(name);
  return it == a.durations_ns.end() ? 0 : Quantile(it->second, q);
}

// Medians over the phase's windows that completed an op.
struct WindowMedians {
  explicit WindowMedians(const PhaseResult& r) {
    std::vector<double> rate, p50, p99, cpu;
    for (const Window& w : r.windows) {
      if (w.ops == 0 || w.wall_s <= 0) {
        continue;
      }
      const double ops = static_cast<double>(w.ops);
      rate.push_back(ops / w.wall_s);
      p50.push_back(w.latency.Quantile(0.50) / 1e3);
      p99.push_back(w.latency.Quantile(0.99) / 1e3);
      cpu.push_back(w.cpu_s * 1e6 / ops);
    }
    ops_per_s = Quantile(rate, 0.5);
    p50_us = Quantile(p50, 0.5);
    p99_us = Quantile(p99, 0.5);
    cpu_us_per_op = Quantile(cpu, 0.5);
    windows = rate.size();
  }

  double ops_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  double cpu_us_per_op = 0;
  std::size_t windows = 0;
};

std::vector<Metric> EndToEnd(const PhaseResult& r, double setup_s) {
  const WindowMedians m(r);
  return {
      {"ops_per_s", m.ops_per_s, "1/s"},
      {"op_p50_us", m.p50_us, "us"},
      {"op_p99_us", m.p99_us, "us"},
      {"cpu_us_per_op", m.cpu_us_per_op, "us"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"setup_s", setup_s, "s"},
  };
}

std::vector<Metric> PerLayer(const PhaseResult& untraced,
                             const PhaseResult& traced, spans::Analysis& a) {
  const taos::obs::Stats& s = traced.obs;
  using C = taos::obs::Counter;
  using H = taos::obs::Histogram;
  const double ops = static_cast<double>(traced.ops);
  auto count = [&s](C c) { return static_cast<double>(s.Count(c)); };
  const double nub_entries =
      count(C::kNubAcquire) + count(C::kNubRelease) + count(C::kNubWait) +
      count(C::kNubSignal) + count(C::kNubBroadcast) + count(C::kNubP) +
      count(C::kNubV) + count(C::kNubAlert) + count(C::kNubAlertWait) +
      count(C::kNubAlertP);
  auto hist = [&s](H h, double q) { return HistQuantile(s, h, q).value; };
  std::vector<Metric> m = {
      {"mutex.acquire_ns.p50", SpanQuantile(a, "mutex.acquire", 0.50), "ns"},
      {"mutex.acquire_ns.p99", SpanQuantile(a, "mutex.acquire", 0.99), "ns"},
      {"mutex.release_ns.p50", SpanQuantile(a, "mutex.release", 0.50), "ns"},
      {"mutex.fast_frac",
       Ratio(count(C::kFastMutexAcquire),
             count(C::kFastMutexAcquire) + count(C::kNubAcquire)),
       "ratio"},
      {"rwmutex.shared_ns.p50", SpanQuantile(a, "rwmutex.shared", 0.50), "ns"},
      {"rwmutex.exclusive_ns.p99", SpanQuantile(a, "rwmutex.exclusive", 0.99),
       "ns"},
      {"nub.entries_per_op", Ratio(nub_entries, ops), "count/op"},
      {"nub.handoffs_per_op", Ratio(count(C::kHandoffs), ops), "count/op"},
      {"nub.spurious_wakeups_per_op", Ratio(count(C::kSpuriousWakeups), ops),
       "count/op"},
      {"condition.waitfor_ns.p50", SpanQuantile(a, "condition.waitfor", 0.50),
       "ns"},
      {"condition.waitfor_ns.p99", SpanQuantile(a, "condition.waitfor", 0.99),
       "ns"},
      {"condition.signal_ns.p50", SpanQuantile(a, "condition.signal", 0.50),
       "ns"},
      {"condition.wakeup_waiting_hits_per_op",
       Ratio(count(C::kWakeupWaitingHits), ops), "count/op"},
      {"msgq.send_ns.p50", SpanQuantile(a, "msgq.send", 0.50), "ns"},
      {"msgq.tryrecv_ns.p50", SpanQuantile(a, "msgq.tryrecv", 0.50), "ns"},
      {"msgq.wouldblock_frac", traced.wouldblock_frac, "ratio"},
      {"poll.waitany_ns.p50", SpanQuantile(a, "poll.waitany", 0.50), "ns"},
      {"poll.spurious_scan_frac",
       Ratio(count(C::kPollSpuriousScans), count(C::kPollRegistrations)),
       "ratio"},
      {"timer.armed_per_op", Ratio(count(C::kTimersArmed), ops), "count/op"},
      {"timer.cancelled_frac",
       Ratio(count(C::kTimersCancelled), count(C::kTimersArmed)), "ratio"},
      {"parker.park_ns.p50", hist(H::kParkWaitNanos, 0.50), "ns"},
      {"parker.park_ns.p99", hist(H::kParkWaitNanos, 0.99), "ns"},
      {"parker.unpark_ns.p50", hist(H::kUnparkNanos, 0.50), "ns"},
      {"parker.wakeup_ns.p50", hist(H::kWakeupLatencyNanos, 0.50), "ns"},
      {"parker.wakeup_ns.p99", hist(H::kWakeupLatencyNanos, 0.99), "ns"},
      {"spinlock.contended_per_op",
       Ratio(count(C::kContendedSpinAcquires), ops), "count/op"},
      {"spinlock.acquire_ns.p99", hist(H::kSpinAcquireNanos, 0.99), "ns"},
      {"thread.fork_ns.p50", SpanQuantile(a, "thread.fork", 0.50), "ns"},
      {"thread.join_ns.p50", SpanQuantile(a, "thread.join", 0.50), "ns"},
      {"alert.alert_to_exit_ns.p50",
       SpanQuantile(a, "alert.alert_to_exit", 0.50), "ns"},
      // From the untraced phase: span buffers would count as growth.
      {"thread.rss_kb_per_thread",
       Ratio(static_cast<double>(untraced.rss_growth_kb),
             static_cast<double>(untraced.threads_forked)),
       "KB"},
      {"work.service_ns.p50", SpanQuantile(a, "work.service", 0.50), "ns"},
  };
  // Self time per sampled op, by layer; "op" is the part of an op no layer
  // call covers (the workload's own code and the gaps between calls).
  for (const char* layer : {"op", "mutex", "rwmutex", "condition", "msgq",
                            "poll", "work", "thread", "alert"}) {
    auto it = a.self_ns.find(layer);
    m.push_back({std::string(layer) + ".self_ns_per_op",
                 it == a.self_ns.end()
                     ? 0
                     : Ratio(it->second, static_cast<double>(a.ops)),
                 "ns"});
  }
  m.push_back({"trace.ops_ratio",
               Ratio(WindowMedians(traced).ops_per_s,
                     WindowMedians(untraced).ops_per_s),
               "ratio"});
  return m;
}

// Every obs histogram as p50/p90/p99 with the bucket each falls in.
void PrintHistograms(const taos::obs::Stats& s) {
  std::printf(
      "# obs histograms over the traced phase: log2 buckets, interpolated "
      "inside the bucket; the true value lies in [lo, hi)\n");
  for (int h = 0; h < taos::obs::kNumHistograms; ++h) {
    const auto hh = static_cast<taos::obs::Histogram>(h);
    std::printf("#   %-28s", taos::obs::HistogramName(hh));
    for (double q : {0.50, 0.90, 0.99}) {
      const HistPercentile p = HistQuantile(s, hh, q);
      std::printf(" p%02.0f=%.0f [%.0f,%.0f)", q * 100, p.value, p.lo, p.hi);
    }
    std::printf(" n=%llu\n", static_cast<unsigned long long>(
                                 HistQuantile(s, hh, 0.5).samples));
  }
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i == 0 ? "" : ", ") + Quote(ms[i].name) + ": {\"value\": " +
           Num(ms[i].value) + ", \"unit\": " + Quote(ms[i].unit) + "}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload rpc|kv|churn --seed N "
                 "--seconds S --trace 0|1 [--out-dir D] [--git-sha S] "
                 "[--src-sha1 S]\n");
    return 2;
  }
  std::unique_ptr<Workload> w;
  if (o.workload == "rpc") {
    w = MakeRpc(o.seed);
  } else if (o.workload == "kv") {
    w = MakeKv(o.seed);
  } else if (o.workload == "churn") {
    w = MakeChurn(o.seed);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  // The process's one set-up, cold: it includes the runtime's first use
  // (Nub and obs initialisation, first touch) and starting the timer
  // thread. run.py takes the median over processes.
  const std::uint64_t setup0 = spans::NowNs();
  w->Setup();
  const double setup_s = static_cast<double>(spans::NowNs() - setup0) / 1e9;

  // The recorder is what times wakeups (kWakeupLatencyNanos), but it also
  // appends an event on every fast path and gives each thread a ring, so it
  // is switched on only in rpc's traced phase, where wakeups are the point.
  const bool recorder = o.trace && o.workload == "rpc";
  const std::string stamp = Stamp(o, recorder);
  std::printf("stamp %s\n", stamp.c_str());

  bool correct = true;
  std::string why;
  PhaseResult untraced;
  PhaseResult traced;
  std::vector<spans::Span> recorded;
  std::uint64_t dropped = 0;
  if (!o.trace) {
    untraced = w->Measure(o.seconds, false);
  } else {
    untraced = w->Measure(o.seconds / 2, false);
    spans::Enable(kSpanCap);
    taos::obs::SetRecorderEnabled(recorder);
    traced = w->Measure(o.seconds / 2, true);
    taos::obs::SetRecorderEnabled(false);
  }
  if (!w->Teardown(&why)) {
    correct = false;
    std::printf("check failed: %s\n", why.c_str());
  }
  if (o.trace) {
    // After Teardown: every workload thread has been joined, so none is
    // still closing a span.
    recorded = spans::Collect(&dropped);
  }
  const std::uint64_t attempted = untraced.attempted + traced.attempted;
  const std::uint64_t failed = untraced.failed + traced.failed;
  correct = correct && failed == 0;

  std::vector<Metric> metrics;
  if (!o.trace) {
    metrics = EndToEnd(untraced, setup_s);
    std::printf("metric failed_frac = %s ratio (%llu of %llu ops)\n",
                Num(Ratio(static_cast<double>(failed),
                          static_cast<double>(attempted)))
                    .c_str(),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    std::uint64_t samples = 0;
    for (const Window& win : untraced.windows) {
      samples += win.latency.count();
    }
    std::printf("# medians over %zu windows of %llu latency samples%s\n",
                WindowMedians(untraced).windows,
                static_cast<unsigned long long>(samples),
                o.workload == "kv"
                    ? " (kv: one per batch of 64 ops, its mean per-op time)"
                    : "");
  } else {
    spans::Analysis a = spans::Analyze(recorded);
    metrics = PerLayer(untraced, traced, a);
    PrintHistograms(traced.obs);
    std::printf("# %zu spans over %llu sampled ops (1 op in %llu), %llu dropped\n",
                recorded.size(), static_cast<unsigned long long>(a.ops),
                static_cast<unsigned long long>(w->SamplePeriod()),
                static_cast<unsigned long long>(dropped));
    std::printf("# ops_per_s untraced %s, traced %s\n",
                Num(WindowMedians(untraced).ops_per_s).c_str(),
                Num(WindowMedians(traced).ops_per_s).c_str());
    std::error_code ec;
    std::filesystem::create_directories(o.out_dir, ec);
    const std::string base =
        o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed);
    const std::string other = "{\"stamp\": " + stamp +
                              ", \"metrics\": " + MetricsJson(metrics) + "}";
    if (spans::WriteChromeTrace(base + ".trace.json", recorded, kTraceFileSpans,
                                other)) {
      std::printf("# spans written to %s.trace.json\n", base.c_str());
    }
    if (recorder) {
      taos::obs::SetTraceMetadata("stamp", stamp);
      taos::obs::DrainChromeTraceJsonToFile(base + ".recorder.json");
      std::printf("# flight recorder written to %s.recorder.json\n",
                  base.c_str());
    }
  }
  for (const Metric& m : metrics) {
    std::printf("metric %s = %s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
