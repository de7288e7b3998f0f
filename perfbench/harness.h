// What the three workloads share: the phase gate that starts and stops
// their caller threads, the meter that brackets a measured phase, the
// result of a phase, and the busy work and hash the workloads compute.

#ifndef TAOS_PERFBENCH_HARNESS_H_
#define TAOS_PERFBENCH_HARNESS_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/stats.h"
#include "src/obs/metrics.h"

namespace perfbench {

// One phase of a workload: the warm-up (a fixed count per caller of rpc
// calls or kv batches, part of set-up) or a measured phase (until Stop).
struct Phase {
  bool warmup = false;
  bool traced = false;
  std::uint64_t warmup_ops = 0;
};

// Starts and stops a workload's caller threads. The gate is harness
// plumbing, not workload: it is built on std::mutex so the runtime's own
// counters see only the workload.
class PhaseGate {
 public:
  explicit PhaseGate(int callers) : callers_(callers) {}
  PhaseGate(const PhaseGate&) = delete;
  PhaseGate& operator=(const PhaseGate&) = delete;

  // Caller side. Blocks until a phase newer than *seen starts (a caller's
  // *seen starts at 0); false once Quit was called.
  bool Await(std::uint64_t* seen, Phase* phase);
  bool Stopping() const { return stop_.load(std::memory_order_relaxed); }
  void Done();

  // Main side. Start runs one phase on every caller; WaitDone returns once
  // every caller has finished it.
  void Start(const Phase& phase);
  void Stop() { stop_.store(true, std::memory_order_relaxed); }
  void WaitDone();
  void Quit();

 private:
  const int callers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t generation_ = 0;  // guarded by mu_
  Phase phase_;                   // guarded by mu_
  int done_ = 0;                  // guarded by mu_
  bool quit_ = false;             // guarded by mu_
  std::atomic<bool> stop_{false};
};

// A measured phase is cut into kWindows windows (equal times, or for churn
// equal op counts). The end-to-end metrics are medians over the windows, so
// a disturbance from outside that lasts part of a run moves them little.
constexpr int kWindows = 20;

// One caller thread's ops and latencies, by window. Written only by its
// caller during a phase; read by main after it.
struct WindowLog {
  void Record(int window, std::uint64_t n, std::uint64_t latency_ns) {
    ops[window] += n;
    latency[window].Add(latency_ns);
  }
  void Clear() {
    for (int w = 0; w < kWindows; ++w) {
      ops[w] = 0;
      latency[w].Clear();
    }
  }

  std::uint64_t ops[kWindows] = {};
  LatencyHist latency[kWindows];
};

// Wall and process CPU time at each window boundary.
class WindowMarks {
 public:
  void Mark();  // now
  void Add(std::uint64_t wall_ns, double cpu_s);
  std::size_t size() const { return wall_ns_.size(); }
  double WallSeconds(std::size_t i) const;  // of window i
  double CpuSeconds(std::size_t i) const;

 private:
  std::vector<std::uint64_t> wall_ns_;
  std::vector<double> cpu_s_;
};

struct Window {
  std::uint64_t ops = 0;
  double wall_s = 0;
  double cpu_s = 0;
  LatencyHist latency;
};

// What one measured phase produced.
struct PhaseResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ops = 0;  // completed ops, failed ones included
  std::vector<Window> windows;
  taos::obs::Stats obs;  // counter and histogram deltas over the phase
  long rss_growth_kb = 0;
  std::uint64_t threads_forked = 0;
  // rpc: worker TryRecvs after a Poll grant that found the queue empty, as
  // a share of the grants (counted by the benchmark at that call).
  double wouldblock_frac = 0;
};

// Brackets a measured phase: zeroes the runtime's counters (the caller
// guarantees quiescence), then records the RSS growth and the counter
// deltas.
class Meter {
 public:
  void Begin();
  void End(PhaseResult* r);

 private:
  taos::obs::Stats before_;
  long rss0_kb_ = 0;
};

// Pins the calling thread to the index-th CPU (modulo the count) of the
// process's affinity mask as it was at start-up.
void PinToCpu(int index);
int AllowedCpuCount();

// Runs one measured phase on the gate's callers for `seconds`, advancing
// `*window` (which the callers read) through kWindows equal windows; the
// callers log into `logs`. Fills the windows, the op count and the counter
// deltas.
PhaseResult RunTimedPhase(PhaseGate* gate, std::atomic<int>* window,
                          const Phase& phase, double seconds,
                          const std::vector<const WindowLog*>& logs);

// Combines the marks and the callers' logs into r->windows and r->ops.
void FillWindows(const WindowMarks& marks,
                 const std::vector<const WindowLog*>& logs, PhaseResult* r);

double ProcessCpuSeconds();
double PeakRssMb();
long CurrentRssKb();

// The service work of an rpc request and the hash the workloads check
// their outputs with. Spin does `units` dependent multiply-adds; its result
// is returned so the loop cannot be elided.
std::uint64_t Spin(std::uint32_t units, std::uint64_t x);
inline std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// A workload: inputs are made from the seed in the constructor, before any
// timing. Setup builds a fresh instance (objects, threads, the timer,
// warm-up); Teardown stops and joins its threads, checks its outputs and
// destroys it. A process runs Setup once, then its phases, then Teardown.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Setup() = 0;
  virtual PhaseResult Measure(double seconds, bool traced) = 0;
  // False, with the reason, when a check failed.
  virtual bool Teardown(std::string* why) = 0;
  // One op in this many is traced in a traced phase.
  virtual std::uint64_t SamplePeriod() const = 0;
};

std::unique_ptr<Workload> MakeRpc(std::uint64_t seed);
std::unique_ptr<Workload> MakeKv(std::uint64_t seed);
std::unique_ptr<Workload> MakeChurn(std::uint64_t seed);

}  // namespace perfbench

#endif  // TAOS_PERFBENCH_HARNESS_H_
