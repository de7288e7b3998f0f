// churn: three driver threads each keep one child alive at a time. A driver
// forks a child, waits until the child has done a small unit of work
// (Acquire/Release on a shared Mutex and a counter bump) and gone idle in
// AlertWait the way a pool worker does, then Alerts it and Joins it. One op
// is one lifetime, timed from the Fork call to the return of Join.
//
// Each driver is pinned to its own CPU, which its children inherit: a
// lifetime costs what creating, alerting and reclaiming a thread costs on
// one CPU, while the three drivers share the runtime's registries and the
// work Mutex. Cross-CPU wakeups are rpc's subject; with children free to
// run anywhere, the scheduler's interleaving on a shared virtual machine
// made this workload's tail latency jump between runs by a factor of
// three. Three CPUs at once, not one, also keep one vCPU's drift from
// setting the result.
//
// Every lifetime creates a thread record, an obs cell and a diag slot in
// the runtime, which today are never reclaimed, so the process grows with
// every op. A phase therefore ends after kMaxLifetimes lifetimes even if
// time remains, which keeps the growth, and peak RSS, bounded and the same
// from run to run. Its windows are equal counts of lifetimes.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/spans.h"
#include "src/base/xorshift.h"
#include "src/threads/threads.h"

namespace perfbench {
namespace {

constexpr int kDrivers = 3;
constexpr std::uint64_t kWarmupLifetimes = 500;  // per driver
constexpr std::uint64_t kMaxLifetimes = 30000;   // per phase, all drivers
constexpr std::uint64_t kPerWindow = kMaxLifetimes / kWindows;
constexpr std::size_t kWorkUnits = 1 << 12;      // cycled through

// One driver and its current child.
struct Driver {
  taos::Mutex idle_mu;
  bool child_idle = false;    // guarded by idle_mu
  taos::Condition went_idle;  // signalled when child_idle becomes true
  taos::Condition idle;  // never signalled: children leave only by Alert
  std::uint64_t forked = 0;
  std::uint64_t not_alerted = 0;  // children that ended other than by Alert
  WindowLog log;
};

struct Instance {
  Instance() : gate(kDrivers) {}

  taos::Mutex work_mu;
  std::uint64_t counter = 0;  // guarded by work_mu
  std::uint64_t sink = 0;     // guarded by work_mu
  Driver drivers[kDrivers];
  PhaseGate gate;
  // A measured phase: lifetimes are claimed from `next` until kMaxLifetimes
  // or the deadline. Whoever claims a window's first lifetime stamps the
  // window's start.
  std::atomic<std::uint64_t> next{0};
  std::uint64_t deadline_ns = 0;  // written by main between phases
  std::uint64_t start_wall_ns[kWindows] = {};
  double start_cpu_s[kWindows] = {};
  std::vector<taos::Thread> threads;
};

// A child's life: the unit of work, then idling until alerted.
template <bool kTraced>
void Child(Instance* in, Driver* d, std::uint32_t units, std::uint64_t op,
           bool sampled, std::uint64_t root) {
  if constexpr (kTraced) {
    spans::SetOp(op, sampled, root);
  }
  {
    spans::ScopeIf<kTraced> s("mutex.acquire");
    in->work_mu.Acquire();
  }
  ++in->counter;
  in->sink += Spin(units, op);
  {
    spans::ScopeIf<kTraced> s("mutex.release");
    in->work_mu.Release();
  }
  taos::Lock l(d->idle_mu);
  d->child_idle = true;
  d->went_idle.Signal();
  spans::ScopeIf<kTraced> s("alert.alertwait");
  for (;;) {
    taos::AlertWait(d->idle_mu, d->idle);  // raises Alerted
  }
}

// One fork -> idle -> alert -> join; returns its duration in ns.
template <bool kTraced>
std::uint64_t Lifetime(Instance* in, Driver* d, std::uint32_t units,
                       std::uint64_t op, bool sampled) {
  ++d->forked;
  const std::uint64_t start = spans::NowNs();
  std::uint64_t root = 0;
  if constexpr (kTraced) {
    root = sampled ? spans::NewId() : 0;
    spans::SetOp(op, sampled, root);
  }
  taos::Thread child;
  {
    spans::ScopeIf<kTraced> s("thread.fork");
    child = taos::Thread::Fork([in, d, units, op, sampled, root] {
      Child<kTraced>(in, d, units, op, sampled, root);
    });
  }
  {
    spans::ScopeIf<kTraced> s("condition.wait");
    taos::Lock l(d->idle_mu);
    while (!d->child_idle) {
      d->went_idle.Wait(d->idle_mu);
    }
    d->child_idle = false;
  }
  {
    spans::ScopeIf<kTraced> s("alert.alert_to_exit");
    {
      spans::ScopeIf<kTraced> a("alert.alert");
      taos::Alert(child.Handle());
    }
    spans::ScopeIf<kTraced> j("thread.join");
    child.Join();
  }
  const std::uint64_t end = spans::NowNs();
  if constexpr (kTraced) {
    spans::Emit("op", root, 0, start, end);
  }
  if (!child.EndedByAlert()) {
    ++d->not_alerted;
  }
  return end - start;
}

class Churn : public Workload {
 public:
  explicit Churn(std::uint64_t seed) {
    taos::XorShift rng(seed);
    units_.resize(kWorkUnits);
    for (std::uint32_t& u : units_) {
      u = static_cast<std::uint32_t>(rng.Range(100, 1000));
    }
  }

  std::uint64_t SamplePeriod() const override { return 1; }

  void Setup() override {
    in_ = std::make_unique<Instance>();
    Instance* in = in_.get();
    for (int t = 0; t < kDrivers; ++t) {
      in->threads.push_back(taos::Thread::Fork([this, in, t] {
        PinToCpu(t);
        std::uint64_t seen = 0;
        Phase phase;
        while (in->gate.Await(&seen, &phase)) {
          if (phase.traced) {
            RunDriver<true>(in, &in->drivers[t], phase);
          } else {
            RunDriver<false>(in, &in->drivers[t], phase);
          }
          in->gate.Done();
        }
      }));
    }
    Phase warmup;
    warmup.warmup = true;
    warmup.warmup_ops = kWarmupLifetimes;
    in->gate.Start(warmup);
    in->gate.WaitDone();
  }

  PhaseResult Measure(double seconds, bool traced) override {
    Instance* in = in_.get();
    std::vector<const WindowLog*> logs;
    std::uint64_t forked_before = 0;
    for (Driver& d : in->drivers) {
      d.log.Clear();
      logs.push_back(&d.log);
      forked_before += d.forked;
    }
    in->next.store(0, std::memory_order_relaxed);
    in->deadline_ns =
        spans::NowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    PhaseResult r;
    Meter meter;
    meter.Begin();
    Phase phase;
    phase.traced = traced;
    in->gate.Start(phase);
    in->gate.WaitDone();
    WindowMarks marks;
    const std::uint64_t claimed =
        std::min(in->next.load(std::memory_order_relaxed), kMaxLifetimes);
    const std::uint64_t windows = (claimed + kPerWindow - 1) / kPerWindow;
    for (std::uint64_t w = 0; w < windows; ++w) {
      marks.Add(in->start_wall_ns[w], in->start_cpu_s[w]);
    }
    marks.Mark();
    meter.End(&r);
    FillWindows(marks, logs, &r);
    r.attempted = r.ops;
    for (const Driver& d : in->drivers) {
      r.threads_forked += d.forked;
    }
    r.threads_forked -= forked_before;
    return r;
  }

  bool Teardown(std::string* why) override {
    Instance* in = in_.get();
    in->gate.Quit();
    for (taos::Thread& t : in->threads) {
      t.Join();
    }
    std::uint64_t forked = 0;
    std::uint64_t not_alerted = 0;
    for (const Driver& d : in->drivers) {
      forked += d.forked;
      not_alerted += d.not_alerted;
    }
    std::string err;
    if (not_alerted != 0) {
      err += " " + std::to_string(not_alerted) +
             " children did not end by Alert;";
    }
    if (in->counter != forked) {
      err += " counter " + std::to_string(in->counter) + " != forks " +
             std::to_string(forked) + ";";
    }
    in_.reset();
    if (!err.empty()) {
      *why = "churn:" + err;
      return false;
    }
    return true;
  }

 private:
  // A driver's part of one phase: its warm-up lifetimes, or lifetimes
  // claimed from the phase's count until it or the deadline runs out.
  template <bool kTraced>
  void RunDriver(Instance* in, Driver* d, const Phase& phase) {
    if (phase.warmup) {
      for (std::uint64_t i = 0; i < phase.warmup_ops; ++i) {
        Lifetime<false>(in, d, units_[i % units_.size()], 0, false);
      }
      return;
    }
    for (;;) {
      if (spans::NowNs() >= in->deadline_ns) {
        return;
      }
      const std::uint64_t op = in->next.fetch_add(1, std::memory_order_relaxed);
      if (op >= kMaxLifetimes) {
        return;
      }
      const std::uint64_t window = op / kPerWindow;
      if (op % kPerWindow == 0) {
        in->start_wall_ns[window] = spans::NowNs();
        in->start_cpu_s[window] = ProcessCpuSeconds();
      }
      const bool sampled = kTraced && op % SamplePeriod() == 0;
      const std::uint64_t ns =
          Lifetime<kTraced>(in, d, units_[op % units_.size()], op, sampled);
      d->log.Record(static_cast<int>(window), 1, ns);
    }
  }

  std::vector<std::uint32_t> units_;
  std::unique_ptr<Instance> in_;
};

}  // namespace

std::unique_ptr<Workload> MakeChurn(std::uint64_t seed) {
  return std::make_unique<Churn>(seed);
}

}  // namespace perfbench
