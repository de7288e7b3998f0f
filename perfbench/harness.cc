#include "perfbench/harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "perfbench/spans.h"
#include "perfbench/stats.h"

namespace perfbench {

bool PhaseGate::Await(std::uint64_t* seen, Phase* phase) {
  std::unique_lock<std::mutex> l(mu_);
  cv_.wait(l, [&] { return quit_ || generation_ != *seen; });
  if (generation_ == *seen) {
    return false;
  }
  *seen = generation_;
  *phase = phase_;
  return true;
}

void PhaseGate::Done() {
  std::lock_guard<std::mutex> l(mu_);
  ++done_;
  cv_.notify_all();
}

void PhaseGate::Start(const Phase& phase) {
  std::lock_guard<std::mutex> l(mu_);
  stop_.store(false, std::memory_order_relaxed);
  phase_ = phase;
  done_ = 0;
  ++generation_;
  cv_.notify_all();
}

void PhaseGate::WaitDone() {
  std::unique_lock<std::mutex> l(mu_);
  cv_.wait(l, [&] { return done_ == callers_; });
}

void PhaseGate::Quit() {
  std::lock_guard<std::mutex> l(mu_);
  quit_ = true;
  cv_.notify_all();
}

void Meter::Begin() {
  taos::obs::ResetStats();
  before_ = taos::obs::Snapshot();
  rss0_kb_ = CurrentRssKb();
}

void Meter::End(PhaseResult* r) {
  r->obs = Delta(before_, taos::obs::Snapshot());
  r->rss_growth_kb = CurrentRssKb() - rss0_kb_;
}

void WindowMarks::Mark() { Add(spans::NowNs(), ProcessCpuSeconds()); }

void WindowMarks::Add(std::uint64_t wall_ns, double cpu_s) {
  wall_ns_.push_back(wall_ns);
  cpu_s_.push_back(cpu_s);
}

double WindowMarks::WallSeconds(std::size_t i) const {
  return static_cast<double>(wall_ns_[i + 1] - wall_ns_[i]) / 1e9;
}

double WindowMarks::CpuSeconds(std::size_t i) const {
  return cpu_s_[i + 1] - cpu_s_[i];
}

PhaseResult RunTimedPhase(PhaseGate* gate, std::atomic<int>* window,
                          const Phase& phase, double seconds,
                          const std::vector<const WindowLog*>& logs) {
  PhaseResult r;
  Meter meter;
  WindowMarks marks;
  window->store(0, std::memory_order_relaxed);
  meter.Begin();
  marks.Mark();
  gate->Start(phase);
  const auto start = std::chrono::steady_clock::now();
  const std::chrono::duration<double> length(seconds / kWindows);
  for (int w = 1; w <= kWindows; ++w) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::nanoseconds>(w * length));
    if (w < kWindows) {
      marks.Mark();
      window->store(w, std::memory_order_relaxed);
    }
  }
  gate->Stop();
  gate->WaitDone();
  marks.Mark();
  meter.End(&r);
  FillWindows(marks, logs, &r);
  return r;
}

void FillWindows(const WindowMarks& marks,
                 const std::vector<const WindowLog*>& logs, PhaseResult* r) {
  r->windows.assign(marks.size() - 1, Window{});
  for (std::size_t w = 0; w < r->windows.size(); ++w) {
    Window& win = r->windows[w];
    win.wall_s = marks.WallSeconds(w);
    win.cpu_s = marks.CpuSeconds(w);
    for (const WindowLog* log : logs) {
      win.ops += log->ops[w];
      win.latency.Merge(log->latency[w]);
    }
    r->ops += win.ops;
  }
}

namespace {

// The process's CPUs, read before main runs and so before any thread is
// pinned.
cpu_set_t ReadAffinity() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    CPU_ZERO(&set);
  }
  return set;
}
const cpu_set_t g_allowed = ReadAffinity();

}  // namespace

int AllowedCpuCount() { return CPU_COUNT(&g_allowed); }

void PinToCpu(int index) {
  const int n = AllowedCpuCount();
  if (n == 0) {
    return;
  }
  int want = index % n;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &g_allowed) && want-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      return;
    }
  }
}

double ProcessCpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return sec(u.ru_utime) + sec(u.ru_stime);
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec, so it would
  // report the launching process's peak when that was larger.
  long kb = 0;
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

long CurrentRssKb() {
  long pages = 0;
  long resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) {
    resident = 0;
  }
  std::fclose(f);
  return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

std::uint64_t Spin(std::uint32_t units, std::uint64_t x) {
  for (std::uint32_t i = 0; i < units; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return x;
}

}  // namespace perfbench
