// Thread churn: a thread's record, obs cell and diag slot are reclaimed when
// the thread exits and reused by later threads, so per-thread state follows
// the threads alive at once, not the threads ever created, and no count an
// exited thread made is lost or counted twice. A Fork's record is released
// when its life ends; its host thread, with the host's obs cell, runs later
// Forks or exits when the idle pool is full (thread.h).

#include <pthread.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <deque>
#include <thread>

#include <gtest/gtest.h>

#include "src/obs/diag.h"
#include "src/obs/metrics.h"
#include "src/threads/threads.h"

namespace taos {
namespace {

using namespace std::chrono_literals;

constexpr int kLifetimes = 20000;
constexpr std::size_t kMaxAlive = 4;
// Room above the alive bound for threads the test binary runs on its own
// (the gtest watchdog) and a record or cell still between its owners.
constexpr std::size_t kSlack = 8;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
// The sanitizers' allocators hold freed blocks back from reuse, so the
// resident set keeps growing there whatever the runtime does.
constexpr bool kRssPlateaus = false;
#else
constexpr bool kRssPlateaus = true;
#endif

// This process's resident set in KB (Linux), or 0 where unknown.
std::size_t ResidentKb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long pages = 0;
  unsigned long resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &pages, &resident);
  std::fclose(f);
  return n == 2 ? resident * (sysconf(_SC_PAGESIZE) / 1024) : 0;
}

struct PerThreadState {
  std::size_t records = Nub::Get().RecordsAllocated();
  std::size_t cells = obs::RegisteredCells();
  std::size_t slots = obs::diag::WaiterSlotCount();
};

// One child's work: a zero timeout, which returns without entering the Nub,
// then a 1 µs timed wait, which blocks (so the thread takes a diag slot)
// and times out. Each counts one timed_wait_timeouts; only the second one
// counts a nub_wait.
void ChildWork(Mutex& m, Condition& c) {
  m.Acquire();
  EXPECT_EQ(c.WaitFor(m, 0ns), WaitResult::kTimeout);
  EXPECT_EQ(c.WaitFor(m, 1us), WaitResult::kTimeout);
  m.Release();
}

TEST(ChurnTest, ForkJoinReusesPerThreadState) {
  Mutex m;
  Condition c;
  (void)Thread::Self();  // this thread's own record and cell, up front
  ChildWork(m, c);
  const PerThreadState before;
  const obs::Stats s0 = obs::Snapshot();

  std::size_t rss_warm_kb = 0;
  std::deque<Thread> alive;
  for (int i = 0; i < kLifetimes; ++i) {
    if (i == kLifetimes / 10) {
      rss_warm_kb = ResidentKb();
    }
    if (alive.size() == kMaxAlive) {
      alive.front().Join();
      alive.pop_front();
    }
    alive.push_back(Thread::Fork([&m, &c] { ChildWork(m, c); }));
  }
  alive.clear();  // joins the rest

  const PerThreadState after;
  // The resident set plateaus: the last 90% of the lifetimes add well
  // under what leaking their 2.7 KB of state each would (~48 MB).
  if (kRssPlateaus && rss_warm_kb != 0) {
    EXPECT_LT(ResidentKb(), rss_warm_kb + 8 * 1024);
  }
  EXPECT_LE(after.records, before.records + kMaxAlive + kSlack);
  EXPECT_LE(after.cells, before.cells + kMaxAlive + kSlack);
  EXPECT_LE(after.slots, before.slots + kMaxAlive + kSlack);

  // Every child has ended, so its counts are in its host's cell or, for a
  // host that has exited since, in the retired totals.
  const obs::Stats s1 = obs::Snapshot();
  EXPECT_EQ(s1.Count(obs::Counter::kTimedWaitTimeouts) -
                s0.Count(obs::Counter::kTimedWaitTimeouts),
            2u * kLifetimes);
  EXPECT_EQ(s1.Count(obs::Counter::kNubWait) -
                s0.Count(obs::Counter::kNubWait),
            std::uint64_t{kLifetimes});
}

TEST(ChurnTest, ForeignThreadsAreReclaimedToo) {
  // Threads the runtime did not fork register a record on first use; their
  // exit frees it just the same.
  Mutex m;
  Condition c;
  for (int i = 0; i < 8; ++i) {
    std::thread([&] { ChildWork(m, c); }).join();
  }
  const PerThreadState before;
  for (int i = 0; i < 2000; ++i) {
    std::thread([&] { ChildWork(m, c); }).join();
  }
  const PerThreadState after;
  EXPECT_LE(after.records, before.records + kSlack);
  EXPECT_LE(after.cells, before.cells + kSlack);
  EXPECT_LE(after.slots, before.slots + kSlack);
}

TEST(ChurnTest, ResetStatsZeroesRetiredTotals) {
  Thread::Fork([] { obs::Add(obs::Counter::kPollSpuriousScans, 5); }).Join();
  EXPECT_GE(obs::Snapshot().Count(obs::Counter::kPollSpuriousScans), 5u);
  obs::ResetStats();
  EXPECT_EQ(obs::Snapshot().Count(obs::Counter::kPollSpuriousScans), 0u);
  Thread::Fork([] { obs::Add(obs::Counter::kPollSpuriousScans, 3); }).Join();
  EXPECT_EQ(obs::Snapshot().Count(obs::Counter::kPollSpuriousScans), 3u);
}

// Bumps one counter as it is destroyed, at thread exit.
struct BumpAtExit {
  ~BumpAtExit() {
    if (armed) {
      obs::Inc(obs::Counter::kPollSpuriousScans);
    }
  }
  bool armed = false;
};
thread_local BumpAtExit t_bump_at_exit;

void BumpFromKeyDestructor(void*) {
  obs::Inc(obs::Counter::kPollSpuriousScans);
}

TEST(ChurnTest, CountsMadeLateInThreadExitSurvive) {
  // A key created after the obs layer's own: its destructor runs after the
  // thread's cell was folded and freed, so its bump registers a cell again
  // and must be folded in turn. The threads are host threads of their own,
  // which exit before join returns; a Fork's host may outlive its Join.
  obs::Inc(obs::Counter::kPollSpuriousScans);  // the obs key exists by now
  static const pthread_key_t late_key = [] {
    pthread_key_t k;
    pthread_key_create(&k, BumpFromKeyDestructor);
    return k;
  }();
  const obs::Stats s0 = obs::Snapshot();
  const std::size_t cells = obs::RegisteredCells();
  constexpr int kThreads = 50;
  for (int i = 0; i < kThreads; ++i) {
    std::thread([] {
      t_bump_at_exit.armed = true;
      pthread_setspecific(late_key,
                          reinterpret_cast<void*>(std::uintptr_t{1}));
      obs::Inc(obs::Counter::kPollSpuriousScans);
    }).join();
  }
  const obs::Stats s1 = obs::Snapshot();
  EXPECT_EQ(s1.Count(obs::Counter::kPollSpuriousScans) -
                s0.Count(obs::Counter::kPollSpuriousScans),
            3u * kThreads);
  EXPECT_LE(obs::RegisteredCells(), cells + kSlack);
}

TEST(ChurnTest, CountsMadeInAForkAreInTheSnapshotAfterJoin) {
  // The host's cell stays registered, so Snapshot() reads the counts live;
  // Join's acquire of the exit word orders them before the read.
  for (int i = 0; i < 200; ++i) {
    const obs::Stats s0 = obs::Snapshot();
    Thread::Fork([] {
      obs::Add(obs::Counter::kRwBiasRevocations, 7);
    }).Join();
    const obs::Stats s1 = obs::Snapshot();
    ASSERT_EQ(s1.Count(obs::Counter::kRwBiasRevocations) -
                  s0.Count(obs::Counter::kRwBiasRevocations),
              7u)
        << "lifetime " << i;
  }
}

// Bumps kPollRegistrations as its host thread exits, if a Fork armed it.
struct BumpAtHostExit {
  ~BumpAtHostExit() {
    if (armed) {
      obs::Inc(obs::Counter::kPollRegistrations);
    }
  }
  bool armed = false;
};
thread_local BumpAtHostExit t_bump_at_host_exit;

TEST(ChurnTest, ARetiredHostsThreadLocalCountsSurvive) {
  // kHosts Forks alive at once occupy every idle host and start the rest;
  // when they have all ended, kMaxIdleHosts hosts stay idle and the others
  // exit, each running its thread_local destructor after its Fork's Join.
  constexpr int kHosts = static_cast<int>(Thread::kMaxIdleHosts) + 4;
  constexpr std::uint64_t kRetired = kHosts - Thread::kMaxIdleHosts;
  Mutex m;
  Condition all_in;
  int in = 0;
  const obs::Stats s0 = obs::Snapshot();
  std::deque<Thread> forks;
  for (int i = 0; i < kHosts; ++i) {
    forks.push_back(Thread::Fork([&] {
      t_bump_at_host_exit.armed = true;
      Lock l(m);
      if (++in == kHosts) {
        all_in.Broadcast();
      }
      while (in < kHosts) {
        all_in.Wait(m);
      }
    }));
  }
  forks.clear();  // joins them all
  const auto bumped = [&] {
    return obs::Snapshot().Count(obs::Counter::kPollRegistrations) -
           s0.Count(obs::Counter::kPollRegistrations);
  };
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  while (bumped() < kRetired && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  std::this_thread::sleep_for(10ms);  // a count made twice would show here
  EXPECT_EQ(bumped(), kRetired);
}

}  // namespace
}  // namespace taos
