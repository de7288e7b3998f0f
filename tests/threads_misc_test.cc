// Odds and ends of the Threads package surface: Thread move semantics,
// records, handles, stats plumbing.

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/threads/threads.h"
#include "src/workload/timeout.h"

namespace taos {
namespace {

TEST(ThreadTest, MoveTransfersOwnership) {
  std::atomic<bool> ran{false};
  Thread a = Thread::Fork([&ran] { ran.store(true); });
  Thread b = std::move(a);
  EXPECT_TRUE(b.Joinable());
  b.Join();
  EXPECT_TRUE(ran.load());
  EXPECT_FALSE(b.Joinable());
}

TEST(ThreadTest, MoveAssignOntoAJoinedThread) {
  std::atomic<int> ran{0};
  Thread a = Thread::Fork([&ran] { ran.fetch_add(1); });
  a.Join();
  a = Thread::Fork([&ran] { ran.fetch_add(1); });
  EXPECT_TRUE(a.Joinable());
  a.Join();
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadTest, TheClosureIsDestroyedBeforeJoinReturns) {
  for (int i = 0; i < 200; ++i) {
    auto token = std::make_shared<int>(i);
    const std::weak_ptr<int> watch = token;
    Thread t = Thread::Fork([token = std::move(token)] { (void)*token; });
    t.Join();
    ASSERT_TRUE(watch.expired()) << "lifetime " << i;
  }
}

cpu_set_t Affinity() {
  cpu_set_t set;
  CPU_ZERO(&set);
  pthread_getaffinity_np(pthread_self(), sizeof(set), &set);
  return set;
}

TEST(ThreadTest, AForkRunsWithItsForkersAffinity) {
  const cpu_set_t allowed = Affinity();
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < 2; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpus.push_back(cpu);
    }
  }
  if (cpus.size() < 2) {
    GTEST_SKIP() << "needs two CPUs in the affinity mask";
  }
  // The forker pins itself to each CPU in turn, so the host that ran the
  // last Fork, the most recently pooled one, last ran under the other pin.
  // A thread of its own keeps the pins off the test's main thread.
  std::thread forker([&cpus] {
    int reused = 0;
    pthread_t last_host{};
    for (int round = 0; round < 20; ++round) {
      cpu_set_t pin;
      CPU_ZERO(&pin);
      CPU_SET(cpus[round % 2], &pin);
      ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(pin), &pin), 0);
      cpu_set_t seen;
      pthread_t host{};
      Thread::Fork([&seen, &host] {
        seen = Affinity();
        host = pthread_self();
      }).Join();
      EXPECT_TRUE(CPU_EQUAL(&seen, &pin)) << "round " << round;
      if (round > 0 && pthread_equal(host, last_host)) {
        ++reused;
      }
      last_host = host;
      // Lets the host get back into the pool before the next Fork.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT(reused, 0) << "no Fork ran on a host pinned otherwise before";
  });
  forker.join();
}

TEST(ThreadTest, DestructorJoins) {
  std::atomic<bool> ran{false};
  {
    Thread t = Thread::Fork([&ran] { ran.store(true); });
  }  // ~Thread joins
  EXPECT_TRUE(ran.load());
}

TEST(ThreadTest, VectorOfThreads) {
  std::atomic<int> n{0};
  std::vector<Thread> threads;
  for (int i = 0; i < 10; ++i) {
    threads.push_back(Thread::Fork([&n] { n.fetch_add(1); }));
  }
  threads.clear();  // destructor-join them all
  EXPECT_EQ(n.load(), 10);
}

TEST(ThreadTest, SelfHandleStableWithinThread) {
  const ThreadHandle h1 = Thread::Self();
  const ThreadHandle h2 = Thread::Self();
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1.id(), spec::kNil);
}

TEST(ThreadTest, DistinctThreadsDistinctIds) {
  spec::ThreadId child_id = spec::kNil;
  Thread t = Thread::Fork([&child_id] { child_id = Thread::Self().id(); });
  t.Join();
  EXPECT_NE(child_id, spec::kNil);
  EXPECT_NE(child_id, Thread::Self().id());
}

TEST(NubTest, SelfHandleNamesTheCurrentRecord) {
  const ThreadHandle self = Thread::Self();
  EXPECT_EQ(self.rec, Nub::Get().Current());
  EXPECT_EQ(self.id(), self.rec->id);
}

TEST(NubTest, HandleMatchesForkRecord) {
  ThreadHandle inside;
  Thread t = Thread::Fork([&inside] { inside = Thread::Self(); });
  const ThreadHandle h = t.Handle();
  t.Join();
  EXPECT_EQ(inside, h);
}

TEST(TimeoutTest, FastPathWhenPredicateAlreadyTrue) {
  Mutex m;
  Condition c;
  m.Acquire();
  const bool ok = workload::WaitWithTimeout(
      m, c, [] { return true; }, std::chrono::milliseconds(1));
  EXPECT_TRUE(ok);
  m.Release();
  // No stale alert may linger on this thread.
  EXPECT_FALSE(TestAlert());
}

class TimeoutSweep
    : public ::testing::TestWithParam<int> {};  // timeout in ms

TEST_P(TimeoutSweep, TimesOutWithinReason) {
  Mutex m;
  Condition c;
  m.Acquire();
  const auto t0 = std::chrono::steady_clock::now();
  const bool ok = workload::WaitWithTimeout(
      m, c, [] { return false; },
      std::chrono::milliseconds(GetParam()));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  m.Release();
  EXPECT_FALSE(ok);
  EXPECT_GE(elapsed.count() + 2, GetParam());  // not early (2ms slack)
  EXPECT_FALSE(TestAlert());
}

INSTANTIATE_TEST_SUITE_P(Workload, TimeoutSweep,
                         ::testing::Values(5, 20, 60));

}  // namespace
}  // namespace taos
