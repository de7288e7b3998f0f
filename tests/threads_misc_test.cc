// Odds and ends of the Threads package surface: Thread move semantics,
// records, handles, stats plumbing.

#include <atomic>
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
