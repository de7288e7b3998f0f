// FIFO-fairness regression tests for the queue-lock cores (TAOS_LOCK=mcs
// and clh).
//
// Both queue cores promise grant-in-arrival-order by construction: a waiter
// takes its place with one exchange on the tail and the lock then travels
// strictly along the queue. The TAS core makes no such promise (any spinner
// can win the test-and-set), which is exactly the difference these tests
// freeze — they run only under the FIFO-promising backends.
//
// Arrival serialization: every enqueue exchanges a distinct node into the
// tail, so waiter i+1 is forked only after the tail is observed to have
// changed from the value captured before forking waiter i (TailForDebug).
// The claim order — and thus the expected grant order — is then exactly
// 0, 1, 2, ...

#include <cstddef>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/spinlock.h"

namespace taos {
namespace {

class LockFairnessTest : public ::testing::TestWithParam<LockBackend> {
 protected:
  // The process is quiescent around the switch (no taos threads run in this
  // suite; every SpinLock in the process is free between tests), which is
  // the contract SetBackend requires.
  void SetUp() override {
    saved_ = SpinLock::backend();
    SpinLock::SetBackend(GetParam());
  }
  void TearDown() override { SpinLock::SetBackend(saved_); }

 private:
  LockBackend saved_ = LockBackend::kTas;
};

// N waiters queued on one lock in a known arrival order; the holder
// releases and each waiter releases in turn. The grant chain must follow
// arrival order.
TEST_P(LockFairnessTest, GrantsFollowArrivalOrder) {
  constexpr int kWaiters = 8;
  SpinLock lock;
  std::vector<int> grant_order;  // guarded by lock

  lock.Acquire();
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    const void* tail_before = lock.TailForDebug();
    waiters.emplace_back([&lock, &grant_order, i] {
      lock.Acquire();
      grant_order.push_back(i);
      lock.Release();
    });
    // Serialize arrivals: the next waiter may not even fork until this
    // one's exchange has moved the tail.
    while (lock.TailForDebug() == tail_before) {
      std::this_thread::yield();
    }
  }

  lock.Release();
  for (std::thread& t : waiters) {
    t.join();
  }

  ASSERT_EQ(grant_order.size(), static_cast<std::size_t>(kWaiters));
  for (int i = 0; i < kWaiters; ++i) {
    EXPECT_EQ(grant_order[i], i) << LockBackendName(GetParam())
                                 << " granted out of arrival order";
  }
}

// TryAcquire must not barge past a queue: with a holder and a queued
// waiter, a try is a nullptr->node CAS on a non-null tail and fails. (Under
// TAS a try can slip in whenever the bit happens to be clear — the barging
// the queue cores trade away for FIFO.)
TEST_P(LockFairnessTest, TryAcquireDoesNotBargeAQueue) {
  SpinLock lock;
  lock.Acquire();
  const void* tail_before = lock.TailForDebug();
  std::thread waiter([&lock] {
    lock.Acquire();
    lock.Release();
  });
  while (lock.TailForDebug() == tail_before) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(lock.TryAcquire());
  lock.Release();
  waiter.join();
  EXPECT_TRUE(lock.TryAcquire());
  lock.Release();
}

INSTANTIATE_TEST_SUITE_P(
    QueueBackends, LockFairnessTest,
    ::testing::Values(LockBackend::kMcs, LockBackend::kClh),
    [](const ::testing::TestParamInfo<LockBackend>& info) {
      return info.param == LockBackend::kMcs ? "Mcs" : "Clh";
    });

}  // namespace
}  // namespace taos
