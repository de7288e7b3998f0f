// The simulated Firefly: determinism, scheduling, time slicing, priorities,
// deadlock detection, teardown of stuck fibers, and the fibers' private
// stacks and exception state.

#include "src/firefly/machine.h"

#include <gtest/gtest.h>

#include <climits>
#include <csignal>

#include "src/firefly/sync.h"

namespace taos::firefly {
namespace {

TEST(MachineTest, RunsSingleFiberToCompletion) {
  Machine m;
  int x = 0;
  m.Fork([&x, &m] {
    m.Step();
    x = 7;
  });
  RunResult r = m.Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(x, 7);
}

TEST(MachineTest, RunsManyFibers) {
  Machine m;
  int sum = 0;
  for (int i = 1; i <= 10; ++i) {
    m.Fork([&sum, &m, i] {
      m.Step();
      sum += i;  // steps serialize; no torn updates possible
      m.Step();
    });
  }
  RunResult r = m.Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(sum, 55);
}

TEST(MachineTest, DeterministicForFixedSeed) {
  auto run_once = [](std::uint64_t seed) {
    MachineConfig cfg;
    cfg.seed = seed;
    Machine m(cfg);
    std::string order;
    for (char c : {'a', 'b', 'c'}) {
      m.Fork([&order, &m, c] {
        for (int i = 0; i < 5; ++i) {
          m.Step();
          order.push_back(c);
        }
      });
    }
    RunResult r = m.Run();
    EXPECT_TRUE(r.completed);
    return order + "#" + std::to_string(r.steps);
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_EQ(run_once(7), run_once(7));
  // Different seeds explore different interleavings (with 15 interleaved
  // steps a collision is effectively impossible).
  EXPECT_NE(run_once(1), run_once(2));
}

TEST(MachineTest, CpuCountBoundsParallelOccupancy) {
  MachineConfig cfg;
  cfg.cpus = 1;
  Machine m(cfg);
  // With one processor and no time slicing, dispatch is FIFO and each fiber
  // runs to completion before the next starts.
  std::string order;
  for (char c : {'x', 'y'}) {
    m.Fork([&order, &m, c] {
      for (int i = 0; i < 3; ++i) {
        m.Step();
        order.push_back(c);
      }
    });
  }
  RunResult r = m.Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(order, "xxxyyy");
}

TEST(MachineTest, TimeSlicePreempts) {
  MachineConfig cfg;
  cfg.cpus = 1;
  cfg.time_slice = 4;
  Machine m(cfg);
  std::string order;
  for (char c : {'x', 'y'}) {
    m.Fork([&order, &m, c] {
      for (int i = 0; i < 8; ++i) {
        m.Step();
        order.push_back(c);
      }
    });
  }
  RunResult r = m.Run();
  EXPECT_TRUE(r.completed);
  EXPECT_GT(m.preemptions(), 0u);
  // Both fibers made progress before either finished.
  EXPECT_LT(order.find('y'), order.rfind('x'));
}

TEST(MachineTest, PriorityDispatchPrefersHigher) {
  MachineConfig cfg;
  cfg.cpus = 1;
  Machine m(cfg);
  std::string order;
  m.Fork(
      [&order, &m] {
        m.Step();
        order.push_back('l');
      },
      /*priority=*/0, "low");
  m.Fork(
      [&order, &m] {
        m.Step();
        order.push_back('h');
      },
      /*priority=*/5, "high");
  RunResult r = m.Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(order, "hl");
}

TEST(MachineTest, DetectsDeadlock) {
  Machine m;
  Semaphore never(m, /*initially_available=*/false);
  m.Fork([&never] { never.P(); }, 0, "stuck");
  RunResult r = m.Run();
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.deadlock);
  ASSERT_EQ(r.stuck_fibers.size(), 1u);
  EXPECT_EQ(r.stuck_fibers[0], "stuck");
  EXPECT_TRUE(m.Aborted());
  // Machine teardown must reap the stuck fiber without hanging (covered by
  // this test finishing at all).
}

TEST(MachineTest, TeardownUnwindsFibersHoldingLocks) {
  auto run = [] {
    Machine m;
    Mutex mu(m);
    Semaphore never(m, /*initially_available=*/false);
    m.Fork([&] {
      Lock lock(mu);  // held across the block — unwound at teardown
      never.P();
    });
    RunResult r = m.Run();
    EXPECT_TRUE(r.deadlock);
  };
  EXPECT_NO_FATAL_FAILURE(run());
}

TEST(MachineTest, StepLimitStopsLivelock) {
  MachineConfig cfg;
  cfg.max_steps = 500;
  Machine m(cfg);
  m.Fork([&m] {
    for (;;) {
      m.Step();  // spins forever
    }
  });
  RunResult r = m.Run();
  EXPECT_TRUE(r.hit_step_limit);
  EXPECT_FALSE(r.completed);
}

TEST(MachineTest, ForkFromInsideAFiber) {
  Machine m;
  int child_ran = 0;
  m.Fork([&m, &child_ran] {
    m.Step();
    m.Fork([&child_ran, &m] {
      m.Step();
      child_ran = 1;
    });
  });
  RunResult r = m.Run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(child_ran, 1);
}

TEST(MachineTest, MigrationsTracked) {
  // With preemption on a 2-CPU machine, fibers rotate through the ready
  // pool and land on whichever processor is free — the paper's "the
  // scheduler is free to move it from one processor to another".
  MachineConfig cfg;
  cfg.cpus = 2;
  cfg.time_slice = 3;
  cfg.seed = 5;
  Machine m(cfg);
  for (int f = 0; f < 4; ++f) {
    m.Fork([&m] {
      for (int i = 0; i < 40; ++i) {
        m.Step();
      }
    });
  }
  EXPECT_TRUE(m.Run().completed);
  EXPECT_GT(m.preemptions(), 0u);
  EXPECT_GT(m.migrations(), 0u);
}

TEST(MachineTest, SpinContentionCounted) {
  MachineConfig cfg;
  cfg.cpus = 3;
  cfg.seed = 2;
  Machine m(cfg);
  Mutex mu(m);
  // Contended mutexes force concurrent Nub entries, hence spin-lock
  // contention.
  for (int f = 0; f < 3; ++f) {
    m.Fork([&] {
      for (int i = 0; i < 30; ++i) {
        mu.Acquire();
        m.Step();
        mu.Release();
      }
    });
  }
  EXPECT_TRUE(m.Run().completed);
  EXPECT_GT(m.spin_contentions(), 0u);
}

TEST(MachineTest, FiberIdsAreDense) {
  Machine m;
  FiberHandle a = m.Fork([] {});
  FiberHandle b = m.Fork([] {});
  EXPECT_EQ(a.id(), 1u);
  EXPECT_EQ(b.id(), 2u);
  EXPECT_TRUE(m.Run().completed);
}

TEST(MachineTest, EachFiberKeepsItsOwnCaughtException) {
  // Each fiber steps inside its catch block, then rethrows: `throw;` must
  // find its own exception, whatever the other fiber caught in between.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    MachineConfig cfg;
    cfg.seed = seed;
    Machine m(cfg);
    int ok = 0;
    for (int mine : {1, 2}) {
      m.Fork([&m, &ok, mine] {
        try {
          throw mine;
        } catch (int) {
          m.Step();
          try {
            throw;
          } catch (int v) {
            ok += v == mine ? 1 : 0;
          }
        }
      });
    }
    EXPECT_TRUE(m.Run().completed) << "seed " << seed;
    EXPECT_EQ(ok, 2) << "seed " << seed;
  }
}

// Recurses until the stack runs out; reading the frame after the call
// rules out a tail call.
int Recurse(int depth) {
  volatile char frame[256];
  frame[0] = 1;
  if (depth == INT_MAX) {
    return 0;
  }
  return Recurse(depth + 1) + frame[0];
}

TEST(MachineDeathTest, StackOverflowFaultsOnTheGuardPage) {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "fork-based death tests do not run under sanitizers";
#else
  EXPECT_EXIT(
      {
        Machine m;
        m.Fork([] { Recurse(0); });
        m.Run();
      },
      testing::KilledBySignal(SIGSEGV), "");
#endif
}

}  // namespace
}  // namespace taos::firefly
