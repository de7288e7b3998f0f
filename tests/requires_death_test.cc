// The REQUIRES clauses are caller obligations; this library (unlike the
// paper's implementation, which trusted callers) checks them and panics.
// Death tests pin down that misuse is caught, not silently corrupting.

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "src/threads/threads.h"

namespace taos {
namespace {

using RequiresDeathTest = ::testing::Test;

TEST(RequiresDeathTest, MoveAssignOntoAJoinableThreadPanics) {
  // The overwritten Thread's claim on its record would be lost.
  EXPECT_DEATH(
      {
        Thread t = Thread::Fork([] {});
        t = Thread::Fork([] {});
      },
      "check failed");
}

TEST(RequiresDeathTest, ReleaseWithoutAcquirePanics) {
  Mutex m;
  EXPECT_DEATH(m.Release(), "check failed");
}

TEST(RequiresDeathTest, ReleaseByNonHolderPanics) {
  EXPECT_DEATH(
      {
        Mutex m;
        m.Acquire();
        Thread other = Thread::Fork([&m] { m.Release(); });
        other.Join();
      },
      "check failed");
}

TEST(RequiresDeathTest, WaitWithoutMutexPanics) {
  Mutex m;
  Condition c;
  EXPECT_DEATH(c.Wait(m), "check failed");
}

TEST(RequiresDeathTest, AlertWaitWithoutMutexPanics) {
  Mutex m;
  Condition c;
  EXPECT_DEATH(AlertWait(m, c), "check failed");
}

TEST(RequiresDeathTest, WaitWithSomeoneElsesMutexPanics) {
  EXPECT_DEATH(
      {
        Mutex m;
        Condition c;
        m.Acquire();
        Thread other = Thread::Fork([&] { c.Wait(m); });
        other.Join();
      },
      "check failed");
}

// The timed variants carry the same REQUIRES m = SELF obligation as their
// untimed counterparts: a deadline is not a license to wait on a mutex the
// caller does not hold.

TEST(RequiresDeathTest, WaitForWithoutMutexPanics) {
  Mutex m;
  Condition c;
  EXPECT_DEATH(c.WaitFor(m, std::chrono::milliseconds(5)), "check failed");
}

TEST(RequiresDeathTest, AlertWaitForWithoutMutexPanics) {
  Mutex m;
  Condition c;
  EXPECT_DEATH(AlertWaitFor(m, c, std::chrono::milliseconds(5)),
               "check failed");
}

TEST(RequiresDeathTest, AlertNullHandlePanics) {
  EXPECT_DEATH(Alert(ThreadHandle{}), "check failed");
}

// The checks must fire identically in both Nub locking configurations: the
// REQUIRES tests read holder_, which lock sharding did not move.

TEST(RequiresDeathTest, ReleaseByNonHolderPanicsInGlobalLockMode) {
  EXPECT_DEATH(
      {
        Nub::Get().SetGlobalLockMode(true);
        Mutex m;
        m.Acquire();
        Thread other = Thread::Fork([&m] { m.Release(); });
        other.Join();
      },
      "check failed");
}

TEST(RequiresDeathTest, WaitWithoutMutexPanicsInGlobalLockMode) {
  EXPECT_DEATH(
      {
        Nub::Get().SetGlobalLockMode(true);
        Mutex m;
        Condition c;
        c.Wait(m);
      },
      "check failed");
}

TEST(RequiresDeathTest, WaitForWithoutMutexPanicsInGlobalLockMode) {
  EXPECT_DEATH(
      {
        Nub::Get().SetGlobalLockMode(true);
        Mutex m;
        Condition c;
        c.WaitFor(m, std::chrono::milliseconds(5));
      },
      "check failed");
}

TEST(RequiresDeathTest, AlertWaitForWithoutMutexPanicsInGlobalLockMode) {
  EXPECT_DEATH(
      {
        Nub::Get().SetGlobalLockMode(true);
        Mutex m;
        Condition c;
        AlertWaitFor(m, c, std::chrono::milliseconds(5));
      },
      "check failed");
}

TEST(RequiresDeathTest, ContendedReleaseByNonHolderPanics) {
  // Exercise the sharded slow path, not just the inline check: a waiter is
  // parked on the mutex's own queue when the bogus Release arrives.
  EXPECT_DEATH(
      {
        Mutex m;
        m.Acquire();
        Thread contender = Thread::Fork([&m] {
          m.Acquire();
          m.Release();
        });
        Thread violator = Thread::Fork([&m] { m.Release(); });
        violator.Join();
        m.Release();
        contender.Join();
      },
      "check failed");
}

TEST(RequiresDeathTest, TracedReleaseByNonHolderPanics) {
  EXPECT_DEATH(
      {
        spec::Trace trace;
        Nub::Get().SetTrace(&trace);
        Mutex m;
        m.Acquire();
        Thread other = Thread::Fork([&m] { m.Release(); });
        other.Join();
      },
      "check failed");
}

// ReaderWriterMutex misuse: the spec's REQUIRES rw.writer = SELF (Release)
// and SELF IN rw.readers (ReleaseShared) are checked in both lock modes —
// and an exclusive Release of a merely-shared hold is the same class of
// bug as release-without-acquire and dies the same way.

TEST(RequiresDeathTest, RwReleaseWithoutAcquirePanics) {
  ReaderWriterMutex rw;
  EXPECT_DEATH(rw.Release(), "check failed");
}

TEST(RequiresDeathTest, RwReleaseSharedWithoutAcquirePanics) {
  ReaderWriterMutex rw;
  EXPECT_DEATH(rw.ReleaseShared(), "check failed");
}

TEST(RequiresDeathTest, RwExclusiveReleaseOfSharedHoldPanics) {
  EXPECT_DEATH(
      {
        ReaderWriterMutex rw;
        rw.AcquireShared();
        rw.Release();  // held shared, released exclusive
      },
      "check failed");
}

TEST(RequiresDeathTest, RwReleaseByNonHolderPanics) {
  EXPECT_DEATH(
      {
        ReaderWriterMutex rw;
        rw.Acquire();
        Thread other = Thread::Fork([&rw] { rw.Release(); });
        other.Join();
      },
      "check failed");
}

TEST(RequiresDeathTest, RwReleaseWithoutAcquirePanicsInGlobalLockMode) {
  EXPECT_DEATH(
      {
        Nub::Get().SetGlobalLockMode(true);
        ReaderWriterMutex rw;
        rw.Release();
      },
      "check failed");
}

TEST(RequiresDeathTest, RwExclusiveReleaseOfSharedHoldPanicsInGlobalLockMode) {
  EXPECT_DEATH(
      {
        Nub::Get().SetGlobalLockMode(true);
        ReaderWriterMutex rw;
        rw.AcquireShared();
        rw.Release();
      },
      "check failed");
}

// Multi-object wait misuse: the waits REQUIRE a non-empty set, Add REQUIRES
// distinct members, and an Event's destructor REQUIRES no live poll
// registrations (a stack PollNode outliving its event is a use-after-free
// in waiting).

TEST(RequiresDeathTest, WaitAnyOnEmptySetPanics) {
  Poll p;
  EXPECT_DEATH((void)p.WaitAny(), "check failed");
}

TEST(RequiresDeathTest, WaitAllOnEmptySetPanics) {
  Poll p;
  EXPECT_DEATH(p.WaitAll(), "check failed");
}

TEST(RequiresDeathTest, DuplicateAddPanics) {
  EXPECT_DEATH(
      {
        Event e;
        Poll p;
        p.Add(e);
        p.Add(e);
      },
      "check failed");
}

TEST(RequiresDeathTest, EventDestroyedWithLiveRegistrationPanics) {
  EXPECT_DEATH(
      {
        auto* e = new Event(EventReset::kAuto);
        std::atomic<bool> parked{false};
        Thread waiter = Thread::Fork([&] {
          Poll p;
          p.Add(*e);
          parked.store(true, std::memory_order_release);
          (void)p.WaitAny();
        });
        while (!parked.load(std::memory_order_acquire)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        delete e;  // the waiter is (about to be) registered: must panic
        waiter.Join();
      },
      "check failed");
}

TEST(RequiresDeathTest, WaitAnyOnEmptySetPanicsInGlobalLockMode) {
  EXPECT_DEATH(
      {
        Nub::Get().SetGlobalLockMode(true);
        Poll p;
        (void)p.WaitAny();
      },
      "check failed");
}

TEST(RequiresDeathTest, DuplicateAddPanicsInGlobalLockMode) {
  EXPECT_DEATH(
      {
        Nub::Get().SetGlobalLockMode(true);
        Event e;
        Poll p;
        p.Add(e);
        p.Add(e);
      },
      "check failed");
}

}  // namespace
}  // namespace taos
