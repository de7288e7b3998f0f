// taos::ReaderWriterMutex: the two-layer readers-writer primitive, which
// keeps two Nub queues per object (readers, writers). Spec conformance of
// the traced paths lives in threads_conformance_test; this suite pins the
// runtime behaviour: admission rules, the wakeup policy (exclusive release
// drains all readers + one writer; last reader out wakes a writer), timed
// grants racing deadlines, the biased readers (a writer's blocking drain,
// the try and timed writers beside a biased reader, slot ownership, bias
// return), and the workload harness invariant.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/spinlock.h"
#include "src/obs/metrics.h"
#include "src/threads/thread_record.h"
#include "src/threads/threads.h"
#include "src/workload/rwlock.h"
#include "tests/await_blocked.h"

namespace taos {
namespace {

using namespace std::chrono_literals;

// The ReaderWriterMutex the calling thread holds through its bias slot.
const ReaderWriterMutex* BiasedHold() { return Thread::Self().rec->biased_rw; }

ThreadRecord::BlockKind BlockKindOf(const Thread& t) {
  ThreadRecord* rec = t.Handle().rec;
  SpinGuard g(rec->lock);
  return rec->block_kind;
}

TEST(RwMutexTest, UncontendedModes) {
  ReaderWriterMutex rw;
  rw.Acquire();
  EXPECT_EQ(rw.HolderForDebug(), Thread::Self().id());
  EXPECT_FALSE(rw.TryAcquire());
  EXPECT_FALSE(rw.TryAcquireShared());
  rw.Release();

  rw.AcquireShared();
  EXPECT_EQ(rw.ReadersForDebug(), 1u);
  EXPECT_FALSE(rw.TryAcquire());       // readers exclude writers...
  EXPECT_TRUE(rw.TryAcquireShared());  // ...but admit more readers
  EXPECT_EQ(rw.ReadersForDebug(), 2u);
  rw.ReleaseShared();
  rw.ReleaseShared();
  EXPECT_EQ(rw.ReadersForDebug(), 0u);

  EXPECT_TRUE(rw.TryAcquire());
  rw.Release();
}

// Readers genuinely overlap: all of them must be inside their sections at
// one moment (a mutex in reader's clothing would deadlock this test).
TEST(RwMutexTest, ReadersOverlap) {
  constexpr int kReaders = 4;
  ReaderWriterMutex rw;
  std::atomic<int> inside{0};
  std::vector<Thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.push_back(Thread::Fork([&] {
      ReadLock rl(rw);
      inside.fetch_add(1, std::memory_order_acq_rel);
      // Hold until every reader has arrived; with any pair serialized this
      // spins forever and the test times out.
      while (inside.load(std::memory_order_acquire) < kReaders) {
        std::this_thread::yield();
      }
    }));
  }
  for (Thread& t : readers) {
    t.Join();
  }
  EXPECT_EQ(inside.load(std::memory_order_relaxed), kReaders);
  EXPECT_EQ(rw.ReadersForDebug(), 0u);
}

// Mixed readers and writers over a shared variable: writers see and leave
// consistent state, readers never observe a torn update.
TEST(RwMutexTest, WritersExcludeEveryone) {
  constexpr int kThreads = 6;
  const int iters = 200;
  ReaderWriterMutex rw;
  // Two copies a writer updates non-atomically; a reader under the lock
  // must always see them equal.
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::atomic<int> torn{0};
  std::vector<Thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.push_back(Thread::Fork([&, t] {
      for (int i = 0; i < iters; ++i) {
        if ((t + i) % 3 == 0) {
          WriteLock wl(rw);
          ++a;
          std::this_thread::yield();  // widen any would-be race
          ++b;
        } else {
          ReadLock rl(rw);
          if (a != b) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    }));
  }
  for (Thread& t : threads) {
    t.Join();
  }
  EXPECT_EQ(torn.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(a, b);
}

// The wakeup policy, reader half: an exclusive release must wake every
// queued reader at once (not one per subsequent release, as a mutex-like
// chain would).
TEST(RwMutexTest, ExclusiveReleaseDrainsAllQueuedReaders) {
  constexpr int kReaders = 4;
  ReaderWriterMutex rw;
  std::atomic<int> admitted{0};
  rw.Acquire();
  std::vector<Thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.push_back(Thread::Fork([&] {
      ReadLock rl(rw);
      admitted.fetch_add(1, std::memory_order_acq_rel);
      // Wait for all: only a drain-all release admits everyone while this
      // reader still holds its shared mode.
      while (admitted.load(std::memory_order_acquire) < kReaders) {
        std::this_thread::yield();
      }
    }));
    AwaitBlocked(readers.back());
  }
  rw.Release();  // one release, kReaders wakeups
  for (Thread& t : readers) {
    t.Join();
  }
  EXPECT_EQ(admitted.load(std::memory_order_relaxed), kReaders);
}

// The wakeup policy, writer half: the LAST reader out wakes the queued
// writer (earlier releases must not).
TEST(RwMutexTest, LastReaderWakesQueuedWriter) {
  ReaderWriterMutex rw;
  std::atomic<bool> wrote{false};
  std::atomic<bool> go{false};
  rw.AcquireShared();
  Thread reader = Thread::Fork([&] {
    ReadLock rl(rw);
    while (!go.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (rw.ReadersForDebug() < 2u) {
    std::this_thread::yield();
  }

  Thread writer = Thread::Fork([&] {
    rw.Acquire();
    wrote.store(true, std::memory_order_release);
    rw.Release();
  });
  AwaitBlocked(writer);
  EXPECT_FALSE(wrote.load(std::memory_order_acquire));
  rw.ReleaseShared();  // count 2 -> 1: the second reader still excludes
  EXPECT_FALSE(wrote.load(std::memory_order_acquire));
  go.store(true, std::memory_order_release);  // count 1 -> 0 wakes the writer
  writer.Join();
  reader.Join();
  EXPECT_TRUE(wrote.load(std::memory_order_acquire));
}

TEST(RwMutexTest, TimedAcquireTimesOutAgainstReaderAndSatisfies) {
  ReaderWriterMutex rw;
  rw.AcquireShared();
  EXPECT_EQ(rw.AcquireFor(2ms), WaitResult::kTimeout);
  EXPECT_EQ(rw.AcquireFor(0ns), WaitResult::kTimeout);
  rw.ReleaseShared();
  EXPECT_EQ(rw.AcquireFor(2ms), WaitResult::kSatisfied);
  rw.Release();
}

TEST(RwMutexTest, TimedSharedTimesOutAgainstWriterAndSatisfies) {
  ReaderWriterMutex rw;
  rw.Acquire();
  EXPECT_EQ(rw.AcquireSharedFor(2ms), WaitResult::kTimeout);
  EXPECT_EQ(rw.AcquireSharedFor(0ns), WaitResult::kTimeout);
  rw.Release();
  EXPECT_EQ(rw.AcquireSharedFor(2ms), WaitResult::kSatisfied);
  rw.ReleaseShared();
}

// A grant racing the deadline is kept: the writer releases just as the
// timed waiter's deadline approaches, and a satisfied result must mean a
// real hold (released afterwards without dying).
TEST(RwMutexTest, TimedGrantRacingDeadlineIsKept) {
  ReaderWriterMutex rw;
  for (int i = 0; i < 20; ++i) {
    rw.Acquire();
    Thread waiter = Thread::Fork([&] {
      if (rw.AcquireSharedFor(std::chrono::microseconds(50 + 25 * (i % 4))) ==
          WaitResult::kSatisfied) {
        rw.ReleaseShared();
      }
    });
    std::this_thread::sleep_for(std::chrono::microseconds(40));
    rw.Release();
    waiter.Join();
  }
  EXPECT_TRUE(rw.TryAcquire());  // nothing leaked a hold
  rw.Release();
}

// --- biased readers ---

// A writer that finds a biased reader inside takes the writer bit, revokes
// the bias and parks until the reader leaves; it must not spin. While it
// drains, new readers wait on the word behind it.
TEST(RwMutexTest, WriterDrainingABiasedReaderParks) {
  ReaderWriterMutex rw;
  rw.AcquireShared();
  ASSERT_EQ(BiasedHold(), &rw);
  std::atomic<bool> wrote{false};
  std::atomic<bool> read{false};
  Thread writer = Thread::Fork([&] {
    rw.Acquire();
    wrote.store(true, std::memory_order_release);
    rw.Release();
  });
  AwaitBlocked(writer);
  EXPECT_EQ(BlockKindOf(writer), ThreadRecord::BlockKind::kRwExclusive);
  EXPECT_EQ(rw.HolderForDebug(), writer.Handle().id());
  Thread reader = Thread::Fork([&] {
    ReadLock rl(rw);
    EXPECT_TRUE(wrote.load(std::memory_order_acquire));
    read.store(true, std::memory_order_release);
  });
  AwaitBlocked(reader);
  EXPECT_EQ(BlockKindOf(reader), ThreadRecord::BlockKind::kRwShared);
  // The biased hold lasts across a long wait; the writer stays parked.
  std::this_thread::sleep_for(20ms);
  EXPECT_TRUE(IsBlocked(writer));
  EXPECT_FALSE(wrote.load(std::memory_order_acquire));
  rw.ReleaseShared();  // wakes the drainer, not a writer queued for the word
  writer.Join();
  reader.Join();
  EXPECT_TRUE(read.load(std::memory_order_acquire));
  EXPECT_EQ(rw.ReadersForDebug(), 0u);
}

// TryAcquire never waits for biased readers: it gives the writer bit back
// and the bias with it, and both modes still work.
TEST(RwMutexTest, TryAcquireBesideABiasedReaderFailsAtOnce) {
  ReaderWriterMutex rw;
  rw.AcquireShared();
  ASSERT_EQ(BiasedHold(), &rw);
  EXPECT_FALSE(rw.TryAcquire());
  EXPECT_EQ(rw.HolderForDebug(), spec::kNil);
  EXPECT_EQ(rw.ReadersForDebug(), 1u);
  EXPECT_EQ(rw.AcquireFor(0ns), WaitResult::kTimeout);
  Thread reader = Thread::Fork([&] {
    ReadLock rl(rw);
    EXPECT_EQ(BiasedHold(), &rw);  // the bias was given back too
    EXPECT_EQ(rw.ReadersForDebug(), 2u);
  });
  reader.Join();
  rw.ReleaseShared();
  EXPECT_TRUE(rw.TryAcquire());
  rw.Release();
  rw.AcquireShared();
  rw.ReleaseShared();
  EXPECT_EQ(rw.ReadersForDebug(), 0u);
}

// A timed writer whose deadline passes while it drains gives back the
// writer bit: the reader that queued on the word behind it gets in, and a
// later writer drains the biased reader again and gets in too.
TEST(RwMutexTest, TimedWriterTimesOutWhileDraining) {
  ReaderWriterMutex rw;
  rw.AcquireShared();
  ASSERT_EQ(BiasedHold(), &rw);
  Thread timed = Thread::Fork(
      [&] { EXPECT_EQ(rw.AcquireFor(30ms), WaitResult::kTimeout); });
  AwaitBlocked(timed);
  std::atomic<bool> read{false};
  Thread reader = Thread::Fork([&] {
    ReadLock rl(rw);
    read.store(true, std::memory_order_release);
  });
  timed.Join();
  reader.Join();
  EXPECT_TRUE(read.load(std::memory_order_acquire));
  EXPECT_EQ(rw.HolderForDebug(), spec::kNil);
  Thread biased_reader = Thread::Fork([&] {
    ReadLock rl(rw);
    EXPECT_EQ(BiasedHold(), &rw);  // the bias was given back too
  });
  biased_reader.Join();
  std::atomic<bool> wrote{false};
  Thread writer = Thread::Fork([&] {
    WriteLock wl(rw);
    wrote.store(true, std::memory_order_release);
  });
  AwaitBlocked(writer);
  EXPECT_FALSE(wrote.load(std::memory_order_acquire));
  rw.ReleaseShared();
  writer.Join();
  EXPECT_TRUE(wrote.load(std::memory_order_acquire));
  EXPECT_EQ(rw.AcquireFor(2ms), WaitResult::kSatisfied);
  rw.Release();
}

// A thread has one bias slot: its second shared lock goes through the
// word, and each release finds the right one, in either order.
TEST(RwMutexTest, SecondSharedLockGoesThroughTheWord) {
  for (bool a_first : {true, false}) {
    SCOPED_TRACE(a_first ? "release a first" : "release b first");
    ReaderWriterMutex a;  // fresh locks: biased, no inhibit window
    ReaderWriterMutex b;
    a.AcquireShared();
    b.AcquireShared();
    EXPECT_EQ(BiasedHold(), &a);
    EXPECT_EQ(a.ReadersForDebug(), 1u);
    EXPECT_EQ(b.ReadersForDebug(), 1u);
    EXPECT_FALSE(b.TryAcquire());  // b's word counts the reader
    if (a_first) {
      a.ReleaseShared();
      EXPECT_EQ(BiasedHold(), nullptr);
      b.ReleaseShared();
    } else {
      b.ReleaseShared();
      EXPECT_EQ(BiasedHold(), &a);
      a.ReleaseShared();
    }
    EXPECT_EQ(a.ReadersForDebug(), 0u);
    EXPECT_EQ(b.ReadersForDebug(), 0u);
    EXPECT_TRUE(a.TryAcquire());
    a.Release();
    EXPECT_TRUE(b.TryAcquire());
    b.Release();
  }
}

// A revocation turns the bias off; a word reader turns it back on once the
// inhibit window has passed, and the next reader is biased again.
TEST(RwMutexTest, BiasReturnsAfterARevoke) {
  ReaderWriterMutex rw;
  rw.AcquireShared();
  EXPECT_EQ(BiasedHold(), &rw);
  rw.ReleaseShared();
  rw.Acquire();
  rw.Release();
  // The first reader after the revocation reads through the word, even
  // past the window: the bias it brings back is for the readers after it.
  rw.AcquireShared();
  EXPECT_EQ(BiasedHold(), nullptr);
  rw.ReleaseShared();
  bool biased = false;
  for (int i = 0; i < 1000 && !biased; ++i) {
    rw.AcquireShared();
    biased = BiasedHold() == &rw;
    rw.ReleaseShared();
    if (!biased) {
      std::this_thread::sleep_for(1ms);
    }
  }
  EXPECT_TRUE(biased);
}

// ReadersForDebug counts biased readers with the word's.
TEST(RwMutexTest, ReadersForDebugCountsBiasedReaders) {
  constexpr int kReaders = 3;
  ReaderWriterMutex rw;
  std::atomic<int> biased{0};
  std::atomic<bool> go{false};
  std::vector<Thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.push_back(Thread::Fork([&] {
      ReadLock rl(rw);
      if (BiasedHold() == &rw) {
        biased.fetch_add(1, std::memory_order_relaxed);
      }
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }));
  }
  while (rw.ReadersForDebug() < static_cast<std::uint32_t>(kReaders)) {
    std::this_thread::yield();
  }
  EXPECT_GT(biased.load(std::memory_order_relaxed), 0);
  rw.AcquireShared();  // biased, or through the word on a slot collision
  EXPECT_TRUE(rw.TryAcquireShared());  // always through the word
  EXPECT_EQ(rw.ReadersForDebug(), kReaders + 2u);
  rw.ReleaseShared();
  rw.ReleaseShared();
  go.store(true, std::memory_order_release);
  for (Thread& t : readers) {
    t.Join();
  }
  EXPECT_EQ(rw.ReadersForDebug(), 0u);
}

TEST(RwMutexTest, StatsSplitFastFromSlow) {
  using obs::Counter;
  ReaderWriterMutex rw;
  obs::Stats before = obs::Snapshot();
  rw.AcquireShared();
  rw.ReleaseShared();
  rw.Acquire();
  rw.Release();
  obs::Stats after = obs::Snapshot();
  EXPECT_EQ(after.Count(Counter::kFastMutexAcquire) -
                before.Count(Counter::kFastMutexAcquire),
            2u);
  EXPECT_EQ(after.Count(Counter::kNubAcquire),
            before.Count(Counter::kNubAcquire));

  before = after;

  rw.Acquire();
  Thread waiter = Thread::Fork([&] {
    rw.AcquireShared();
    rw.ReleaseShared();
  });
  AwaitBlocked(waiter);
  rw.Release();
  waiter.Join();
  EXPECT_GE(obs::Snapshot().Count(Counter::kNubAcquire) -
                before.Count(Counter::kNubAcquire),
            1u);
}

// The workload harness over the real primitive: the reader/writer invariant
// (never a writer with readers, never two writers) holds under the mixed
// load the E4b benchmark measures.
TEST(RwMutexTest, WorkloadHarnessInvariant) {
  workload::NativeRWLock lock;
  auto r = workload::RunReadersWriters(lock, /*readers=*/3, /*writers=*/2,
                                       /*iters=*/150, /*read_work=*/5,
                                       /*write_work=*/10);
  EXPECT_TRUE(r.invariant_ok);
  EXPECT_EQ(r.writes, 2u * 150u);
}

}  // namespace
}  // namespace taos
