// ReaderWriterMutex: Acquire / Release (exclusive) and AcquireShared /
// ReleaseShared, with timed variants.
//
// Not in SRC Report 20 — this is a first-class extension primitive built
// the way the paper builds Mutex, and specified the same Larch way
// (src/spec/semantics.cc grows the clauses):
//
//   TYPE RWLock = RECORD [writer: Thread INITIALLY NIL,
//                         readers: SET OF Thread INITIALLY {}]
//   ATOMIC PROCEDURE Acquire(VAR rw: RWLock)
//     MODIFIES AT MOST [rw]
//     WHEN rw.writer = NIL AND rw.readers = {}  ENSURES rw.writer' = SELF
//   ATOMIC PROCEDURE Release(VAR rw: RWLock)
//     REQUIRES rw.writer = SELF
//     MODIFIES AT MOST [rw]  ENSURES rw.writer' = NIL
//   ATOMIC PROCEDURE AcquireShared(VAR rw: RWLock)
//     REQUIRES NOT (SELF IN rw.readers)
//     MODIFIES AT MOST [rw]
//     WHEN rw.writer = NIL  ENSURES rw.readers' = rw.readers + {SELF}
//   ATOMIC PROCEDURE ReleaseShared(VAR rw: RWLock)
//     REQUIRES SELF IN rw.readers
//     MODIFIES AT MOST [rw]  ENSURES rw.readers' = rw.readers - {SELF}
//
// Implementation: the same two-layer design as Mutex. The user-code state
// is one word — a writer bit plus a 31-bit reader count. The reader fast
// path is a CAS increment while the writer bit is clear; the writer fast
// path is a CAS of 0 -> writer-bit. Both, and their releases, are compiled
// in-line below behind one test of the slow-mode word, as in Mutex. The
// Nub slow paths keep two queues (readers, writers) under the object's
// ObjLock — intrusive lists, exactly as Mutex — with atomic length mirrors
// so the release-side "anyone queued?" test is a data-race-free load. The
// design barges like Mutex: a release makes waiters ready, but any thread
// may win the retried CAS first, so the spec deliberately says nothing
// about fairness (the writer-starvation litmus in src/model measures the
// consequence).
//
// Wakeup policy: an exclusive release wakes every queued reader and one
// queued writer; the last shared release wakes one queued writer. Readers
// only ever block on the writer bit, so nothing else can strand them.
//
// rwlock waits are not alertable (like Acquire, unlike Wait/P), and the
// timed variants follow Mutex::AcquireFor: a grant that races the deadline
// is kept, never converted into a timeout.

#ifndef TAOS_SRC_THREADS_RWMUTEX_H_
#define TAOS_SRC_THREADS_RWMUTEX_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "src/base/chaos.h"
#include "src/base/check.h"
#include "src/base/intrusive_queue.h"
#include "src/obs/metrics.h"
#include "src/spec/action.h"
#include "src/spec/state.h"
#include "src/threads/nub.h"
#include "src/threads/thread_record.h"
#include "src/threads/wait_result.h"

namespace taos {

class ReaderWriterMutex {
 public:
  ReaderWriterMutex();
  ~ReaderWriterMutex();
  ReaderWriterMutex(const ReaderWriterMutex&) = delete;
  ReaderWriterMutex& operator=(const ReaderWriterMutex&) = delete;

  // --- exclusive (writer) mode ---
  void Acquire() {
    if (!obs::AnySlowMode() && WriterCas()) [[likely]] {
      obs::Inc(obs::Counter::kFastMutexAcquire);
      holder_.store(Nub::Current()->id, std::memory_order_relaxed);
      return;
    }
    AcquireSlow();
  }
  bool TryAcquire();
  WaitResult AcquireFor(std::chrono::nanoseconds timeout);
  void Release() {
    if (obs::AnySlowMode()) [[unlikely]] {
      ReleaseSlow();
      return;
    }
    ClearWriter(Nub::Current());
  }

  // --- shared (reader) mode ---
  void AcquireShared() {
    if (!obs::AnySlowMode() && SharedCasLoop()) [[likely]] {
      obs::Inc(obs::Counter::kFastMutexAcquire);
      return;
    }
    AcquireSharedSlow();
  }
  bool TryAcquireShared();
  WaitResult AcquireSharedFor(std::chrono::nanoseconds timeout);
  void ReleaseShared() {
    if (obs::AnySlowMode()) [[unlikely]] {
      ReleaseSharedSlow();
      return;
    }
    DropReader();
  }

  // The exclusive holder, or kNil. Racy; for debuggers and tests only.
  spec::ThreadId HolderForDebug() const {
    return holder_.load(std::memory_order_relaxed);
  }
  // The reader count. Racy; for debuggers and tests only.
  std::uint32_t ReadersForDebug() const {
    return word_.load(std::memory_order_relaxed) & ~kWriterBit;
  }

  spec::ObjId id() const { return id_; }

 private:
  friend bool ParkBlockedUntil(ThreadRecord* t, std::uint64_t deadline_ns,
                               waitq::Parker::Spin spin);

  static constexpr std::uint32_t kWriterBit = 1u << 31;

  // The writer's user-code CAS of 0 -> writer-bit (fast path and the Nub
  // retries alike; the caller counts).
  bool WriterCas() {
    std::uint32_t expected = 0;
    return word_.compare_exchange_strong(expected, kWriterBit,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed);
  }

  // The reader fast path: CAS-increment while the writer bit is clear.
  // Returns false once it observes the writer bit (never blocks).
  bool SharedCasLoop() {
    std::uint32_t w = word_.load(std::memory_order_relaxed);
    while ((w & kWriterBit) == 0) {
      if (word_.compare_exchange_weak(w, w + 1, std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        // The reader-admission commit point: a writer's enqueue-then-test
        // may be racing this CAS.
        TAOS_CHAOS(kRwlockReaderCas);
        return true;
      }
    }
    return false;
  }

  // Release's user code: clear the word; call the Nub only if someone is
  // queued. The seq_cst store/load pairs with the enqueue-then-test in the
  // acquire slow paths (both reader and writer sides), so no waiter is
  // left parked with the lock free.
  void ClearWriter(ThreadRecord* self) {
    // REQUIRES rw.writer = SELF (library extension; the spec trusts the
    // caller, the implementation does not).
    TAOS_CHECK(holder_.load(std::memory_order_relaxed) == self->id);
    holder_.store(spec::kNil, std::memory_order_relaxed);
    word_.store(0, std::memory_order_seq_cst);
    if (reader_q_len_.load(std::memory_order_seq_cst) > 0 ||
        writer_q_len_.load(std::memory_order_seq_cst) > 0) {
      NubReleaseExclusive();
    } else {
      obs::Inc(obs::Counter::kFastMutexRelease);
    }
  }

  // ReleaseShared's user code.
  void DropReader() {
    // REQUIRES SELF IN rw.readers: the word cannot show a writer and must
    // count at least this reader (set membership proper is the trace
    // checker's job; the count catches both misuse death-test shapes).
    const std::uint32_t prev = word_.fetch_sub(1, std::memory_order_seq_cst);
    TAOS_CHECK((prev & kWriterBit) == 0 && prev != 0);
    if (prev == 1) {
      // Last reader out: wake one queued writer. The seq_cst fetch_sub
      // above against the writer's enqueue-then-test is the same Dekker
      // pairing as Release's clear-then-scan.
      TAOS_CHAOS(kRwlockLastReaderWake);
      if (writer_q_len_.load(std::memory_order_seq_cst) > 0) {
        NubWakeOneWriter();
        return;
      }
    }
    obs::Inc(obs::Counter::kFastMutexRelease);
  }

  // Out-of-line paths: a slow-mode bit is set, or the acquire CAS failed.
  void AcquireSlow();
  void ReleaseSlow();
  void AcquireSharedSlow();
  void ReleaseSharedSlow();

  // Nub subroutines: enqueue on the respective queue, re-test the word,
  // de-schedule if still excluded; retry the whole acquisition from the
  // CAS. The same shape as Mutex::NubAcquireFor, over two queues: the
  // untimed entry points pass kNoDeadline. Return false on timeout.
  bool NubAcquireFor(ThreadRecord* self, std::uint64_t deadline_ns);
  bool NubAcquireSharedFor(ThreadRecord* self, std::uint64_t deadline_ns);

  // Release-side Nub subroutines. An exclusive release drains the reader
  // queue and unblocks one writer; the last shared release unblocks one
  // writer. Unparks happen after the ObjLock is dropped.
  void NubReleaseExclusive();
  void NubWakeOneWriter();

  // Out-of-line exclusive-acquire epilogue; owner stamps mirror
  // Mutex::NoteAcquired.
  // Shared holders are deliberately NOT stamped: a reader-held rwmutex has
  // no single owner, so the waits-for graph treats it as owner-unknown
  // (which can hide a reader-writer deadlock from the cycle finder, but
  // never invents one — the stall dump still shows every edge).
  void NoteAcquired(ThreadRecord* self) {
    holder_.store(self->id, std::memory_order_relaxed);
    if (obs::diag::Enabled()) [[unlikely]] {
      TAOS_CHAOS(kDiagOwnerStamp);
      obs::diag::StampOwner(id_, self->id);
    }
  }

  // Traced (spec-emitting) paths; the same shape as Mutex's, with the
  // word manipulated under the ObjLock and the action emitted under
  // self's record lock.
  bool TracedAcquireFor(ThreadRecord* self, std::uint64_t deadline_ns);
  bool TracedAcquireSharedFor(ThreadRecord* self, std::uint64_t deadline_ns);
  void TracedRelease(ThreadRecord* self);
  void TracedReleaseShared(ThreadRecord* self);

  // Writer bit | 31-bit reader count.
  std::atomic<std::uint32_t> word_{0};
  ObjLock nub_lock_;  // guards both queues (the slow paths)
  IntrusiveQueue<ThreadRecord> readers_queue_;
  IntrusiveQueue<ThreadRecord> writers_queue_;
  std::atomic<std::int32_t> reader_q_len_{0};
  std::atomic<std::int32_t> writer_q_len_{0};
  std::atomic<spec::ThreadId> holder_{spec::kNil};
  spec::ObjId id_;
};

// RAII brackets, mirroring Lock (threads.h) for the two modes.
class WriteLock {
 public:
  explicit WriteLock(ReaderWriterMutex& rw) : rw_(rw) { rw_.Acquire(); }
  ~WriteLock() { rw_.Release(); }
  WriteLock(const WriteLock&) = delete;
  WriteLock& operator=(const WriteLock&) = delete;

 private:
  ReaderWriterMutex& rw_;
};

class ReadLock {
 public:
  explicit ReadLock(ReaderWriterMutex& rw) : rw_(rw) { rw_.AcquireShared(); }
  ~ReadLock() { rw_.ReleaseShared(); }
  ReadLock(const ReadLock&) = delete;
  ReadLock& operator=(const ReadLock&) = delete;

 private:
  ReaderWriterMutex& rw_;
};

}  // namespace taos

#endif  // TAOS_SRC_THREADS_RWMUTEX_H_
