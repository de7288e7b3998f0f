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
// is one word — a writer bit plus a 31-bit reader count. The word's reader
// path is a CAS increment while the writer bit is clear; the writer fast
// path is a CAS of 0 -> writer-bit. The writer's CAS and release are
// compiled in-line below behind one test of the slow-mode word, as in
// Mutex; the reader's CAS loop and decrement are out of line, behind the
// bias test below. The Nub slow paths keep two queues (readers, writers)
// under the object's ObjLock — intrusive lists, exactly as Mutex — with
// atomic length mirrors so the release-side "anyone queued?" test is a
// data-race-free load. The design barges like Mutex: a release makes
// waiters ready, but any thread may win the retried CAS first, so the spec
// deliberately says nothing about fairness (the writer-starvation litmus
// in src/model measures the consequence).
//
// Biased readers (BRAVO; DESIGN.md §13): while the lock's bias flag is
// set, a reader does not touch the word. It publishes the lock in its own
// cache line of a process-wide slot table and re-reads the flag; the
// in-line shared acquire and release are that slot CAS and a slot
// exchange, one atomic RMW each, and the word's CAS loop is out of line. A
// writer takes the writer bit, clears the flag, and parks until no slot
// holds the lock. Bias returns on the word path once an inhibit window, 9x
// the last revocation's cost, has passed.
//
// Wakeup policy: an exclusive release wakes every queued reader and one
// queued writer; the last shared release wakes one queued writer; a biased
// release after a revocation wakes the draining writer. Readers only ever
// block on the writer bit, so nothing else can strand them.
//
// rwlock waits are not alertable (like Acquire, unlike Wait/P), and the
// timed variants follow Mutex::AcquireFor: a grant that races the deadline
// is kept, never converted into a timeout.

#ifndef TAOS_SRC_THREADS_RWMUTEX_H_
#define TAOS_SRC_THREADS_RWMUTEX_H_

#include <atomic>
#include <chrono>
#include <cstddef>
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
      ThreadRecord* self = Nub::Current();
      holder_.store(self->id, std::memory_order_relaxed);
      RevokeBiasIfSet(self, waitq::kNoDeadline);
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
    if (!obs::AnySlowMode() && TryBiasedShared()) [[likely]] {
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
    ThreadRecord* self = Nub::Current();
    if (self->biased_rw == this) [[likely]] {
      ReleaseBiased(self);
      return;
    }
    DropReader();
  }

  // The exclusive holder, or kNil. Racy; for debuggers and tests only.
  spec::ThreadId HolderForDebug() const {
    return holder_.load(std::memory_order_relaxed);
  }
  // The reader count: the word's, plus the slots that hold this lock.
  // Racy; for debuggers and tests only.
  std::uint32_t ReadersForDebug() const;

  spec::ObjId id() const { return id_; }

 private:
  friend bool ParkBlockedUntil(ThreadRecord* t, std::uint64_t deadline_ns,
                               waitq::Parker::Spin spin);

  static constexpr std::uint32_t kWriterBit = 1u << 31;

  // The biased readers' slots: one cache line each, 16 KB in all, shared
  // by every ReaderWriterMutex. A thread's slot is picked by its id, so
  // threads created one after another get different slots; a thread whose
  // slot is taken (by a colliding thread, or by its own other biased lock)
  // reads through the word.
  struct alignas(64) BiasSlot {
    std::atomic<const ReaderWriterMutex*> rw{nullptr};
  };
  static constexpr std::size_t kBiasSlots = 256;
  static BiasSlot bias_slots_[kBiasSlots];
  static std::atomic<const ReaderWriterMutex*>& SlotOf(
      const ThreadRecord* self) {
    return bias_slots_[self->id & (kBiasSlots - 1)].rw;
  }

  // Bias stays off for this many times the last revocation's cost (BRAVO's
  // N), so a lock that writers take often settles on the word.
  static constexpr std::uint64_t kInhibitFactor = 9;

  // The writer's user-code CAS of 0 -> writer-bit (fast path and the Nub
  // retries alike; the caller counts).
  bool WriterCas() {
    std::uint32_t expected = 0;
    return word_.compare_exchange_strong(expected, kWriterBit,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed);
  }

  // The biased reader fast path. Publishes this lock in the caller's slot,
  // then re-reads the flag: a seq_cst CAS and load against the writer's
  // seq_cst flag clear and slot scan (RevokeBias), so either the reader
  // sees the flag cleared or the writer sees the slot. Returns false, with
  // nothing published, if the lock is unbiased, the slot is taken, or the
  // bias was revoked in between.
  bool TryBiasedShared() {
    if (!bias_.load(std::memory_order_relaxed)) {
      return false;
    }
    ThreadRecord* self = Nub::Current();
    const ReaderWriterMutex* expected = nullptr;
    if (!SlotOf(self).compare_exchange_strong(expected, this,
                                              std::memory_order_seq_cst,
                                              std::memory_order_relaxed)) {
      return false;
    }
    // The publish-to-recheck window a revoking writer races.
    TAOS_CHAOS(kRwlockBiasRecheck);
    if (bias_.load(std::memory_order_seq_cst)) [[likely]] {
      self->biased_rw = this;
      return true;
    }
    AbandonBias(self);
    return false;
  }

  // The biased release: clear the slot, then re-read the flag, the seq_cst
  // pair that meets the draining writer's re-scan under the object lock.
  // A cleared flag means a writer may be parked waiting for this slot.
  void ReleaseBiased(ThreadRecord* self) {
    self->biased_rw = nullptr;
    SlotOf(self).exchange(nullptr, std::memory_order_seq_cst);
    if (!bias_.load(std::memory_order_seq_cst)) [[unlikely]] {
      WakeDrainer();
      return;
    }
    obs::Inc(obs::Counter::kFastMutexRelease);
  }

  // The writer's epilogue once it holds the writer bit (and holder_): if
  // the lock is biased, revoke the bias and wait out the biased readers.
  // False iff `deadline_ns` passed first; the bias and the writer bit are
  // then given back. A relaxed load suffices: every store to the flag
  // happened before this writer's acquire CAS of the word, since a word
  // reader sets it under its reader count and a writer clears or restores
  // it under the writer bit.
  bool RevokeBiasIfSet(ThreadRecord* self, std::uint64_t deadline_ns) {
    return !bias_.load(std::memory_order_relaxed) ||
           RevokeBias(self, deadline_ns);
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

  // The word's reader paths, out of line: the CAS-increment loop (which
  // also brings the bias back once the inhibit window has passed), and
  // ReleaseShared's decrement.
  bool SharedCasLoop();
  void DropReader();

  // The bias protocol's out-of-line halves. RevokeBias clears the flag and
  // parks at the front of the writer queue until no slot holds this lock;
  // if `deadline_ns` passes first it sets the flag again, since biased
  // readers remain, and gives back the writer bit as ClearWriter does.
  // AbandonBias takes back a slot published just as the bias was revoked.
  // WakeDrainer unparks the writer-bit holder if it is parked draining.
  bool RevokeBias(ThreadRecord* self, std::uint64_t deadline_ns);
  void AbandonBias(ThreadRecord* self);
  void WakeDrainer();
  // The slots that hold this lock (seq_cst loads).
  std::uint32_t BiasedReaders() const;

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
  // Readers may take the biased path. Cleared only by the writer-bit
  // holder; set again by a word reader, whose count keeps writers out, with
  // a release store: a biased reader, which never reads the word, is
  // ordered after the last writer's section by the store it reads.
  std::atomic<bool> bias_{true};
  ObjLock nub_lock_;  // guards both queues (the slow paths)
  IntrusiveQueue<ThreadRecord> readers_queue_;
  IntrusiveQueue<ThreadRecord> writers_queue_;
  std::atomic<std::int32_t> reader_q_len_{0};
  std::atomic<std::int32_t> writer_q_len_{0};
  std::atomic<spec::ThreadId> holder_{spec::kNil};
  spec::ObjId id_;
  // obs::NowNanos before which a word reader leaves the bias off.
  std::atomic<std::uint64_t> inhibit_until_{0};
};

// Every lock in a data structure carries these bytes; the bias flag sits in
// the padding after the word, and the inhibit deadline is the only field
// the bias added.
#if defined(__x86_64__)
static_assert(sizeof(ReaderWriterMutex) == 96,
              "ReaderWriterMutex changed size");
#endif

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
