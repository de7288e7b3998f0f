#include "src/threads/rwmutex.h"

#include <vector>

#include "src/base/chaos.h"
#include "src/base/check.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/spec/action.h"
#include "src/threads/nub.h"
#include "src/threads/timer.h"

namespace taos {

ReaderWriterMutex::BiasSlot ReaderWriterMutex::bias_slots_[kBiasSlots];

ReaderWriterMutex::ReaderWriterMutex() : id_(Nub::Get().NextObjId()) {}

ReaderWriterMutex::~ReaderWriterMutex() {
  TAOS_CHECK(readers_queue_.Empty());
  TAOS_CHECK(writers_queue_.Empty());
  TAOS_CHECK(word_.load(std::memory_order_relaxed) == 0);
  TAOS_CHECK(BiasedReaders() == 0);
}

std::uint32_t ReaderWriterMutex::ReadersForDebug() const {
  return (word_.load(std::memory_order_relaxed) & ~kWriterBit) +
         BiasedReaders();
}

// --- exclusive (writer) mode ---

void ReaderWriterMutex::AcquireSlow() {
  obs::WithEvent(obs::Op::kAcquire, id_, [&] {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubAcquire);
      TracedAcquireFor(self, kNoDeadline);
      return;
    }
    if (WriterCas()) {
      obs::Inc(obs::Counter::kFastMutexAcquire);
    } else {
      NubAcquireFor(self, kNoDeadline);
    }
    NoteAcquired(self);
    RevokeBiasIfSet(self, kNoDeadline);
  });
}

bool ReaderWriterMutex::TryAcquire() {
  Nub& nub = Nub::Get();
  ThreadRecord* self = nub.Current();
  if (nub.tracing()) {
    NubGuard g(nub_lock_);
    if (word_.load(std::memory_order_relaxed) != 0) {
      return false;
    }
    word_.store(kWriterBit, std::memory_order_relaxed);
    NoteAcquired(self);
    nub.EmitTraced(spec::MakeRwAcquire(self->id, id_));
    return true;
  }
  if (!WriterCas()) {
    return false;
  }
  NoteAcquired(self);
  // A deadline already passed: biased readers are never waited for.
  if (!RevokeBiasIfSet(self, /*deadline_ns=*/0)) {
    return false;
  }
  obs::Inc(obs::Counter::kFastMutexAcquire);
  return true;
}

WaitResult ReaderWriterMutex::AcquireFor(std::chrono::nanoseconds timeout) {
  WaitResult result = WaitResult::kSatisfied;
  obs::WithEvent(obs::Op::kAcquire, id_, [&] {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubAcquire);
      const std::uint64_t deadline =
          timeout.count() > 0 ? DeadlineAfter(timeout) : 0;
      result = TracedAcquireFor(self, deadline) ? WaitResult::kSatisfied
                                                : WaitResult::kTimeout;
    } else {
      // A zero or negative timeout is a deadline already passed: it may
      // take a free word, but never waits for the word or for a drain.
      const std::uint64_t deadline =
          timeout.count() > 0 ? DeadlineAfter(timeout) : 0;
      if (WriterCas()) {
        obs::Inc(obs::Counter::kFastMutexAcquire);
      } else if (deadline == 0 || !NubAcquireFor(self, deadline)) {
        result = WaitResult::kTimeout;
        return;
      }
      NoteAcquired(self);
      if (!RevokeBiasIfSet(self, deadline)) {
        result = WaitResult::kTimeout;
      }
    }
  });
  obs::Inc(result == WaitResult::kSatisfied
               ? obs::Counter::kTimedWaitSatisfied
               : obs::Counter::kTimedWaitTimeouts);
  return result;
}

void ReaderWriterMutex::ReleaseSlow() {
  obs::WithEvent(obs::Op::kRelease, id_, [&] {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    if (nub.tracing()) {
      // TracedRelease checks REQUIRES rw.writer = SELF.
      obs::Inc(obs::Counter::kNubRelease);
      TracedRelease(self);
      return;
    }
    if (obs::diag::Enabled()) [[unlikely]] {
      obs::diag::ClearOwner(id_);
    }
    ClearWriter(self);
  });
}

// --- shared (reader) mode ---

void ReaderWriterMutex::AcquireSharedSlow() {
  obs::WithEvent(obs::Op::kAcquire, id_, [&] {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubAcquire);
      TracedAcquireSharedFor(self, kNoDeadline);
      return;
    }
    if (SharedCasLoop()) {
      obs::Inc(obs::Counter::kFastMutexAcquire);
      return;
    }
    NubAcquireSharedFor(self, kNoDeadline);
  });
}

bool ReaderWriterMutex::TryAcquireShared() {
  Nub& nub = Nub::Get();
  ThreadRecord* self = nub.Current();
  if (nub.tracing()) {
    NubGuard g(nub_lock_);
    const std::uint32_t w = word_.load(std::memory_order_relaxed);
    if ((w & kWriterBit) != 0) {
      return false;
    }
    word_.store(w + 1, std::memory_order_relaxed);
    nub.EmitTraced(spec::MakeRwAcquireShared(self->id, id_));
    return true;
  }
  if (!SharedCasLoop()) {
    return false;
  }
  obs::Inc(obs::Counter::kFastMutexAcquire);
  return true;
}

WaitResult ReaderWriterMutex::AcquireSharedFor(
    std::chrono::nanoseconds timeout) {
  WaitResult result = WaitResult::kSatisfied;
  obs::WithEvent(obs::Op::kAcquire, id_, [&] {
    Nub& nub = Nub::Get();
    ThreadRecord* self = nub.Current();
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubAcquire);
      const std::uint64_t deadline =
          timeout.count() > 0 ? DeadlineAfter(timeout) : 0;
      result = TracedAcquireSharedFor(self, deadline)
                   ? WaitResult::kSatisfied
                   : WaitResult::kTimeout;
    } else if (SharedCasLoop()) {
      obs::Inc(obs::Counter::kFastMutexAcquire);
    } else if (timeout.count() <= 0) {
      result = WaitResult::kTimeout;
    } else if (NubAcquireSharedFor(self, DeadlineAfter(timeout))) {
      // Admitted by the retried CAS inside the slow path.
    } else {
      result = WaitResult::kTimeout;
    }
  });
  obs::Inc(result == WaitResult::kSatisfied
               ? obs::Counter::kTimedWaitSatisfied
               : obs::Counter::kTimedWaitTimeouts);
  return result;
}

void ReaderWriterMutex::ReleaseSharedSlow() {
  obs::WithEvent(obs::Op::kRelease, id_, [&] {
    Nub& nub = Nub::Get();
    if (nub.tracing()) {
      obs::Inc(obs::Counter::kNubRelease);
      TracedReleaseShared(nub.Current());
      return;
    }
    DropReader();
  });
}

// --- the word's reader paths ---

bool ReaderWriterMutex::SharedCasLoop() {
  std::uint32_t w = word_.load(std::memory_order_relaxed);
  while ((w & kWriterBit) == 0) {
    if (word_.compare_exchange_weak(w, w + 1, std::memory_order_acquire,
                                    std::memory_order_relaxed)) {
      // The reader-admission commit point: a writer's enqueue-then-test
      // may be racing this CAS.
      TAOS_CHAOS(kRwlockReaderCas);
      // Bias return. The reader count just taken keeps every writer out,
      // so no revocation can be racing this store. It is a release: a
      // biased reader never reads the word, so the flag it reads set is
      // what orders the last writer's section before its own.
      if (!bias_.load(std::memory_order_relaxed) &&
          obs::NowNanos() >= inhibit_until_.load(std::memory_order_relaxed)) {
        bias_.store(true, std::memory_order_release);
      }
      return true;
    }
  }
  return false;
}

void ReaderWriterMutex::DropReader() {
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

// --- biased readers ---

std::uint32_t ReaderWriterMutex::BiasedReaders() const {
  std::uint32_t n = 0;
  for (const BiasSlot& slot : bias_slots_) {
    n += slot.rw.load(std::memory_order_seq_cst) == this ? 1 : 0;
  }
  return n;
}

bool ReaderWriterMutex::RevokeBias(ThreadRecord* self,
                                   std::uint64_t deadline_ns) {
  const std::uint64_t start = obs::NowNanos();
  // Clear-then-scan: the seq_cst pair against a reader's publish-then-
  // recheck (TryBiasedShared). A reader that published after this scan
  // finds the flag cleared and backs out.
  bias_.store(false, std::memory_order_seq_cst);
  bool drained = true;
  while (BiasedReaders() != 0) {
    if (DeadlinePassed(deadline_ns)) {
      drained = false;
      break;
    }
    bool parked = false;
    {
      NubGuard g(nub_lock_);
      // At the front of the writer queue, where WakeDrainer looks; then
      // re-scan. A biased release that cleared its slot after this re-scan
      // reads the cleared flag and takes this lock after us, so it finds
      // us queued.
      writers_queue_.PushFront(self);
      writer_q_len_.fetch_add(1, std::memory_order_relaxed);
      if (BiasedReaders() != 0) {
        SpinGuard tg(self->lock);
        SetBlockedLocked(self, ThreadRecord::BlockKind::kRwExclusive, this,
                         id_, &nub_lock_, /*alertable=*/false);
        parked = true;
      } else {
        writers_queue_.Remove(self);
        writer_q_len_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    if (parked && ParkBlockedUntil(self, deadline_ns, kLockWait)) {
      drained = false;
      break;
    }
  }
  if (!drained) {
    // Biased readers are still inside, so the flag must be set again
    // before another writer can take the bit and skip the scan. A release,
    // as in the bias return (SharedCasLoop).
    bias_.store(true, std::memory_order_release);
    if (obs::diag::Enabled()) [[unlikely]] {
      obs::diag::ClearOwner(id_);
    }
    ClearWriter(self);
    return false;
  }
  const std::uint64_t end = obs::NowNanos();
  inhibit_until_.store(end + kInhibitFactor * (end - start),
                       std::memory_order_relaxed);
  return true;
}

void ReaderWriterMutex::AbandonBias(ThreadRecord* self) {
  SlotOf(self).exchange(nullptr, std::memory_order_seq_cst);
  // A writer that scanned while the slot held this lock may be parked.
  WakeDrainer();
}

void ReaderWriterMutex::WakeDrainer() {
  obs::Inc(obs::Counter::kNubRelease);
  ThreadRecord* wake = nullptr;
  {
    NubGuard g(nub_lock_);
    // Only the writer-bit holder drains, and it queues at the front. A
    // writer queued there for the word is not the holder and stays put.
    ThreadRecord* front = writers_queue_.Front();
    if (front != nullptr &&
        front->id == holder_.load(std::memory_order_relaxed)) {
      writers_queue_.PopFront();
      writer_q_len_.fetch_sub(1, std::memory_order_relaxed);
      MarkUnblocked(front);
      wake = front;
    }
  }
  if (wake != nullptr) {
    obs::Inc(obs::Counter::kHandoffs);
    wake->park.Unpark();
  }
}

// --- Nub (slow-path) subroutines, acquire side ---

bool ReaderWriterMutex::NubAcquireFor(ThreadRecord* self,
                                      std::uint64_t deadline_ns) {
  obs::Inc(obs::Counter::kNubAcquire);
  for (;;) {
    bool parked = false;
    {
      NubGuard g(nub_lock_);
      // Enqueue on the writer queue, then re-test the whole word: a writer
      // is excluded by the writer bit or any nonzero reader count.
      writers_queue_.PushBack(self);
      writer_q_len_.fetch_add(1, std::memory_order_seq_cst);
      if (word_.load(std::memory_order_seq_cst) != 0) {
        SpinGuard tg(self->lock);
        SetBlockedLocked(self, ThreadRecord::BlockKind::kRwExclusive, this, id_,
                         &nub_lock_, /*alertable=*/false);
        parked = true;
      } else {
        writers_queue_.Remove(self);
        writer_q_len_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    const bool expired =
        parked && ParkBlockedUntil(self, deadline_ns, kLockWait);
    // Retry the entire acquisition from the CAS; barging is possible
    // exactly as in Mutex. CAS first, deadline second: a wake delivered
    // because the lock was released is never thrown away on a co-incident
    // expiry.
    if (WriterCas()) {
      return true;
    }
    obs::Inc(obs::Counter::kLockBitRetries);
    if (parked) {
      obs::Inc(obs::Counter::kSpuriousWakeups);
    }
    if (expired || DeadlinePassed(deadline_ns)) {
      return false;
    }
  }
}

bool ReaderWriterMutex::NubAcquireSharedFor(ThreadRecord* self,
                                            std::uint64_t deadline_ns) {
  obs::Inc(obs::Counter::kNubAcquire);
  for (;;) {
    bool parked = false;
    {
      NubGuard g(nub_lock_);
      // Enqueue on the reader queue, then re-test the writer bit only —
      // other readers never exclude a reader.
      readers_queue_.PushBack(self);
      reader_q_len_.fetch_add(1, std::memory_order_seq_cst);
      if ((word_.load(std::memory_order_seq_cst) & kWriterBit) != 0) {
        SpinGuard tg(self->lock);
        SetBlockedLocked(self, ThreadRecord::BlockKind::kRwShared, this, id_,
                         &nub_lock_, /*alertable=*/false);
        parked = true;
      } else {
        readers_queue_.Remove(self);
        reader_q_len_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    const bool expired =
        parked && ParkBlockedUntil(self, deadline_ns, kLockWait);
    if (SharedCasLoop()) {
      return true;
    }
    obs::Inc(obs::Counter::kLockBitRetries);
    if (parked) {
      obs::Inc(obs::Counter::kSpuriousWakeups);
    }
    if (expired || DeadlinePassed(deadline_ns)) {
      return false;
    }
  }
}

// --- Nub (slow-path) subroutines, release side ---

void ReaderWriterMutex::NubReleaseExclusive() {
  obs::Inc(obs::Counter::kNubRelease);
  // An exclusive release wakes EVERY queued reader plus one queued writer:
  // the readers can all be admitted together, and the writer contends with
  // them (barging decides the rest).
  std::vector<waitq::Parker*> unparks;
  {
    NubGuard g(nub_lock_);
    for (ThreadRecord* wake = readers_queue_.PopFront(); wake != nullptr;
         wake = readers_queue_.PopFront()) {
      reader_q_len_.fetch_sub(1, std::memory_order_relaxed);
      MarkUnblocked(wake);
      unparks.push_back(&wake->park);
    }
    ThreadRecord* wake = writers_queue_.PopFront();
    if (wake != nullptr) {
      writer_q_len_.fetch_sub(1, std::memory_order_relaxed);
      MarkUnblocked(wake);
      unparks.push_back(&wake->park);
    }
  }
  for (waitq::Parker* p : unparks) {
    obs::Inc(obs::Counter::kHandoffs);
    p->Unpark();
  }
}

void ReaderWriterMutex::NubWakeOneWriter() {
  obs::Inc(obs::Counter::kNubRelease);
  ThreadRecord* wake = nullptr;
  {
    NubGuard g(nub_lock_);
    wake = writers_queue_.PopFront();
    if (wake != nullptr) {
      writer_q_len_.fetch_sub(1, std::memory_order_relaxed);
      MarkUnblocked(wake);
    }
  }
  if (wake != nullptr) {
    obs::Inc(obs::Counter::kHandoffs);
    wake->park.Unpark();
  }
}

// --- traced (spec-emitting) paths ---

bool ReaderWriterMutex::TracedAcquireFor(ThreadRecord* self,
                                         std::uint64_t deadline_ns) {
  Nub& nub = Nub::Get();
  for (;;) {
    {
      NubGuard g(nub_lock_);
      // WHEN rw.writer = NIL AND rw.readers = {}: the whole word is zero.
      // The acquire test comes before the deadline test, so a grant always
      // beats a co-incident expiry.
      if (word_.load(std::memory_order_relaxed) == 0) {
        word_.store(kWriterBit, std::memory_order_relaxed);
        NoteAcquired(self);
        SpinGuard tg(self->lock);
        nub.EmitTraced(spec::MakeRwAcquire(self->id, id_));
        return true;
      }
      if (DeadlinePassed(deadline_ns)) {
        SpinGuard tg(self->lock);
        nub.EmitTraced(spec::MakeRwAcquireTimeout(self->id, id_));
        return false;
      }
      writers_queue_.PushBack(self);
      writer_q_len_.fetch_add(1, std::memory_order_relaxed);
      SpinGuard tg(self->lock);
      SetBlockedLocked(self, ThreadRecord::BlockKind::kRwExclusive, this, id_,
                       &nub_lock_, /*alertable=*/false);
    }
    // The loop-top deadline check decides.
    ParkBlockedUntil(self, deadline_ns, kLockWait);
  }
}

bool ReaderWriterMutex::TracedAcquireSharedFor(ThreadRecord* self,
                                               std::uint64_t deadline_ns) {
  Nub& nub = Nub::Get();
  for (;;) {
    {
      NubGuard g(nub_lock_);
      // WHEN rw.writer = NIL. (REQUIRES NOT (SELF IN rw.readers) is the
      // trace checker's to verify — the word holds no membership.)
      const std::uint32_t w = word_.load(std::memory_order_relaxed);
      if ((w & kWriterBit) == 0) {
        word_.store(w + 1, std::memory_order_relaxed);
        SpinGuard tg(self->lock);
        nub.EmitTraced(spec::MakeRwAcquireShared(self->id, id_));
        return true;
      }
      if (DeadlinePassed(deadline_ns)) {
        SpinGuard tg(self->lock);
        nub.EmitTraced(spec::MakeRwAcquireSharedTimeout(self->id, id_));
        return false;
      }
      readers_queue_.PushBack(self);
      reader_q_len_.fetch_add(1, std::memory_order_relaxed);
      SpinGuard tg(self->lock);
      SetBlockedLocked(self, ThreadRecord::BlockKind::kRwShared, this, id_,
                       &nub_lock_, /*alertable=*/false);
    }
    // The loop-top deadline check decides.
    ParkBlockedUntil(self, deadline_ns, kLockWait);
  }
}

void ReaderWriterMutex::TracedRelease(ThreadRecord* self) {
  Nub& nub = Nub::Get();
  std::vector<ThreadRecord*> wakes;
  {
    NubGuard g(nub_lock_);
    TAOS_CHECK(holder_.load(std::memory_order_relaxed) == self->id);
    holder_.store(spec::kNil, std::memory_order_relaxed);
    if (obs::diag::Enabled()) [[unlikely]] {
      obs::diag::ClearOwner(id_);
    }
    word_.store(0, std::memory_order_relaxed);
    nub.EmitTraced(spec::MakeRwRelease(self->id, id_));
    for (ThreadRecord* wake = readers_queue_.PopFront(); wake != nullptr;
         wake = readers_queue_.PopFront()) {
      reader_q_len_.fetch_sub(1, std::memory_order_relaxed);
      MarkUnblocked(wake);
      wakes.push_back(wake);
    }
    ThreadRecord* wake = writers_queue_.PopFront();
    if (wake != nullptr) {
      writer_q_len_.fetch_sub(1, std::memory_order_relaxed);
      MarkUnblocked(wake);
      wakes.push_back(wake);
    }
  }
  for (ThreadRecord* wake : wakes) {
    obs::Inc(obs::Counter::kHandoffs);
    wake->park.Unpark();
  }
}

void ReaderWriterMutex::TracedReleaseShared(ThreadRecord* self) {
  Nub& nub = Nub::Get();
  ThreadRecord* wake = nullptr;
  {
    NubGuard g(nub_lock_);
    const std::uint32_t w = word_.load(std::memory_order_relaxed);
    // REQUIRES SELF IN rw.readers, as far as the word can tell; the trace
    // checker verifies exact membership.
    TAOS_CHECK((w & kWriterBit) == 0 && w != 0);
    word_.store(w - 1, std::memory_order_relaxed);
    nub.EmitTraced(spec::MakeRwReleaseShared(self->id, id_));
    if (w == 1) {
      wake = writers_queue_.PopFront();
      if (wake != nullptr) {
        writer_q_len_.fetch_sub(1, std::memory_order_relaxed);
        MarkUnblocked(wake);
      }
    }
  }
  if (wake != nullptr) {
    obs::Inc(obs::Counter::kHandoffs);
    wake->park.Unpark();
  }
}

}  // namespace taos
