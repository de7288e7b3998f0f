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

ReaderWriterMutex::ReaderWriterMutex() : id_(Nub::Get().NextObjId()) {}

ReaderWriterMutex::~ReaderWriterMutex() {
  TAOS_CHECK(readers_queue_.Empty());
  TAOS_CHECK(writers_queue_.Empty());
  TAOS_CHECK(word_.load(std::memory_order_relaxed) == 0);
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
  obs::Inc(obs::Counter::kFastMutexAcquire);
  NoteAcquired(self);
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
    } else if (WriterCas()) {
      obs::Inc(obs::Counter::kFastMutexAcquire);
      NoteAcquired(self);
    } else if (timeout.count() <= 0) {
      result = WaitResult::kTimeout;
    } else if (NubAcquireFor(self, DeadlineAfter(timeout))) {
      NoteAcquired(self);
    } else {
      result = WaitResult::kTimeout;
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
