// Per-thread control block, the analogue of the Taos Nub's thread records.
//
// A ThreadRecord is on at most one queue at a time (a mutex queue, a
// semaphore queue, a condition queue — there is no explicit ready pool here
// because the host OS schedules runnable threads; "de-schedule this thread"
// becomes parking on a private Parker, and "add to the ready pool" becomes
// unparking it).
//
// All fields below the "guarded by `lock`" line are only touched while
// holding this record's parking-lot lock (which the blocking, waking and
// alerting paths all nest inside the blocked-on object's ObjLock, per the
// ordering discipline in nub.h).

#ifndef TAOS_SRC_THREADS_THREAD_RECORD_H_
#define TAOS_SRC_THREADS_THREAD_RECORD_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/base/intrusive_queue.h"
#include "src/base/spinlock.h"
#include "src/obs/diag.h"
#include "src/obs/metrics.h"
#include "src/spec/state.h"
#include "src/waitq/parker.h"

namespace taos {

class Mutex;
class Condition;
class Semaphore;
class ObjLock;
class ReaderWriterMutex;

struct ThreadRecord {
  QueueNode queue_node;

  // The thread's identity and the record's generation: Nub::CreateRecord
  // gives every use of a record a fresh id, and Nub::ReleaseRecord resets
  // it to kNil. Both write it under `lock`, where Alert compares it with
  // the handle's id; the owning thread reads it freely.
  spec::ThreadId id = spec::kNil;

  // The ReaderWriterMutex this thread holds through its bias slot, or null.
  // Owner-only: a slot that holds a lock does not say which thread put it
  // there, so a biased release checks this first (rwmutex.h). Reset when
  // the record is reused.
  ReaderWriterMutex* biased_rw = nullptr;

  // "De-scheduled" threads park here; making a thread ready unparks it.
  // The queue discipline guarantees at most one outstanding unpark. The
  // backend (futex / condvar) is the process default; see waitq/parker.h.
  waitq::Parker park;

  // The thread's membership in the spec's global `alerts` set. Set by
  // Alert(t), cleared by TestAlert and by the Alerted-raising paths of
  // AlertP / AlertWait. In spec-tracing mode every access that an emitted
  // action depends on happens under `lock`, so the alert actions serialize.
  std::atomic<bool> alerted{false};

  // The parking-lot lock: guards this record's blocking state against the
  // one operation that cannot reach it through the blocked-on object's
  // ObjLock — Alert(t), which must discover that object from here.
  SpinLock lock;

  // ---- guarded by `lock` ----
  enum class BlockKind : std::uint8_t {
    kNone,
    kMutex,
    kSemaphore,
    kCondition,
    kRwShared,     // ReaderWriterMutex, reader queue
    kRwExclusive,  // ReaderWriterMutex, writer queue
    kEvent,        // Event's plain (single-object) waiter queue
    kPollAny,      // Poll::WaitAny — registered on a *set* of events
    kPollAll,      // Poll::WaitAll — registered on a *set* of events
  };
  BlockKind block_kind = BlockKind::kNone;
  bool alertable = false;    // blocked in AlertP / AlertWait
  bool alert_woken = false;  // dequeued by Alert rather than by V/Signal
  void* blocked_obj = nullptr;  // the object blocked on (a LockCore for
                                // kMutex and kSemaphore)
  ObjLock* blocked_lock = nullptr;  // that object's slow-path lock
  // Multi-object wait notification latch (src/threads/poll.h). A poll
  // waiter re-arms it to 0 before each scan of its wait set; an Event::Set
  // that finds this thread registered exchanges it to 1 and, on the 0->1
  // edge only, performs the record-lock unblock dance. Living here (not on
  // the waiter's stack) means granters never dereference stack memory of a
  // thread that may have already returned from WaitAny. Not guarded by
  // `lock` — the seq_cst exchange/store pair is the Dekker publication the
  // protocol's lost-wakeup argument rests on (DESIGN.md §15).
  std::atomic<std::uint32_t> poll_latch{0};

  // This thread's waits-for registry slot (src/obs/diag.h), registered
  // lazily at the first blocking episode. Writes to the slot are seqlock
  // publications serialized by `lock`; the watchdog reads it lock-free.
  obs::diag::WaiterSlot* diag_slot = nullptr;

  // Set when the thread terminated because Alerted escaped its root
  // function (see Thread::Fork).
  std::atomic<bool> ended_by_alert{false};

  // Claims on the record: its running thread, and the Thread object that
  // forked it until that is joined. The last to drop frees the record
  // (Nub::ReleaseRecord).
  std::atomic<std::uint8_t> refs{0};

  ThreadRecord() = default;
  ThreadRecord(const ThreadRecord&) = delete;
  ThreadRecord& operator=(const ThreadRecord&) = delete;
};

// Every live thread carries one record, so its size is part of each
// thread's RSS (perfbench rpc, kv); a new field should be a choice. 224:
// biased_rw, the biased ReaderWriterMutex's owner check, added 8 bytes.
#if defined(__x86_64__)
static_assert(sizeof(ThreadRecord) == 224, "ThreadRecord changed size");
#endif

// The diag WaitKind enum mirrors BlockKind value-for-value so the publish
// below is a cast, not a mapping (and a new BlockKind fails loudly here).
static_assert(
    static_cast<int>(obs::diag::WaitKind::kNone) ==
            static_cast<int>(ThreadRecord::BlockKind::kNone) &&
        static_cast<int>(obs::diag::WaitKind::kMutex) ==
            static_cast<int>(ThreadRecord::BlockKind::kMutex) &&
        static_cast<int>(obs::diag::WaitKind::kSemaphore) ==
            static_cast<int>(ThreadRecord::BlockKind::kSemaphore) &&
        static_cast<int>(obs::diag::WaitKind::kCondition) ==
            static_cast<int>(ThreadRecord::BlockKind::kCondition) &&
        static_cast<int>(obs::diag::WaitKind::kRwShared) ==
            static_cast<int>(ThreadRecord::BlockKind::kRwShared) &&
        static_cast<int>(obs::diag::WaitKind::kRwExclusive) ==
            static_cast<int>(ThreadRecord::BlockKind::kRwExclusive) &&
        static_cast<int>(obs::diag::WaitKind::kEvent) ==
            static_cast<int>(ThreadRecord::BlockKind::kEvent) &&
        static_cast<int>(obs::diag::WaitKind::kPollAny) ==
            static_cast<int>(ThreadRecord::BlockKind::kPollAny) &&
        static_cast<int>(obs::diag::WaitKind::kPollAll) ==
            static_cast<int>(ThreadRecord::BlockKind::kPollAll),
    "obs::diag::WaitKind must mirror ThreadRecord::BlockKind");

// Blocking-state transitions. The *Locked variants require t->lock held;
// the Mark* variants take it, nested inside the blocked-on object's ObjLock
// which every caller already holds (ordering rule 1 in nub.h). `obj_id` is
// the blocked-on object's spec id (0 for baselines without one): it feeds
// the waits-for registry, which must name objects by id, never by pointer
// (see the teardown-safety note in src/obs/diag.h).
inline void SetBlockedLocked(ThreadRecord* t, ThreadRecord::BlockKind kind,
                             void* obj, spec::ObjId obj_id, ObjLock* obj_lock,
                             bool alertable) {
  t->block_kind = kind;
  t->blocked_obj = obj;
  t->blocked_lock = obj_lock;
  t->alertable = alertable;
  t->alert_woken = false;
  if (t->diag_slot == nullptr) [[unlikely]] {
    t->diag_slot = obs::diag::RegisterWaiterSlot(t->id);
  }
  obs::diag::PublishBlocked(t->diag_slot,
                            static_cast<obs::diag::WaitKind>(kind), obj_id,
                            obs::NowNanos(), alertable);
}

inline void ClearBlockedLocked(ThreadRecord* t) {
  t->block_kind = ThreadRecord::BlockKind::kNone;
  t->blocked_obj = nullptr;
  t->blocked_lock = nullptr;
  t->alertable = false;
  if (t->diag_slot != nullptr) {
    obs::diag::ClearBlocked(t->diag_slot);
  }
}

inline void MarkBlocked(ThreadRecord* t, ThreadRecord::BlockKind kind,
                        void* obj, spec::ObjId obj_id, ObjLock* obj_lock,
                        bool alertable) {
  SpinGuard g(t->lock);
  SetBlockedLocked(t, kind, obj, obj_id, obj_lock, alertable);
}

inline void MarkUnblocked(ThreadRecord* t) {
  SpinGuard g(t->lock);
  ClearBlockedLocked(t);
}

// "De-schedule this thread": park on the private parker, feeding the
// de-scheduled duration into the blocked-time histogram. Every blocking
// site in src/threads goes through here, and says whether the parker may
// spin first (parker.h):
//   - kEventWait (Condition, Event, Poll, AlertWait): the wakeup delivers
//     what the thread waits for, and its latency is the caller's latency.
//   - kLockWait (Mutex, Semaphore, ReaderWriterMutex, AlertP): the wakeup
//     is only a hint to retry the test-and-set, which barging threads may
//     win. A parked waiter lets the holder re-acquire on the fast path; a
//     spinning one turns every release into a contended handoff (E34:
//     contended Mutex 6-10x slower at 2-8 threads). So the park itself
//     never spins. Before a Mutex or Semaphore waiter queues, it may spin
//     on the lock bit instead, but only if it is the lock's one spinner
//     (src/threads/lock_spin.h): the other waiters sleep, and the holder
//     still re-acquires on the fast path (E35).
inline constexpr waitq::Parker::Spin kEventWait = waitq::Parker::Spin::kGated;
inline constexpr waitq::Parker::Spin kLockWait = waitq::Parker::Spin::kNever;

// Returns the Park's result: false iff `deadline_ns` passed first (see
// ParkBlockedUntil in timer.h for what a timed-out waiter must do next).
inline bool ParkBlocked(ThreadRecord* t, waitq::Parker::Spin spin,
                        std::uint64_t deadline_ns = waitq::kNoDeadline) {
  // The window between publishing the blocked edge and the deschedule: a
  // watchdog snapshot here sees a thread "blocked" that has not parked yet.
  TAOS_CHAOS(kDiagPublishToPark);
  const std::uint64_t start = obs::NowNanos();
  const bool woken = t->park.Park(spin, deadline_ns);
  obs::Record(obs::Histogram::kBlockedNanos, obs::NowNanos() - start);
  return woken;
}

// Opaque handle clients use to name a thread (e.g. Alert(t)): the record
// and the id the thread had in it. The handle stays safe to use after the
// thread exits, as records are type-stable (Nub::CreateRecord); once the
// record is freed or reused, rec->id no longer equals `tid`.
struct ThreadHandle {
  ThreadRecord* rec = nullptr;
  spec::ThreadId tid = spec::kNil;

  // For the calling thread's own record, or one it keeps from being freed.
  static ThreadHandle Of(ThreadRecord* r) { return ThreadHandle{r, r->id}; }

  spec::ThreadId id() const { return tid; }
  bool operator==(const ThreadHandle&) const = default;
};

}  // namespace taos

#endif  // TAOS_SRC_THREADS_THREAD_RECORD_H_
