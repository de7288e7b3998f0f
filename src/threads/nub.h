// The Nub: the lower layer of the two-layer implementation described in SRC
// Report 20.
//
// "The Nub subroutines execute under the protection of a more primitive
// mutual exclusion mechanism, a spin-lock. [...] Nub subroutines acquire the
// spin-lock, perform their visible actions, and release the spin-lock."
//
// On the Firefly the Nub lived in a shared kernel address space and also ran
// the scheduler, and a single globally shared spin-lock bit serialized every
// slow path. Here the host OS supplies processors and scheduling, so the Nub
// reduces to: the slow-path locking discipline, the thread records, and the
// spec-tracing machinery. Parking/unparking a thread's private semaphore
// stands in for de-scheduling / adding to the ready pool (see DESIGN.md,
// Substitutions).
//
// Lock sharding (departure from the paper, documented in DESIGN.md §8): the
// paper's single global spin-lock is the canonical non-scalable bottleneck,
// so by default every Mutex, Condition and Semaphore carries its own ObjLock
// and every ThreadRecord carries a parking-lot lock. Setting the environment
// variable TAOS_NUB_GLOBAL_LOCK=1 (or calling Nub::SetGlobalLockMode while
// quiescent) restores the paper-faithful configuration: every ObjLock then
// resolves to the one global spin-lock bit, for A/B benchmarking.
//
// The lock-ordering discipline (deadlock freedom):
//   1. Object locks are acquired before thread-record locks, never after.
//   2. When one atomic action spans two objects (Wait/AlertWait's Enqueue
//      releases m while inserting into c; AlertResume/RAISES regains m while
//      leaving c), both ObjLocks are taken in ascending address order
//      (NubGuard2). In global-lock mode both resolve to the same bit and it
//      is acquired once.
//   3. Alert(t) learns which object t is blocked on from t's record, so it
//      must take the thread-record lock first — backwards. It therefore only
//      TRY-acquires the object lock and, on failure, releases the record
//      lock and retries (the holder of the object lock may be concurrently
//      waking t). The try breaks the cycle with rule 1. While the record
//      lock is held and t is observed blocked on the object, the object
//      cannot be destroyed (t has not returned from its blocking call), so
//      the try-acquire never touches freed memory.
//
// Spec tracing: when a TraceSink is installed, every synchronization
// operation takes its Nub (slow) path and emits its spec-visible atomic
// action while holding the lock(s) guarding every piece of spec state the
// action reads or writes. Each emission is stamped with a globally unique
// sequence number drawn from one atomic counter while those locks are held;
// because every cross-thread ordering between actions is established by a
// lock or atomic that also orders the counter increments, sorting a trace by
// stamp yields a legal serialization of the actions (DESIGN.md §8 gives the
// argument). Tracing must be enabled while the system is quiescent (no
// concurrent synchronization in flight).

#ifndef TAOS_SRC_THREADS_NUB_H_
#define TAOS_SRC_THREADS_NUB_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/spinlock.h"
#include "src/obs/metrics.h"
#include "src/spec/trace.h"
#include "src/threads/thread_record.h"

namespace taos {

namespace internal {
// The calling thread's record. constinit, like obs::internal::g_cell: the
// in-line fast paths read it as a plain TLS load, with no init guard.
extern constinit thread_local ThreadRecord* g_current;
}  // namespace internal

class Nub {
 public:
  static Nub& Get() {
    static Nub* nub = new Nub();  // intentionally leaked; records must
                                  // outlive any late thread exit
    return *nub;
  }

  Nub(const Nub&) = delete;
  Nub& operator=(const Nub&) = delete;

  // The globally shared spin-lock bit. In global-lock mode every ObjLock
  // resolves to this; in sharded mode it is only used by baselines that
  // want a process-wide lock (e.g. baseline::HandoffMutex).
  SpinLock& lock() { return lock_; }

  // True when the paper-faithful single-global-spin-lock configuration is
  // active. Initialized from the TAOS_NUB_GLOBAL_LOCK environment variable.
  bool global_lock_mode() const {
    return global_lock_mode_.load(std::memory_order_relaxed);
  }

  // Switches between the sharded and global-lock configurations. Only legal
  // while the system is quiescent: no thread blocked or inside a
  // synchronization operation (a lock taken in one mode must be released in
  // the same mode).
  void SetGlobalLockMode(bool on) {
    global_lock_mode_.store(on, std::memory_order_relaxed);
  }

  // Always false: every slow path runs on the ObjLock-guarded intrusive
  // queues. Kept only because the repository benchmark (perfbench/main.cc)
  // stamps it into its results.
  bool waitq_mode() const { return false; }

  // Always kTas: every ObjLock and record lock is the test-and-set
  // SpinLock. Kept only because the repository benchmark
  // (perfbench/main.cc) stamps it into its results.
  LockBackend lock_backend() const { return LockBackend::kTas; }

  // The calling thread's record, registering it on first use (out of line).
  static ThreadRecord* Current() {
    ThreadRecord* rec = internal::g_current;
    if (rec == nullptr) [[unlikely]] {
      rec = RegisterCurrent();
    }
    return rec;
  }

  // Takes a record for a thread that has not started yet (Thread::Fork
  // takes the child's record up front so the parent gets a handle
  // immediately), with a fresh id and `owners` claims on it: the thread
  // itself, plus the Thread object if there is one. The host thread that
  // runs it adopts it via AdoptRecord, and ExitCurrent, at the end of the
  // thread's life, drops the thread's claim.
  //
  // Records are type-stable: a record whose last claim is dropped goes on a
  // free list, never back to the allocator, and a reused record gets a
  // fresh id. So a stale ThreadHandle still points at a ThreadRecord, and
  // its id no longer matches (the check Alert makes under the record lock).
  ThreadRecord* CreateRecord(int owners);
  static void AdoptRecord(ThreadRecord* rec);
  // Ends the calling thread's life on its record, as its exit would: pays
  // the wakes it owes, clears the current record and drops the thread's
  // claim. The host thread lives on with no record.
  static void ExitCurrent();

  // Drops one claim on `rec`; the last one retires its id and frees it.
  void ReleaseRecord(ThreadRecord* rec);

  // Records allocated so far, free ones included. Thread exit recycles
  // records, so this follows the most threads ever alive at once.
  std::size_t RecordsAllocated() const {
    return records_allocated_.load(std::memory_order_relaxed);
  }

  // --- spec tracing ---
  // Also flips the tracing bit of the slow-mode word (src/obs/metrics.h),
  // which is what sends the in-line fast paths to their traced paths.
  void SetTrace(spec::TraceSink* sink) {
    trace_.store(sink, std::memory_order_release);
    obs::SetSlowMode(obs::SlowMode::kTrace, sink != nullptr);
  }
  spec::TraceSink* trace() const {
    return trace_.load(std::memory_order_acquire);
  }
  bool tracing() const { return trace() != nullptr; }

  // Stamps the action with the global serialization sequence number and
  // forwards it to the installed sink. The caller must hold the lock(s)
  // guarding all spec state the action reads or writes, so that the stamp
  // order restricted to any one object (or thread's alert flag) matches the
  // order the state changes actually took effect. The sink is loaded once:
  // callers race their tracing() check against SetTrace(nullptr), so the
  // action is dropped — not emitted through a dangling pointer — when the
  // sink was removed in between. (SetTrace(nullptr) is documented
  // quiescent-only; this makes the failure mode of a violation a truncated
  // trace rather than a null dereference.)
  void EmitTraced(spec::Action action) {
    spec::TraceSink* sink = trace();
    if (sink == nullptr) {
      return;
    }
    action.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    sink->Emit(action);
  }

  // Fresh ObjId for a Mutex/Condition/Semaphore.
  spec::ObjId NextObjId() {
    return next_obj_id_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  Nub();

  static ThreadRecord* RegisterCurrent();

  SpinLock lock_;
  std::atomic<bool> global_lock_mode_{false};
  std::atomic<spec::TraceSink*> trace_{nullptr};
  std::atomic<spec::ObjId> next_obj_id_{1};
  std::atomic<std::uint64_t> next_seq_{0};

  SpinLock free_lock_;
  std::vector<ThreadRecord*> free_;  // guarded by free_lock_
  std::atomic<std::size_t> records_allocated_{0};
  std::atomic<spec::ThreadId> next_thread_id_{1};
};

// The slow-path lock carried by each Mutex, Condition and Semaphore. In the
// default sharded mode it is the object's private spin-lock; in global-lock
// mode it resolves to the Nub's one shared bit.
class ObjLock {
 public:
  ObjLock() = default;
  ObjLock(const ObjLock&) = delete;
  ObjLock& operator=(const ObjLock&) = delete;

  SpinLock* Resolve() {
    Nub& nub = Nub::Get();
    return nub.global_lock_mode() ? &nub.lock() : &own_;
  }

 private:
  SpinLock own_;
};

// RAII bracket acquiring one object's slow-path lock.
class NubGuard {
 public:
  explicit NubGuard(ObjLock& l) : lock_(l.Resolve()) { lock_->Acquire(); }
  ~NubGuard() { lock_->Release(); }

  NubGuard(const NubGuard&) = delete;
  NubGuard& operator=(const NubGuard&) = delete;

 private:
  SpinLock* lock_;
};

// Backoff for Alert's rule-3 try-lock dance: called after releasing t's
// record lock because the object-lock TryAcquire failed. Deliberately reads
// nothing: once the record lock is dropped, the object-lock holder may wake
// t, the waiter returns from its blocking call, and the synchronization
// object — the spin-lock the failed TryAcquire targeted included — may be
// destroyed, so even a relaxed IsHeld() peek here would touch freed memory
// (the alive guarantee in rule 3 ends with the record lock). The yield is
// also what breaks the retry livelock: the holder is typically a
// Signal/Release spinning for t's record lock to wake t, and descheduling
// for a quantum hands it a window no pause-sized gap provides.
inline void Rule3Backoff() {
  for (int i = 0; i < 64; ++i) {
    SpinLock::Pause();
  }
  std::this_thread::yield();
}

// RAII bracket for an atomic action spanning two objects (rule 2 of the
// lock-ordering discipline): acquires both locks in ascending address order.
// `b` may be null (degenerates to NubGuard), and when both resolve to the
// same spin-lock (global-lock mode) it is acquired once.
class NubGuard2 {
 public:
  NubGuard2(ObjLock& a, ObjLock* b)
      : first_(a.Resolve()), second_(b != nullptr ? b->Resolve() : nullptr) {
    if (second_ == first_) {
      second_ = nullptr;
    } else if (second_ != nullptr &&
               reinterpret_cast<std::uintptr_t>(second_) <
                   reinterpret_cast<std::uintptr_t>(first_)) {
      std::swap(first_, second_);
    }
    first_->Acquire();
    if (second_ != nullptr) {
      second_->Acquire();
    }
  }
  ~NubGuard2() {
    if (second_ != nullptr) {
      second_->Release();
    }
    first_->Release();
  }

  NubGuard2(const NubGuard2&) = delete;
  NubGuard2& operator=(const NubGuard2&) = delete;

 private:
  SpinLock* first_;
  SpinLock* second_;
};

}  // namespace taos

#endif  // TAOS_SRC_THREADS_NUB_H_
