// The one spin a Nub lock wait makes before it queues. Its callers:
//   - LockCore::AcquireFor (src/threads/lock_core.h), ahead of the
//     enqueue-then-retest, so Mutex and Semaphore waits spin alike; the
//     attempt is the test-and-set of the lock bit;
//   - ReaderWriterMutex's two word waits (src/threads/rwmutex.h): a reader
//     blocked by the writer bit retries the reader CAS loop, a writer
//     blocked by the word retries the writer CAS; one spinner per side;
//   - ReaderWriterMutex's drain: a writer revoking the reader bias re-scans
//     the bias slots before it parks. Only the writer-bit holder drains, so
//     it needs no spinner flag.
// Two waits do not spin:
//   - alertable ones (AlertP): a spinner is not blocked, so an Alert could
//     only set its flag and could not end the wait until the spin ran out;
//   - the traced paths, which serialize every attempt under the object lock.
//
// The paper's Nub queues a thread whose test-and-set failed and
// de-schedules it; Release then makes it ready to retry. On a
// multiprocessor the holder of a hot lock (a request mailbox's mutex, say)
// usually releases it within a few microseconds, while the futex sleep and
// wake costs the waiter ~6 µs. So a waiter may first spin, retrying its
// acquire:
//
//   - One spinner per lock (per side, for ReaderWriterMutex). A per-object
//     flag admits one spinner at a time; every other waiter queues and
//     parks at once, as before. Letting every waiter spin raised rpc's p50
//     16% and made contended Mutex at 8 threads on 4 CPUs 1.9x slower, the
//     spinners holding CPUs the holder needs; with one spinner the rest
//     sleep (EXPERIMENTS E35).
//   - The spinner retries once per 32 pauses, not every pause: a tighter
//     poll slows the holder's own use of the lock's cache line and catches
//     every short gap between its release and re-acquire, moving the line
//     on every acquisition (E35: rpc p50 +6%, contended Mutex up to 2x
//     slower at 2 threads).
//   - The attempt is the user-code acquire, no more: a relaxed look first,
//     then the same acquire RMW as the in-line fast path. Report 20 lets
//     any thread win that test-and-set, so a waiter that takes a just-freed
//     lock ahead of a queued one is an order the spec already allows, and
//     the enqueue-then-retest (Dekker) argument between Release and the
//     queue is untouched: a spinner is not queued, so Release owes it
//     nothing.
//   - The budget and the gate are the Parker's (src/waitq/parker.h): at
//     most Parker::kSpinBudgetNs, never past the waiter's deadline, and only
//     if the calling CPU's SpinGate cell admits it; the outcome is fed back
//     into the same cell.
//   - Ledger: every call bumps exactly one of the obs counters
//     lock_spin_hits, lock_spin_misses, lock_spin_skipped (gate closed) and
//     lock_spin_busy (another waiter was already spinning).

#ifndef TAOS_SRC_THREADS_LOCK_SPIN_H_
#define TAOS_SRC_THREADS_LOCK_SPIN_H_

#include <atomic>
#include <cstdint>
#include <type_traits>

namespace taos {

// Called after a failed acquire. Spins as the lock's one spinner if
// `spinner` is free (or null: the caller is alone by construction) and the
// gate admits the spin, calling `attempt(arg)` once per 32 pauses until it
// returns true, the budget runs out or `deadline_ns` (obs::NowNanos()
// timeline, waitq::kNoDeadline for none) passes. Returns true iff an
// attempt succeeded; otherwise the caller queues, or times out if its
// deadline has passed.
bool SpinForLock(std::atomic<bool>* spinner, std::uint64_t deadline_ns,
                 bool (*attempt)(void*), void* arg);

// The same, with the attempt a callable returning bool.
template <typename Attempt>
bool SpinForLock(std::atomic<bool>* spinner, std::uint64_t deadline_ns,
                 Attempt&& attempt) {
  using A = std::remove_reference_t<Attempt>;
  return SpinForLock(
      spinner, deadline_ns,
      [](void* a) -> bool { return (*static_cast<A*>(a))(); }, &attempt);
}

}  // namespace taos

#endif  // TAOS_SRC_THREADS_LOCK_SPIN_H_
