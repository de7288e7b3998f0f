// The one spin a Nub lock wait makes before it queues. Mutex::NubAcquireFor
// and Semaphore::NubPFor call SpinForLockBit ahead of their
// enqueue-then-retest; AlertP, ReaderWriterMutex and the traced paths do
// not spin.
//
// The paper's Nub queues a thread whose test-and-set failed and
// de-schedules it; Release then makes it ready to retry. On a
// multiprocessor the holder of a hot lock (a MessageQueue's mutex, say)
// usually releases it within a few microseconds, while the futex sleep and
// wake costs the waiter ~6 µs. So a waiter may first spin on the bit:
//
//   - One spinner per lock. A per-object flag admits one spinner at a
//     time; every other waiter queues and parks at once, as before. Letting
//     every waiter spin raised rpc's p50 16% and made contended Mutex at 8
//     threads on 4 CPUs 1.9x slower, the spinners holding CPUs the holder
//     needs; with one spinner the rest sleep (EXPERIMENTS E35).
//   - The spinner tests the bit once per 32 pauses, not every pause: a
//     tighter poll slows the holder's own use of the lock's cache line and
//     catches every short gap between its release and re-acquire, moving
//     the line on every acquisition (E35: rpc p50 +6%, contended Mutex up
//     to 2x slower at 2 threads).
//   - The spin is the user-code test-and-set, no more: it watches the bit
//     with relaxed loads and takes it with the same acquire exchange as the
//     in-line fast path. Report 20 lets any thread win that test-and-set,
//     so a waiter that takes a just-freed bit ahead of a queued one is an
//     order the spec already allows, and the enqueue-then-retest (Dekker)
//     argument between Release and the queue is untouched: a spinner is not
//     queued, so Release owes it nothing.
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

namespace taos {

// Called after a failed test-and-set on `bit` (0 free, 1 taken). Spins on
// it as the lock's one spinner if `spinner` is free and the gate admits
// the spin, until the bit is taken, the budget runs out or `deadline_ns`
// (obs::NowNanos() timeline, waitq::kNoDeadline for none) passes. Returns
// true iff it took the bit; otherwise the caller queues, or times out if
// its deadline has passed.
bool SpinForLockBit(std::atomic<std::uint32_t>& bit,
                    std::atomic<bool>& spinner, std::uint64_t deadline_ns);

}  // namespace taos

#endif  // TAOS_SRC_THREADS_LOCK_SPIN_H_
