// Parker: the one-permit park/unpark primitive every Nub slow path suspends
// threads on (ThreadRecord::park). It is the "de-schedule this thread / add
// it to the ready pool" substitution point of the Nub, factored out of
// ThreadRecord so the blocking mechanism is pluggable:
//
//   - kFutex    — a 3-state futex protocol (Linux only): EMPTY/PARKED/
//                 NOTIFIED in one 32-bit word, one FUTEX_WAIT per real sleep
//                 and one FUTEX_WAKE per handoff, no heap or kernel object
//                 per parker.
//   - kCondvar  — std::mutex + std::condition_variable + the same permit
//                 word, the portable fallback.
//
// The permit discipline matches std::binary_semaphore{0}: Unpark deposits at
// most one permit; Park consumes one, sleeping until it arrives. An Unpark
// that races ahead of the Park is never lost (the permit waits), and a
// spurious futex return re-checks the word. The Nub's queue discipline
// guarantees at most one Unpark per Park, but the parker itself also
// tolerates Unpark-with-no-parker (the permit is consumed by the next Park).
//
// Memory ordering (the fence argument): Park-returns is an acquire edge
// paired with Unpark's release on the permit word, in BOTH backends. The
// unparker writes the reason for the wakeup (a granted mutex bit, a filled
// condition slot, an alert receipt) before Unpark; the parked thread
// reads it right after Park returns. Those payload reads must not be
// reorderable above the observation of kNotified, so the edge has to stand
// on the permit word itself:
//   - futex: the consuming CAS kNotified -> kEmpty is acquire, pairing with
//     the release exchange in FutexUnpark (the kernel sleep provides no
//     ordering of its own).
//   - condvar: the spin re-check of state_ loads with acquire, pairing with
//     the release store in CondvarUnpark. mu_ usually also synchronizes the
//     pair, but Park may observe kNotified on its first check without
//     blocking after an Unpark that already left the critical section, and
//     the permit protocol must not depend on the lock being taken on both
//     sides of every handoff.
//
// Backend selection: the process default is futex on Linux, condvar
// elsewhere, overridable with TAOS_WAITQ_PARKER=futex|condvar (read once);
// individual parkers can pin a backend for A/B benches and tests.
//
// Deadlines: Park takes one on the obs::NowNanos() timeline (kNoDeadline for
// none). A timed-out Park consumes no permit and returns false; the caller
// decides what the timeout means (src/threads/timer.h: the waiter dequeues
// itself). An untimed Park never reads the clock past its entry stamp.
//
// The spin phase (Park(Spin::kGated): the Nub's event waits, ParkBlocked's
// kEventWait). The paper's Nub de-schedules a blocked thread at once. With
// several CPUs the waker of a handoff is usually running elsewhere and
// deposits the permit within microseconds, while a futex sleep and wake
// costs the wakee ~6 µs and the waker a FUTEX_WAKE syscall. So a gated Park
// that finds no permit
// first watches state_ for kNotified with relaxed loads for at most
// kSpinBudgetNs, then falls through to the backend's sleep exactly as
// before. While the waiter spins the word stays kEmpty, so
// FutexUnpark's exchange sees no kParked and skips the FUTEX_WAKE: the
// waker saves the syscall too.
//   - The ordering argument above is unchanged: the spin only watches the
//     word, it never consumes the permit. The backend's acquire CAS (futex)
//     or acquire load (condvar) still consumes it, so Park-returns stays an
//     acquire edge on the permit word alone.
//   - The budget is one constant, not a knob: it is sized from the measured
//     futex sleep-to-wake cost on the host it was tuned on. On perfbench
//     rpc, 2 µs missed nearly every handoff and 30 µs burned more CPU for
//     a worse p99 than 10 µs (EXPERIMENTS E34).
//   - Spinning pays only where the waker runs on another CPU. Where waker
//     and wakee share a CPU, the spinner burns the quantum its waker needs
//     (E3's collapse), so a SpinGate with one credit cell per CPU decides
//     whether to spin at all: hits earn credit, misses cost more, and a
//     closed cell probes with exponential back-off so it can reopen.
//   - A deadline caps the spin: a gated Park whose deadline falls inside
//     the budget spins only until the deadline, counts a miss, and returns
//     false. Timed event waits (Condition::WaitFor, the rpc replies) spin
//     exactly like untimed ones, since their grant usually lands long
//     before the deadline.
//   - The Nub's lock waits never spin here: their wakeup is only a hint to
//     retry a test-and-set that barging threads may win (thread_record.h).
//     Before queueing, one waiter per lock spins on the lock bit itself
//     instead, with this budget and this gate (src/threads/lock_spin.h).
//   - Ledger: every gated Park lands in exactly one of the obs counters
//     park_permit_ready (permit already there on entry), park_spin_hits,
//     park_spin_misses, park_spin_skipped (gate closed).

#ifndef TAOS_SRC_WAITQ_PARKER_H_
#define TAOS_SRC_WAITQ_PARKER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>

namespace taos::waitq {

// The deadline of a park that has none (obs::NowNanos() timeline).
inline constexpr std::uint64_t kNoDeadline =
    std::numeric_limits<std::uint64_t>::max();

// The spin phase's admission gate: one cache-line-padded credit cell per
// CPU. A cell is open while its credit is positive. Record(hit) adds
// kHitCredit (capped at kMaxCredit); Record(miss) takes kMissCost, more
// than a hit earns, so a CPU whose spins mostly miss closes fast. A closed
// cell refuses Admit except for one probe every `gap` refusals; a probe
// miss doubles the gap (up to kMaxProbeGap), a probe hit reopens the cell
// and resets the gap to kFirstProbeGap.
//
// The cells are heuristics, not invariants: the loads and stores are
// relaxed and unsynchronized between threads that share a CPU, so a race
// can at worst admit or refuse one spin too many. Cell indices wrap modulo
// the cell count.
class SpinGate {
 public:
  static constexpr std::int32_t kHitCredit = 1;
  static constexpr std::int32_t kMissCost = 4;
  static constexpr std::int32_t kMaxCredit = 16;
  static constexpr std::uint32_t kFirstProbeGap = 8;
  static constexpr std::uint32_t kMaxProbeGap = 4096;

  explicit SpinGate(unsigned cells);
  SpinGate(const SpinGate&) = delete;
  SpinGate& operator=(const SpinGate&) = delete;

  // The process-wide gate Park(Spin::kGated) and the lock-bit spin
  // consult: one cell per CPU.
  static SpinGate& Get();
  // The calling thread's CPU (sched_getcpu); 0 where it is unavailable, so
  // the gate degrades to one shared cell.
  static unsigned CurrentCpu();

  // Whether a Park on `cpu` that found no permit should spin: always while
  // the cell is open, otherwise only as a back-off probe.
  bool Admit(unsigned cpu);
  // Feeds an admitted spin's outcome back into the cell.
  void Record(unsigned cpu, bool hit);

  bool IsOpen(unsigned cpu) const;

 private:
  struct alignas(64) Cell {
    std::atomic<std::int32_t> credit{kMaxCredit};
    std::atomic<std::uint32_t> skips{0};  // refusals since the last probe
    std::atomic<std::uint32_t> gap{kFirstProbeGap};
  };

  Cell& At(unsigned cpu) const { return cells_[cpu % count_]; }

  const unsigned count_;
  const std::unique_ptr<Cell[]> cells_;
};

// A thread's CPU affinity mask: Linux's cpu_set_t (CPU_SETSIZE bits) as
// words. Thread::Fork runs each forked thread with its forker's mask, as
// pthread_create would, on a host thread that may have run under another.
struct CpuMask {
  std::uint64_t words[16] = {};
  bool operator==(const CpuMask&) const = default;
};

// The calling thread's affinity mask (sched_getaffinity); all zero where
// it is unavailable.
CpuMask CurrentAffinity();
// Sets the calling thread's affinity mask (sched_setaffinity); a no-op
// where it is unavailable or the mask is refused.
void SetCurrentAffinity(const CpuMask& mask);

class Parker {
 public:
  enum class Backend { kFutex, kCondvar };
  // kGated: an event wait, whose waker is usually already running; spin
  // first if the SpinGate admits it. kNever: straight to the backend's
  // sleep (lock waits, which spin on the lock bit before they queue).
  enum class Spin { kNever, kGated };

  // The spin phase's budget (see the header comment); also the budget of
  // a lock wait's spin on the lock bit (src/threads/lock_spin.h).
  static constexpr std::uint64_t kSpinBudgetNs = 10'000;

  static const char* BackendName(Backend b);

  // The process-wide default: TAOS_WAITQ_PARKER if set, else futex on Linux
  // and condvar elsewhere. A futex request on a non-futex platform degrades
  // to condvar.
  static Backend DefaultBackend();

  Parker() : backend_(DefaultBackend()) {}
  explicit Parker(Backend b) : backend_(Resolve(b)) {}
  Parker(const Parker&) = delete;
  Parker& operator=(const Parker&) = delete;

  Backend backend() const { return backend_; }

  // Consumes one permit, blocking until it is deposited or `deadline_ns`
  // (obs::NowNanos() timeline) passes. Returns true if a permit was
  // consumed (even if it raced past the deadline), false if the deadline
  // passed with no permit; then no permit is consumed and the parker is
  // reusable at once. With Spin::kGated and no permit on entry, first spins
  // up to kSpinBudgetNs (and never past the deadline) if the calling CPU's
  // SpinGate cell admits it. Always true for kNoDeadline.
  bool Park(Spin spin = Spin::kNever, std::uint64_t deadline_ns = kNoDeadline);

  // Deposits one permit, waking the parked thread if there is one. Safe from
  // any thread; never blocks (beyond the condvar backend's short critical
  // section).
  void Unpark();

  // Test-only: wakes the underlying futex/condvar WITHOUT depositing a
  // permit — a synthetic spurious wakeup. Park must absorb it
  // (re-check the word, go back to sleep); returning from Park on one is a
  // permit-protocol violation.
  void SpuriousWakeForDebug();

 private:
  // Values of state_. For the futex backend the word carries the whole
  // protocol; for the condvar backend only kEmpty/kNotified are used (the
  // permit), under mu_.
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::uint32_t kParked = 1;
  static constexpr std::uint32_t kNotified = 2;

  static Backend Resolve(Backend b);

  // The gated spin phase ahead of the backend's sleep, ending at the
  // budget or the deadline, whichever is first; counts the ledger.
  void SpinPhase(std::uint64_t start_ns, std::uint64_t deadline_ns);

  // The backends' sleeps: true iff a permit was consumed.
  bool FutexPark(std::uint64_t deadline_ns);
  bool CondvarPark(std::uint64_t deadline_ns);
  void FutexUnpark();
  void CondvarUnpark();

  const Backend backend_;
  std::atomic<std::uint32_t> state_{kEmpty};
  // Wakeup-causality stamp (recorder on only): Unpark writes the flow id
  // and its grant timestamp BEFORE depositing the permit, so the pair rides
  // the permit word's release/acquire edge to the wakee; Park consumes it
  // after returning and emits the matching kParkResume event. Relaxed
  // accesses suffice given that edge; a stamp with no consumer (permit
  // still pending at a timeout) is consumed by the next Park, which is the
  // Park the pending permit wakes.
  std::atomic<std::uint64_t> wake_flow_{0};
  std::atomic<std::uint64_t> wake_ns_{0};
  std::mutex mu_;               // condvar backend only
  std::condition_variable cv_;  // condvar backend only
};

}  // namespace taos::waitq

#endif  // TAOS_SRC_WAITQ_PARKER_H_
