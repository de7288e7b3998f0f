// Flight recorder: per-thread lock-free SPSC ring buffers of fixed-size
// timestamped synchronization events, drained into Chrome trace-event JSON
// (renderable in chrome://tracing or https://ui.perfetto.dev).
//
// Memory model (mirrors the spec-trace serialization argument in
// src/threads/nub.h, but for wall-clock instead of stamp order):
//  - Each OS thread owns one ring. The owner is the only writer (single
//    producer); it publishes a slot by storing the ring's write index with
//    release order after filling the slot.
//  - Draining is legal only while the system is quiescent with respect to
//    event production: every thread that recorded has either been joined or
//    passed a synchronization point that happens-before the drain. The
//    drain's acquire load of each write index then orders it after every
//    published slot, so the plain slot reads race with nothing.
//  - The rings overwrite oldest (true flight-recorder semantics); the drain
//    reports how many events each ring dropped, never silently.
//
// The recorder is distinct from the spec TraceSink (src/spec/trace.h): the
// sink captures spec-visible atomic actions for the conformance checker and
// forces every operation down its Nub path; the recorder timestamps the
// production code paths — fast paths included — and costs one relaxed load
// per operation while disabled. The two compose: a traced (conformance)
// run can record flight events at the same time.

#ifndef TAOS_SRC_OBS_RECORDER_H_
#define TAOS_SRC_OBS_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "src/obs/metrics.h"

namespace taos::obs {

// The operation kinds the recorder (and the per-op Nub counters) know about.
enum class Op : std::uint16_t {
  kAcquire,
  kRelease,
  kWait,
  kSignal,
  kBroadcast,
  kP,
  kV,
  kAlert,
  kAlertWait,
  kAlertP,

  // Wakeup causality (the diag layer, src/obs/diag.h): kUnpark is recorded
  // by the waker at the instant it grants a parked thread's permit; the
  // matching kParkResume is recorded by the wakee when Park returns, with
  // ts = the waker's grant instant and dur = the signal-to-running latency.
  // Both carry the same nonzero flow id, which the drain renders as a
  // Perfetto flow arrow from waker to wakee.
  kUnpark,
  kParkResume,
  kTimerExpire,  // a timed-out waiter dequeuing itself

  // Multi-object wait (src/threads/poll).
  kEventSet,
  kEventWait,
  kPoll,  // one WaitAny/WaitAll call, registration to grant

  kNumOps,
};

const char* OpName(Op op);

// One fixed-size recorded event; 40 bytes.
struct Event {
  std::uint64_t ts_ns;   // start, NowNanos() clock
  std::uint64_t dur_ns;
  std::uint64_t obj;     // spec::ObjId, or target thread id for Alert
  std::uint64_t flow;    // wakeup-causality edge id; 0 = none
  std::uint32_t tid;     // recording thread (0 = the ring's own thread)
  Op op;
  std::uint16_t pad = 0;
};

inline bool RecorderEnabled() { return SlowModeOn(SlowMode::kRecorder); }

// Runtime switch. Enabling is cheap and safe at any quiescent point;
// disabling leaves the rings intact for draining.
void SetRecorderEnabled(bool on);

// Appends one event to the calling thread's ring (overwriting the oldest if
// full). tid 0 means "this thread". Callers normally go through ScopedEvent
// and never pay this call while the recorder is off. A nonzero `flow` links
// this event into a wakeup-causality edge (see Op::kUnpark above).
void RecordEvent(Op op, std::uint64_t obj, std::uint64_t ts_ns,
                 std::uint64_t dur_ns, std::uint32_t tid = 0,
                 std::uint64_t flow = 0);

// Fresh nonzero id for one wakeup-causality edge (waker side draws it,
// wakee side echoes it).
std::uint64_t NextFlowId();

// Attaches a key/value pair to the next drained trace's otherData (e.g.
// bench, global_lock), so A/B trace artifacts are self-describing.
// Quiescent-only, like the drain; setting a key again overwrites it.
void SetTraceMetadata(const std::string& key, const std::string& value);

// Drains every ring into one Chrome trace-event JSON document and resets the
// rings. Quiescence required (see the memory model above). Flow-stamped
// kUnpark/kParkResume pairs additionally emit Chrome flow records ("ph":
// "s"/"f") so Perfetto draws waker -> wakee arrows; otherData carries the
// total and per-ring dropped-event counts plus any SetTraceMetadata pairs.
std::string DrainChromeTraceJson();

// Convenience: DrainChromeTraceJson() to a file. Returns false on I/O error.
bool DrainChromeTraceJsonToFile(const std::string& path);

// Crash/hang-path dump: prints the newest `max_events` events across all
// rings to `f`, newest last, without draining or resetting anything.
// Deliberately racy (relaxed reads of rings that may be mid-write): the
// caller is a watchdog diagnosing a hang, where a torn in-flight slot is an
// acceptable price for not touching the rings' publication protocol. Never
// use it for data that feeds analysis; that is what the quiescent drain is
// for.
void DumpRecentEventsForDebug(std::FILE* f, std::size_t max_events);

// RAII bracket: captures the start timestamp if the recorder is enabled at
// entry, records the event (with duration) at scope exit — including exits
// by exception, so an AlertWait that raises Alerted still leaves its event.
//
// The armed work (clock reads, the ring append) lives out of line in
// Arm/Finish: keeping those calls off the inline path means a disabled
// ScopedEvent costs one relaxed load and two predicted branches, without
// dragging NowNanos's call sequence into the enclosing fast path.
class ScopedEvent {
 public:
  ScopedEvent(Op op, std::uint64_t obj, std::uint32_t tid = 0) {
    if (RecorderEnabled()) [[unlikely]] {
      Arm(op, obj, tid);
    }
  }

  ~ScopedEvent() {
    if (armed_) [[unlikely]] {
      Finish();
    }
  }

  ScopedEvent(const ScopedEvent&) = delete;
  ScopedEvent& operator=(const ScopedEvent&) = delete;

 private:
  void Arm(Op op, std::uint64_t obj, std::uint32_t tid);  // sets start_
  void Finish();  // records the event

  bool armed_ = false;
  Op op_ = Op::kAcquire;
  std::uint32_t tid_ = 0;
  std::uint64_t obj_ = 0;
  std::uint64_t start_ = 0;
};

// Runs `body` bracketed by a ScopedEvent when the recorder is on, bare when
// it is off. For hot fast paths: the off branch contains no ScopedEvent
// object at all, so the enclosing function pays one relaxed load and one
// predicted branch — no stack slot, no destructor bookkeeping across calls.
template <typename F>
inline void WithEvent(Op op, std::uint64_t obj, F&& body) {
  if (RecorderEnabled()) [[unlikely]] {
    ScopedEvent ev(op, obj);
    body();
  } else {
    body();
  }
}

}  // namespace taos::obs

#endif  // TAOS_SRC_OBS_RECORDER_H_
