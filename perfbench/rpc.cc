// rpc: 2 clients and 2 workers around one bounded MessageQueue, in a closed
// loop. A call sends a request carrying the client's reply mailbox (Mutex +
// Condition + ready flag); a worker waits in Poll::WaitAny on the queue's
// readable() event and a shutdown event, takes the request with TryRecv,
// does the request's service work, fills the mailbox and signals it. The
// client waits for the reply with Condition::WaitFor under a generous
// deadline and checks it. So every call crosses two park/unpark handoffs,
// one timer arm/cancel, a Poll registration and an Event notify.
//
// A call's latency is its round trip minus the service work, which the
// worker times and returns in the reply: what is left is the runtime's
// share (queueing, wakeups, handoffs, the timer), which the seeded work
// would otherwise hide in op_p99_us.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/spans.h"
#include "src/base/xorshift.h"
#include "src/threads/message_queue.h"
#include "src/threads/poll.h"
#include "src/threads/threads.h"
#include "src/threads/timer.h"

namespace perfbench {
namespace {

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr std::size_t kQueueCapacity = 16;
constexpr std::size_t kCallsPerClient = 1 << 16;  // cycled through
constexpr std::uint64_t kWarmupCalls = 2000;       // per client
constexpr auto kDeadline = std::chrono::seconds(2);

// Service work in Spin units (about a nanosecond each): mostly short, with
// a rare long tail.
constexpr std::uint32_t kShortMin = 200;
constexpr std::uint32_t kShortMax = 800;
constexpr std::uint32_t kLongMin = 20000;
constexpr std::uint32_t kLongMax = 60000;
constexpr std::uint32_t kLongPerMille = 5;

struct Call {
  std::uint64_t payload;
  std::uint32_t work;
};

struct Mailbox {
  taos::Mutex m;
  taos::Condition arrived;
  bool ready = false;      // guarded by m
  std::uint64_t id = 0;    // guarded by m
  std::uint64_t value = 0; // guarded by m
  std::uint64_t service_ns = 0;  // guarded by m
};

struct Request {
  std::uint64_t id = 0;
  std::uint64_t payload = 0;
  std::uint32_t work = 0;
  Mailbox* reply = nullptr;
  // Tracing: the op's sampled flag and the client's root span, so the
  // worker's spans join the client's op.
  bool sampled = false;
  std::uint64_t parent = 0;
};

std::uint64_t Expected(std::uint64_t payload) { return Mix(payload); }

struct ClientStats {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  WindowLog log;
};

// Atomic because a worker woken for a request the other worker took can
// still be counting when main reads or zeroes the counts between phases.
struct WorkerStats {
  std::atomic<std::uint64_t> grants{0};      // WaitAny returns on the queue
  std::atomic<std::uint64_t> wouldblock{0};  // of which TryRecv found nothing
  std::uint64_t sink = 0;                    // service-work results
};

// One set-up instance: objects and threads.
struct Instance {
  Instance() : q(kQueueCapacity), gate(kClients) {}

  taos::MessageQueue<Request> q;
  taos::Event shutdown{taos::EventReset::kManual};
  Mailbox mailboxes[kClients];
  PhaseGate gate;
  std::atomic<int> window{0};  // the phase's current window
  ClientStats clients[kClients];
  WorkerStats workers[kWorkers];
  std::uint64_t warmup_failed = 0;  // written by main between phases
  std::atomic<bool> traced{false};  // the current phase is traced
  std::vector<taos::Thread> worker_threads;
  std::vector<taos::Thread> client_threads;
};

// A worker's handling of one received request.
template <bool kTraced>
void Handle(WorkerStats* st, const Request& r) {
  Mailbox* mb = r.reply;
  const std::uint64_t s0 = spans::NowNs();
  {
    spans::ScopeIf<kTraced> s("work.service");
    st->sink += Spin(r.work, r.payload);
  }
  const std::uint64_t s1 = spans::NowNs();
  {
    spans::ScopeIf<kTraced> s("mutex.acquire");
    mb->m.Acquire();
  }
  mb->id = r.id;
  mb->value = Expected(r.payload);
  mb->service_ns = s1 - s0;
  mb->ready = true;
  {
    spans::ScopeIf<kTraced> s("mutex.release");
    mb->m.Release();
  }
  {
    spans::ScopeIf<kTraced> s("condition.signal");
    mb->arrived.Signal();
  }
}

void Serve(Instance* in, WorkerStats* st) {
  taos::Poll poll;
  poll.Add(in->q.readable());
  poll.Add(in->shutdown);
  for (;;) {
    // Whether this request is traced is known only once it is received, so
    // the wait and the receive are timed whenever the phase is traced.
    const bool traced = in->traced.load(std::memory_order_relaxed);
    const std::uint64_t w0 = traced ? spans::NowNs() : 0;
    const std::size_t which = poll.WaitAny();
    const std::uint64_t w1 = traced ? spans::NowNs() : 0;
    if (which == 1 || in->shutdown.IsSet()) {
      return;
    }
    st->grants.fetch_add(1, std::memory_order_relaxed);
    Request r;
    const taos::QueueResult got = in->q.TryRecv(&r);
    const std::uint64_t r1 = traced ? spans::NowNs() : 0;
    if (got != taos::QueueResult::kOk) {
      // Another worker drained it first.
      st->wouldblock.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (!traced) {
      Handle<false>(st, r);
      continue;
    }
    spans::SetOp(r.id, r.sampled, r.parent);
    spans::Emit("poll.waitany", spans::NewId(), r.parent, w0, w1);
    spans::Emit("msgq.tryrecv", spans::NewId(), r.parent, w1, r1);
    Handle<true>(st, r);
    spans::SetOp(0, false, 0);
  }
}

// One call; returns false when the reply missed its deadline or was wrong.
// Sets *service_ns to the service time the worker reported.
template <bool kTraced>
bool DoCall(Instance* in, int client, std::uint64_t id, const Call& call,
            bool sampled, std::uint64_t* service_ns) {
  Mailbox* mb = &in->mailboxes[client];
  if constexpr (kTraced) {
    spans::SetOp(id, sampled, 0);
  }
  spans::ScopeIf<kTraced> root("op");
  Request r;
  r.id = id;
  r.payload = call.payload;
  r.work = call.work;
  r.reply = mb;
  r.sampled = sampled;
  r.parent = root.id();
  {
    spans::ScopeIf<kTraced> s("msgq.send");
    in->q.Send(r);
  }
  {
    spans::ScopeIf<kTraced> s("mutex.acquire");
    mb->m.Acquire();
  }
  bool ok = true;
  const auto deadline = std::chrono::steady_clock::now() + kDeadline;
  while (!mb->ready) {
    const auto left = deadline - std::chrono::steady_clock::now();
    if (left <= std::chrono::nanoseconds(0)) {
      // A missed deadline fails the call; the late reply is still awaited
      // so the mailbox is clean for the next call.
      ok = false;
      while (!mb->ready) {
        mb->arrived.Wait(mb->m);
      }
      break;
    }
    spans::ScopeIf<kTraced> s("condition.waitfor");
    mb->arrived.WaitFor(mb->m, left);
  }
  ok = ok && mb->id == id && mb->value == Expected(call.payload);
  *service_ns = mb->service_ns;
  mb->ready = false;
  {
    spans::ScopeIf<kTraced> s("mutex.release");
    mb->m.Release();
  }
  return ok;
}

template <bool kTraced>
void RunClient(Instance* in, int client, const std::vector<Call>& calls,
               const Phase& phase, std::uint64_t sample_period,
               std::uint64_t* next) {
  ClientStats* st = &in->clients[client];
  const std::uint64_t limit = phase.warmup ? phase.warmup_ops : ~0ULL;
  for (std::uint64_t n = 0; n < limit && !in->gate.Stopping(); ++n) {
    const std::uint64_t seq = (*next)++;
    const Call& call = calls[seq % calls.size()];
    const std::uint64_t id = (seq << 1) | static_cast<std::uint64_t>(client);
    const bool sampled = kTraced && seq % sample_period == 0;
    std::uint64_t service_ns = 0;
    const std::uint64_t t0 = spans::NowNs();
    const bool ok = DoCall<kTraced>(in, client, id, call, sampled, &service_ns);
    const std::uint64_t t1 = spans::NowNs();
    ++st->attempted;
    if (!ok) {
      ++st->failed;
    }
    if (!phase.warmup) {
      const std::uint64_t round_trip = t1 - t0;
      st->log.Record(in->window.load(std::memory_order_relaxed), 1,
                     round_trip - std::min(service_ns, round_trip));
    }
  }
}

class Rpc : public Workload {
 public:
  explicit Rpc(std::uint64_t seed) {
    taos::XorShift rng(seed);
    for (auto& calls : calls_) {
      calls.resize(kCallsPerClient);
      for (Call& c : calls) {
        c.payload = rng.Next();
        c.work = rng.Below(1000) < kLongPerMille
                     ? static_cast<std::uint32_t>(rng.Range(kLongMin, kLongMax))
                     : static_cast<std::uint32_t>(
                           rng.Range(kShortMin, kShortMax));
      }
    }
  }

  std::uint64_t SamplePeriod() const override { return 16; }

  void Setup() override {
    in_ = std::make_unique<Instance>();
    Instance* in = in_.get();
    taos::Timer::Get();  // the timer thread serves every WaitFor deadline
    for (int w = 0; w < kWorkers; ++w) {
      in->worker_threads.push_back(
          taos::Thread::Fork([in, w] {
            PinToCpu(kClients + w);
            Serve(in, &in->workers[w]);
          }));
    }
    for (int c = 0; c < kClients; ++c) {
      in->client_threads.push_back(taos::Thread::Fork([this, in, c] {
        PinToCpu(c);
        std::uint64_t seen = 0;
        std::uint64_t next = 0;
        Phase phase;
        while (in->gate.Await(&seen, &phase)) {
          if (phase.traced) {
            RunClient<true>(in, c, calls_[c], phase, SamplePeriod(), &next);
          } else {
            RunClient<false>(in, c, calls_[c], phase, SamplePeriod(), &next);
          }
          in->gate.Done();
        }
      }));
    }
    Phase warmup;
    warmup.warmup = true;
    warmup.warmup_ops = kWarmupCalls;
    in->gate.Start(warmup);
    in->gate.WaitDone();
    for (const ClientStats& st : in->clients) {
      in->warmup_failed += st.failed;
    }
  }

  PhaseResult Measure(double seconds, bool traced) override {
    Instance* in = in_.get();
    std::vector<const WindowLog*> logs;
    for (ClientStats& st : in->clients) {
      st.attempted = 0;
      st.failed = 0;
      st.log.Clear();
      logs.push_back(&st.log);
    }
    for (WorkerStats& st : in->workers) {
      st.grants.store(0, std::memory_order_relaxed);
      st.wouldblock.store(0, std::memory_order_relaxed);
    }
    Phase phase;
    phase.traced = traced;
    in->traced.store(traced, std::memory_order_relaxed);
    PhaseResult r =
        RunTimedPhase(&in->gate, &in->window, phase, seconds, logs);
    std::uint64_t grants = 0;
    std::uint64_t wouldblock = 0;
    for (const WorkerStats& st : in->workers) {
      grants += st.grants.load(std::memory_order_relaxed);
      wouldblock += st.wouldblock.load(std::memory_order_relaxed);
    }
    for (const ClientStats& st : in->clients) {
      r.attempted += st.attempted;
      r.failed += st.failed;
    }
    r.wouldblock_frac = grants == 0 ? 0
                                    : static_cast<double>(wouldblock) /
                                          static_cast<double>(grants);
    return r;
  }

  bool Teardown(std::string* why) override {
    Instance* in = in_.get();
    in->gate.Quit();
    for (taos::Thread& t : in->client_threads) {
      t.Join();
    }
    in->shutdown.Set();
    for (taos::Thread& t : in->worker_threads) {
      t.Join();
    }
    const bool ok = in->warmup_failed == 0;
    if (!ok) {
      *why = "rpc: " + std::to_string(in->warmup_failed) +
             " warm-up calls missed their deadline or got a wrong reply";
    }
    in_.reset();
    return ok;
  }

 private:
  std::vector<Call> calls_[kClients];
  std::unique_ptr<Instance> in_;
};

}  // namespace

std::unique_ptr<Workload> MakeRpc(std::uint64_t seed) {
  return std::make_unique<Rpc>(seed);
}

}  // namespace perfbench
