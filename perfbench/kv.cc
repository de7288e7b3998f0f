// kv: 4 threads run pre-generated op streams over a table of shards, each
// guarded by a taos::Mutex. Keys are Zipf-skewed, so most acquisitions stay
// on the in-line fast path while a few hot shards enter the Nub. About 90%
// of ops are gets and 10% puts; every op first takes a global "config"
// ReaderWriterMutex shared, and about one op in ten thousand takes it
// exclusive and bumps the config epoch instead.
//
// Ops take tens of nanoseconds, so latency is timed per batch of kBatch ops
// and each batch contributes its mean per-op time as one latency sample.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/spans.h"
#include "src/base/xorshift.h"
#include "src/threads/threads.h"

namespace perfbench {
namespace {

constexpr int kThreads = 4;
constexpr std::uint32_t kKeyBits = 16;
constexpr std::uint32_t kKeys = 1u << kKeyBits;
constexpr std::uint32_t kShardBits = 6;
constexpr std::uint32_t kShards = 1u << kShardBits;
constexpr std::uint32_t kSlots = kKeys / kShards;
constexpr double kZipfS = 0.99;
constexpr std::uint32_t kPutPercent = 10;
constexpr std::uint32_t kConfigPerTenThousand = 1;
constexpr std::size_t kStreamLen = 1 << 18;  // ops per thread, cycled
constexpr std::uint64_t kBatch = 64;
constexpr std::uint64_t kWarmupBatches = 1000;  // per thread

// An op packed into 64 bits: key, kind, and a put's delta.
enum Kind : std::uint64_t { kGet = 0, kPut = 1, kConfig = 2 };
inline std::uint32_t KeyOf(std::uint64_t op) { return op & (kKeys - 1); }
inline std::uint64_t KindOf(std::uint64_t op) { return (op >> 24) & 3; }
inline std::uint64_t DeltaOf(std::uint64_t op) { return op >> 32; }

// Keys map to (shard, slot) through an odd multiplier, a bijection on
// [0, kKeys) that spreads the hot keys over the shards.
inline std::uint32_t Scramble(std::uint32_t key) {
  return (key * 0x9E3779B1u) & (kKeys - 1);
}

struct alignas(64) Shard {
  taos::Mutex mu;
  // The invariant a get checks: b == Mix(a). A put moves both.
  std::uint64_t a = 0;      // guarded by mu: sum of every put's delta
  std::uint64_t b = Mix(0); // guarded by mu
  std::uint64_t slots[kSlots] = {};  // guarded by mu: last delta per key
};

struct ThreadStats {
  std::uint64_t ops = 0;  // executed since set-up, warm-up included
  std::uint64_t failed = 0;
  std::uint64_t sink = 0;
  WindowLog log;
};

struct Instance {
  Instance() : shards(new Shard[kShards]), gate(kThreads) {}

  std::unique_ptr<Shard[]> shards;
  taos::ReaderWriterMutex config;
  std::uint64_t epoch = 0;  // guarded by config (exclusive)
  std::uint64_t prepopulated = 0;
  PhaseGate gate;
  std::atomic<int> window{0};  // the phase's current window
  ThreadStats stats[kThreads];
  std::vector<taos::Thread> threads;
};

template <bool kTraced>
void DoOp(Instance* in, std::uint64_t op, ThreadStats* st) {
  spans::ScopeIf<kTraced> root("op");
  if (KindOf(op) == kConfig) {
    {
      spans::ScopeIf<kTraced> s("rwmutex.exclusive");
      in->config.Acquire();
    }
    ++in->epoch;
    spans::ScopeIf<kTraced> s("rwmutex.release");
    in->config.Release();
    return;
  }
  {
    spans::ScopeIf<kTraced> s("rwmutex.shared");
    in->config.AcquireShared();
  }
  const std::uint32_t h = Scramble(KeyOf(op));
  Shard& sh = in->shards[h & (kShards - 1)];
  {
    spans::ScopeIf<kTraced> s("mutex.acquire");
    sh.mu.Acquire();
  }
  if (KindOf(op) == kPut) {
    sh.a += DeltaOf(op);
    sh.b = Mix(sh.a);
    sh.slots[h >> kShardBits] = DeltaOf(op);
  } else {
    if (sh.b != Mix(sh.a)) {
      ++st->failed;
    }
    st->sink += sh.slots[h >> kShardBits];
  }
  {
    spans::ScopeIf<kTraced> s("mutex.release");
    sh.mu.Release();
  }
  spans::ScopeIf<kTraced> s("rwmutex.release_shared");
  in->config.ReleaseShared();
}

template <bool kTraced>
void RunThread(Instance* in, const std::vector<std::uint64_t>& stream,
               const Phase& phase, std::uint64_t sample_period,
               ThreadStats* st) {
  const std::uint64_t batches = phase.warmup ? phase.warmup_ops : ~0ULL;
  for (std::uint64_t n = 0; n < batches && !in->gate.Stopping(); ++n) {
    const std::uint64_t t0 = spans::NowNs();
    for (std::uint64_t j = 0; j < kBatch; ++j) {
      const std::uint64_t seq = st->ops++;
      if constexpr (kTraced) {
        spans::SetOp(seq, seq % sample_period == 0, 0);
      }
      DoOp<kTraced>(in, stream[seq % stream.size()], st);
    }
    const std::uint64_t t1 = spans::NowNs();
    if (!phase.warmup) {
      st->log.Record(in->window.load(std::memory_order_relaxed), kBatch, (t1 - t0) / kBatch);
    }
  }
}

// Zipf(s) over [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(std::uint32_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::uint32_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) {
      c /= sum;
    }
  }
  std::uint32_t Sample(taos::XorShift& rng) const {
    const double u =
        static_cast<double>(rng.Next() >> 11) / static_cast<double>(1ULL << 53);
    return static_cast<std::uint32_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

class Kv : public Workload {
 public:
  explicit Kv(std::uint64_t seed) {
    taos::XorShift rng(seed);
    const Zipf zipf(kKeys, kZipfS);
    for (auto& stream : streams_) {
      stream.resize(kStreamLen);
      for (std::uint64_t& op : stream) {
        const std::uint32_t roll = rng.Below(10000);
        const std::uint64_t kind = roll < kConfigPerTenThousand ? kConfig
                                   : roll < kPutPercent * 100   ? kPut
                                                                : kGet;
        const std::uint64_t delta = rng.Range(1, 1000);
        op = zipf.Sample(rng) | (kind << 24) | (delta << 32);
      }
    }
    for (std::uint32_t k = 0; k < kKeys; ++k) {
      initial_.push_back(rng.Range(1, 1000));
    }
  }

  std::uint64_t SamplePeriod() const override { return 512; }

  void Setup() override {
    in_ = std::make_unique<Instance>();
    Instance* in = in_.get();
    // Pre-populate every key through the same API the ops use.
    for (std::uint32_t k = 0; k < kKeys; ++k) {
      const std::uint32_t h = Scramble(k);
      Shard& sh = in->shards[h & (kShards - 1)];
      taos::Lock l(sh.mu);
      sh.a += initial_[k];
      sh.b = Mix(sh.a);
      sh.slots[h >> kShardBits] = initial_[k];
      in->prepopulated += initial_[k];
    }
    for (int t = 0; t < kThreads; ++t) {
      in->threads.push_back(taos::Thread::Fork([this, in, t] {
        PinToCpu(t);
        std::uint64_t seen = 0;
        Phase phase;
        while (in->gate.Await(&seen, &phase)) {
          if (phase.traced) {
            RunThread<true>(in, streams_[t], phase, SamplePeriod(),
                            &in->stats[t]);
          } else {
            RunThread<false>(in, streams_[t], phase, SamplePeriod(),
                             &in->stats[t]);
          }
          in->gate.Done();
        }
      }));
    }
    Phase warmup;
    warmup.warmup = true;
    warmup.warmup_ops = kWarmupBatches;
    in->gate.Start(warmup);
    in->gate.WaitDone();
  }

  PhaseResult Measure(double seconds, bool traced) override {
    Instance* in = in_.get();
    std::vector<const WindowLog*> logs;
    std::uint64_t failed_before = 0;
    for (ThreadStats& st : in->stats) {
      st.log.Clear();
      logs.push_back(&st.log);
      failed_before += st.failed;
    }
    Phase phase;
    phase.traced = traced;
    PhaseResult r =
        RunTimedPhase(&in->gate, &in->window, phase, seconds, logs);
    for (const ThreadStats& st : in->stats) {
      r.failed += st.failed;
    }
    r.failed -= failed_before;
    r.attempted = r.ops;
    return r;
  }

  bool Teardown(std::string* why) override {
    Instance* in = in_.get();
    in->gate.Quit();
    for (taos::Thread& t : in->threads) {
      t.Join();
    }
    // Replay what each thread executed to get the expected table sum and
    // config epoch.
    std::uint64_t want_sum = in->prepopulated;
    std::uint64_t want_epoch = 0;
    std::uint64_t failed = 0;
    for (int t = 0; t < kThreads; ++t) {
      failed += in->stats[t].failed;
      for (std::uint64_t i = 0; i < in->stats[t].ops; ++i) {
        const std::uint64_t op = streams_[t][i % kStreamLen];
        if (KindOf(op) == kPut) {
          want_sum += DeltaOf(op);
        } else if (KindOf(op) == kConfig) {
          ++want_epoch;
        }
      }
    }
    std::uint64_t sum = 0;
    for (std::uint32_t s = 0; s < kShards; ++s) {
      sum += in->shards[s].a;
    }
    std::string err;
    if (failed != 0) {
      err += " " + std::to_string(failed) + " gets saw a broken shard invariant;";
    }
    if (sum != want_sum) {
      err += " table sum " + std::to_string(sum) + " != expected " +
             std::to_string(want_sum) + ";";
    }
    if (in->epoch != want_epoch) {
      err += " config epoch " + std::to_string(in->epoch) + " != expected " +
             std::to_string(want_epoch) + ";";
    }
    in_.reset();
    if (!err.empty()) {
      *why = "kv:" + err;
      return false;
    }
    return true;
  }

 private:
  std::vector<std::uint64_t> streams_[kThreads];
  std::vector<std::uint64_t> initial_;
  std::unique_ptr<Instance> in_;
};

}  // namespace

std::unique_ptr<Workload> MakeKv(std::uint64_t seed) {
  return std::make_unique<Kv>(seed);
}

}  // namespace perfbench
