// The MCS and CLH spin-lock cores, plus the process-wide backend selection
// (TAOS_LOCK) and the qnode storage they share.
//
// Qnode lifetime: a node is in exactly one place at a time — a thread's
// private cache, the global overflow free list, or in flight inside one
// lock's queue. MCS hands a node back to its enqueuer at release; CLH
// transfers the predecessor's node to the successor (the classic recycling
// trick). Every node ever allocated is also recorded in a registry that is
// never freed, so the storage is type-stable for the lifetime of the
// process (the same idiom as the ThreadRecord and obs-cell registries) and
// nothing a racing reader might still touch can be deallocated under it.
//
// The per-thread cache is a plain array of POD thread_locals — no dynamic
// thread_local object, so there is no destruction-order hazard if a lock
// is released from another thread_local's destructor during thread exit.

#include "src/base/spinlock.h"

#include <cstdlib>
#include <cstring>
#include <mutex>
#include <vector>

namespace taos {

const char* LockBackendName(LockBackend b) {
  switch (b) {
    case LockBackend::kTas:
      return "tas";
    case LockBackend::kMcs:
      return "mcs";
    case LockBackend::kClh:
      return "clh";
  }
  return "?";
}

bool ParseLockBackend(const char* text, LockBackend* out) {
  if (text == nullptr || out == nullptr) {
    return false;
  }
  if (std::strcmp(text, "tas") == 0) {
    *out = LockBackend::kTas;
    return true;
  }
  if (std::strcmp(text, "mcs") == 0) {
    *out = LockBackend::kMcs;
    return true;
  }
  if (std::strcmp(text, "clh") == 0) {
    *out = LockBackend::kClh;
    return true;
  }
  return false;
}

namespace {

LockBackend BackendFromEnv() {
  const char* env = std::getenv("TAOS_LOCK");
  LockBackend b = LockBackend::kTas;
  if (env != nullptr && env[0] != '\0' && !ParseLockBackend(env, &b)) {
    std::fprintf(stderr, "taos: unknown TAOS_LOCK=%s (want tas|mcs|clh)\n",
                 env);
  }
  return b;
}

// ---- qnode storage ----

struct NodeStore {
  std::mutex mu;
  std::vector<LockQNode*> all;       // every node ever allocated (never freed)
  std::vector<LockQNode*> overflow;  // idle nodes that outgrew a cache
};

NodeStore& Store() {
  static NodeStore* store = new NodeStore;  // leaked: outlives every thread
  return *store;
}

// Per-thread cache. POD thread_locals: constant-initialized, no destructor.
constexpr int kCacheDepth = 8;
thread_local LockQNode* tls_cache[kCacheDepth];
thread_local int tls_cache_size = 0;

LockQNode* GetNode() {
  if (tls_cache_size > 0) {
    return tls_cache[--tls_cache_size];
  }
  NodeStore& store = Store();
  {
    std::lock_guard<std::mutex> g(store.mu);
    if (!store.overflow.empty()) {
      LockQNode* n = store.overflow.back();
      store.overflow.pop_back();
      return n;
    }
  }
  LockQNode* n = new LockQNode;
  std::lock_guard<std::mutex> g(store.mu);
  store.all.push_back(n);
  return n;
}

void PutNode(LockQNode* n) {
  if (tls_cache_size < kCacheDepth) {
    tls_cache[tls_cache_size++] = n;
    return;
  }
  NodeStore& store = Store();
  std::lock_guard<std::mutex> g(store.mu);
  store.overflow.push_back(n);
}

// One spin beat with the same oversubscription escape hatch as the TAS
// core: a waiter that never yields can starve the holder (or its own
// predecessor) of the only CPU.
inline void SpinBeat(std::uint64_t* iters) {
  SpinLock::Pause();
  if ((++*iters & 1023) == 0) {
    std::this_thread::yield();
  }
}

}  // namespace

std::atomic<LockBackend>& SpinLock::BackendFlag() {
  static std::atomic<LockBackend> backend{BackendFromEnv()};
  return backend;
}

void SpinLock::AcquireSlow() {
  const std::uint64_t start = obs::NowNanos();
  const bool backoff = BackoffEnabled().load(std::memory_order_relaxed);
  std::uint64_t iters = 0;
  std::uint64_t wait = 1;
  for (;;) {
    // Busy-wait on a plain read until the bit looks clear, then retry the
    // test-and-set. `test()` is C++20.
    while (bit_.test(std::memory_order_relaxed)) {
      for (std::uint64_t i = 0; i < wait; ++i) {
        Pause();
      }
      iters += wait;
      if (backoff) {
        if (wait < kMaxBackoffPauses) {
          wait <<= 1;
        }
        if (iters >= kYieldThreshold) {
          std::this_thread::yield();
        }
      }
    }
    if (!bit_.test_and_set(std::memory_order_acquire)) {
      TAOS_CHAOS(kSpinAcquired);
      break;
    }
    ++iters;  // lost the race to another test-and-set
  }
  const std::uint64_t now = obs::NowNanos();
  obs::Inc(obs::Counter::kContendedSpinAcquires);
  obs::Add(obs::Counter::kSpinIterations, iters);
  obs::Record(obs::Histogram::kSpinIterationsPerAcquire, iters);
  obs::Record(obs::Histogram::kSpinAcquireNanos, now - start);
  if (obs::diag::Enabled()) [[unlikely]] {
    const std::uint64_t released =
        tas_release_ns_.load(std::memory_order_relaxed);
    // Only meaningful if a diag-stamped release happened while we spun;
    // a zero stamp means diag came on mid-spin or the holder released
    // before we started waiting.
    if (released >= start && now > released) {
      obs::Record(obs::Histogram::kLockHandoffNanos, now - released);
    }
  }
}

void SpinLock::McsAcquire() {
  LockQNode* n = GetNode();
  n->next.store(nullptr, std::memory_order_relaxed);
  // The flag must read "locked" before the node is published: a releaser
  // that reaches the node first clears the flag, and a clear that landed
  // before our store would be overwritten and spin forever.
  n->locked.store(true, std::memory_order_relaxed);
  LockQNode* prev = tail_.exchange(n, std::memory_order_acq_rel);
  if (prev != nullptr) {
    const std::uint64_t start = obs::NowNanos();
    prev->next.store(n, std::memory_order_release);
    // Enqueued but not yet spinning: the window where a releaser walks the
    // next link to a waiter that has not begun watching its flag.
    TAOS_CHAOS(kMcsEnqueueToSpin);
    std::uint64_t iters = 0;
    while (n->locked.load(std::memory_order_acquire)) {
      SpinBeat(&iters);
    }
    const std::uint64_t now = obs::NowNanos();
    obs::Inc(obs::Counter::kMcsQueuedAcquires);
    obs::Add(obs::Counter::kSpinIterations, iters);
    obs::Record(obs::Histogram::kSpinIterationsPerAcquire, iters);
    obs::Record(obs::Histogram::kSpinAcquireNanos, now - start);
    obs::Record(obs::Histogram::kLockHandoffNanos, now - n->handoff_ns);
  }
  holder_node_.store(n, std::memory_order_relaxed);
  TAOS_CHAOS(kSpinAcquired);
}

void SpinLock::McsRelease() {
  LockQNode* n = holder_node_.load(std::memory_order_relaxed);
  holder_node_.store(nullptr, std::memory_order_relaxed);
  LockQNode* succ = n->next.load(std::memory_order_acquire);
  if (succ == nullptr) {
    LockQNode* expected = n;
    if (tail_.compare_exchange_strong(expected, nullptr,
                                      std::memory_order_release,
                                      std::memory_order_relaxed)) {
      PutNode(n);  // no successor: the queue is empty again
      return;
    }
    // A successor won the tail exchange but has not linked yet; its
    // prev->next store is imminent.
    std::uint64_t iters = 0;
    while ((succ = n->next.load(std::memory_order_acquire)) == nullptr) {
      SpinBeat(&iters);
    }
  }
  // Successor identified, handoff not yet performed: the FIFO-handoff
  // window (and the seam a naive timeout-abandon protocol gets wrong —
  // see the MCS abandon litmus in src/model).
  TAOS_CHAOS(kMcsReleaseToSuccessor);
  succ->handoff_ns = obs::NowNanos();
  succ->locked.store(false, std::memory_order_release);
  PutNode(n);  // the successor spins on its own node, never on ours again
}

void SpinLock::ClhAcquire() {
  LockQNode* n = GetNode();
  n->next.store(nullptr, std::memory_order_relaxed);
  n->locked.store(true, std::memory_order_relaxed);
  LockQNode* prev = tail_.exchange(n, std::memory_order_acq_rel);
  if (prev != nullptr) {
    const std::uint64_t start = obs::NowNanos();
    // Spinning on the PREDECESSOR's flag — the CLH topology. The window
    // before the first read is where a predecessor's release can land
    // unobserved.
    TAOS_CHAOS(kClhPredSpin);
    std::uint64_t iters = 0;
    while (prev->locked.load(std::memory_order_acquire)) {
      SpinBeat(&iters);
    }
    const std::uint64_t now = obs::NowNanos();
    obs::Inc(obs::Counter::kClhQueuedAcquires);
    obs::Add(obs::Counter::kSpinIterations, iters);
    obs::Record(obs::Histogram::kSpinIterationsPerAcquire, iters);
    obs::Record(obs::Histogram::kSpinAcquireNanos, now - start);
    obs::Record(obs::Histogram::kLockHandoffNanos, now - prev->handoff_ns);
    PutNode(prev);  // adopt the predecessor's node (classic CLH recycling)
  }
  holder_node_.store(n, std::memory_order_relaxed);
  TAOS_CHAOS(kSpinAcquired);
}

void SpinLock::ClhRelease() {
  LockQNode* n = holder_node_.load(std::memory_order_relaxed);
  holder_node_.store(nullptr, std::memory_order_relaxed);
  LockQNode* expected = n;
  if (tail_.compare_exchange_strong(expected, nullptr,
                                    std::memory_order_release,
                                    std::memory_order_relaxed)) {
    PutNode(n);  // nobody queued behind us: node comes straight back
    return;
  }
  // A successor is (or will be) spinning on our flag; it adopts the node.
  n->handoff_ns = obs::NowNanos();
  n->locked.store(false, std::memory_order_release);
}

bool SpinLock::QueueTryAcquire() {
  // tail == nullptr iff free with no waiters, for both queue cores.
  if (tail_.load(std::memory_order_relaxed) != nullptr) {
    return false;
  }
  LockQNode* n = GetNode();
  n->next.store(nullptr, std::memory_order_relaxed);
  n->locked.store(true, std::memory_order_relaxed);
  LockQNode* expected = nullptr;
  // acq_rel, like the acquire paths' tail exchange: publishing the node
  // releases its initialization to the next arrival, which writes
  // prev->next (MCS) or spins on prev->locked (CLH).
  if (tail_.compare_exchange_strong(expected, n, std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
    holder_node_.store(n, std::memory_order_relaxed);
    return true;
  }
  PutNode(n);
  return false;
}

}  // namespace taos
