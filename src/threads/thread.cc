#include "src/threads/thread.h"

#include <pthread.h>

#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/chaos.h"
#include "src/base/check.h"
#include "src/base/spinlock.h"
#include "src/threads/alert.h"
#include "src/threads/nub.h"
#include "src/waitq/parker.h"

namespace taos {

namespace {

// ThreadRecord::join_word once the thread's life has ended.
constexpr std::uintptr_t kExited = 1;

// A host thread: an OS thread that runs one Fork's life after another and
// waits in the pool between them.
struct Host {
  // The next life, written by Fork before it starts or unparks the host.
  ThreadRecord* rec = nullptr;
  std::function<void()> fn;
  waitq::CpuMask affinity;  // the forker's
  // The host's own affinity as of its last return to the pool, read by
  // Fork under the pool's lock.
  waitq::CpuMask mask;
  waitq::Parker park;  // an idle host sleeps here until Fork hands it a life
};

// The idle host threads. A finished life's host joins the pool unless it
// already holds Thread::kMaxIdleHosts hosts, and then exits; Fork takes an
// idle host before it starts a new one. Leaked, like the Nub: idle hosts
// stay parked in it until the process exits.
class HostPool {
 public:
  static HostPool& Get() {
    static HostPool* pool = new HostPool();
    return *pool;
  }

  // Runs fn as rec's thread, with the caller's affinity.
  void Run(ThreadRecord* rec, std::function<void()> fn) {
    const waitq::CpuMask mask = waitq::CurrentAffinity();
    Host* h = TakeIdle(mask);
    const bool spawn = h == nullptr;
    if (spawn) {
      h = new Host();
      h->mask = mask;  // a new thread inherits the caller's affinity
    }
    h->rec = rec;
    h->fn = std::move(fn);
    h->affinity = mask;
    if (spawn) {
      std::thread([this, h] { Main(h); }).detach();
    } else {
      h->park.Unpark();
    }
  }

 private:
  HostPool() {
    idle_.reserve(Thread::kMaxIdleHosts);
    // A child process has only the thread that called fork(): the hosts
    // listed idle are not there.
    pthread_atfork([] { Get().lock_.Acquire(); }, [] { Get().lock_.Release(); },
                   [] {
                     Get().idle_.clear();
                     Get().lock_.Release();
                   });
  }

  void Main(Host* h) {
    do {
      Live(h);
    } while (Idle(h));
    delete h;
  }

  // One Fork's life, from its closure to the exit Join waits for.
  static void Live(Host* h) {
    if (!(h->affinity == h->mask)) {
      waitq::SetCurrentAffinity(h->affinity);
    }
    ThreadRecord* rec = h->rec;
    Nub::AdoptRecord(rec);
    try {
      h->fn();
    } catch (const Alerted&) {
      rec->ended_by_alert.store(true, std::memory_order_release);
    }
    h->fn = nullptr;  // the closure's destructor runs inside the life
    // Drops the thread's claim. The Thread's claim keeps rec alive until
    // Join sees kExited, so the host may still publish on it; after the
    // exchange it touches rec no more.
    Nub::ExitCurrent();
    const std::uintptr_t joiner =
        rec->join_word.exchange(kExited, std::memory_order_acq_rel);
    if (joiner != 0) {
      reinterpret_cast<ThreadRecord*>(joiner)->park.Unpark();
    }
    TAOS_CHAOS(kThreadExitedToIdle);
    h->mask = waitq::CurrentAffinity();  // fn may have changed it
  }

  // Parks h in the pool until Fork hands it a life; false, with h not
  // pooled, if the pool is full.
  bool Idle(Host* h) {
    {
      SpinGuard g(lock_);
      if (idle_.size() == Thread::kMaxIdleHosts) {
        return false;
      }
      idle_.push_back(h);
    }
    h->park.Park();
    return true;
  }

  // The most recently pooled host with the caller's affinity, else the
  // most recently pooled host; null if the pool is empty.
  Host* TakeIdle(const waitq::CpuMask& mask) {
    SpinGuard g(lock_);
    if (idle_.empty()) {
      return nullptr;
    }
    std::size_t pick = idle_.size() - 1;
    for (std::size_t i = idle_.size(); i-- > 0;) {
      if (idle_[i]->mask == mask) {
        pick = i;
        break;
      }
    }
    Host* h = idle_[pick];
    idle_.erase(idle_.begin() + static_cast<std::ptrdiff_t>(pick));
    return h;
  }

  SpinLock lock_;
  std::vector<Host*> idle_;  // guarded by lock_
};

}  // namespace

Thread::~Thread() {
  if (joinable_) {
    Join();
  }
}

Thread& Thread::operator=(Thread&& other) {
  // A joinable Thread holds a claim on its record that only Join drops.
  TAOS_CHECK(!joinable_);
  handle_ = other.handle_;
  ended_by_alert_ = other.ended_by_alert_;
  joinable_ = std::exchange(other.joinable_, false);
  return *this;
}

Thread Thread::Fork(std::function<void()> fn) {
  // The record is created by the parent so the handle is valid immediately,
  // even before the child runs (Alert on a not-yet-started thread must
  // work: the pending alert is found at the child's first alertable point).
  // Two claims: the child's, dropped when its life ends, and the Thread's,
  // dropped by Join.
  ThreadRecord* rec = Nub::Get().CreateRecord(/*owners=*/2);
  HostPool::Get().Run(rec, std::move(fn));
  return Thread(ThreadHandle::Of(rec));
}

void Thread::Join() {
  TAOS_CHECK(joinable_);
  ThreadRecord* rec = handle_.rec;
  ThreadRecord* self = Nub::Get().Current();
  TAOS_CHECK(rec != self);
  std::uintptr_t word = 0;
  if (rec->join_word.compare_exchange_strong(
          word, reinterpret_cast<std::uintptr_t>(self),
          std::memory_order_acq_rel, std::memory_order_acquire)) {
    // The host will find this thread in the word and unpark it exactly
    // once, after it sets kExited. The re-check absorbs any other permit.
    do {
      ParkBlocked(self, kEventWait);
    } while (rec->join_word.load(std::memory_order_acquire) != kExited);
  }
  ended_by_alert_ = rec->ended_by_alert.load(std::memory_order_acquire);
  joinable_ = false;
  Nub::Get().ReleaseRecord(rec);
}

ThreadHandle Thread::Self() {
  return ThreadHandle::Of(Nub::Get().Current());
}

bool Thread::EndedByAlert() const {
  TAOS_CHECK(handle_.rec != nullptr);
  return joinable_
             ? handle_.rec->ended_by_alert.load(std::memory_order_acquire)
             : ended_by_alert_;
}

}  // namespace taos
