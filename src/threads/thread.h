// Thread creation and control.
//
// The Threads package "implements a Modula-2+ interface for creating and
// controlling a virtually unlimited number of threads". This reproduction
// layers thread creation on host OS threads (the Firefly scheduler that
// multiplexed threads onto processors is reproduced separately, in
// src/firefly); what matters to the synchronization spec is only each
// thread's identity (SELF) and its record in the Nub.
//
// A Fork is a new record run on a host thread, not a new host thread. A
// host whose Fork has ended waits in a small pool (thread.cc) and runs a
// later Fork, so one host thread may run many Forks, one after another.
// What belongs to the host thread therefore outlives a Fork:
//   - `thread_local` variables, and their destructors, which run when the
//     host thread exits, not when the Fork ends or its Join returns;
//   - the signal mask and the scheduling policy and priority.
// The Fork's own state does end with it: its closure is destroyed and its
// record released before Join returns, and the obs counts it made are in
// obs::Snapshot() by then. A Fork runs with its forker's CPU affinity, as
// a new thread would inherit it. Its fn must return or raise Alerted: it
// must not end its host thread (pthread_exit), which Join would wait on
// forever.

#ifndef TAOS_SRC_THREADS_THREAD_H_
#define TAOS_SRC_THREADS_THREAD_H_

#include <cstddef>
#include <functional>
#include <utility>

#include "src/threads/thread_record.h"

namespace taos {

class Thread {
 public:
  // The most host threads left idle in the pool at once; a host whose Fork
  // ends while the pool is full exits. Enough for each CPU of a small host
  // to fork and join at once without a miss; an idle host keeps its
  // stack's touched pages, its obs cell and its `thread_local` state.
  static constexpr std::size_t kMaxIdleHosts = 8;

  Thread() = default;
  Thread(Thread&& other) noexcept
      : handle_(other.handle_),
        ended_by_alert_(other.ended_by_alert_),
        joinable_(std::exchange(other.joinable_, false)) {}
  // Checks that *this is not joinable: overwriting a Thread that still
  // needs its Join would leak its record.
  Thread& operator=(Thread&& other);
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  // Joins if not joined yet (TRY ... FINALLY discipline: a Thread going
  // out of scope never leaves a runaway thread).
  ~Thread();

  // Creates a new thread executing fn. An Alerted exception propagating out
  // of fn terminates the thread quietly and marks it EndedByAlert.
  static Thread Fork(std::function<void()> fn);

  // Waits for the thread to finish, then lets its record be reused.
  void Join();

  bool Joinable() const { return joinable_; }

  // Handle usable with Alert(t). Safe to use for the life of the process:
  // once the thread has exited and been joined, Alert on it does nothing.
  ThreadHandle Handle() const { return handle_; }

  // The calling thread's own handle.
  static ThreadHandle Self();

  // True once the thread terminated because Alerted escaped its root
  // function. Still answers after Join.
  bool EndedByAlert() const;

 private:
  explicit Thread(ThreadHandle handle) : handle_(handle), joinable_(true) {}

  // While joinable_ this Thread holds a claim on handle_.rec; Join copies
  // ended_by_alert_ out of the record and drops the claim.
  ThreadHandle handle_;
  bool ended_by_alert_ = false;
  bool joinable_ = false;
};

}  // namespace taos

#endif  // TAOS_SRC_THREADS_THREAD_H_
