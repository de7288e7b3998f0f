// Thread creation and control.
//
// The Threads package "implements a Modula-2+ interface for creating and
// controlling a virtually unlimited number of threads". This reproduction
// layers thread creation on host OS threads (the Firefly scheduler that
// multiplexed threads onto processors is reproduced separately, in
// src/firefly); what matters to the synchronization spec is only each
// thread's identity (SELF) and its record in the Nub.

#ifndef TAOS_SRC_THREADS_THREAD_H_
#define TAOS_SRC_THREADS_THREAD_H_

#include <functional>
#include <thread>

#include "src/threads/thread_record.h"

namespace taos {

class Thread {
 public:
  Thread() = default;
  Thread(Thread&&) = default;
  Thread& operator=(Thread&&) = default;
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  // Joins if not joined yet (TRY ... FINALLY discipline: a Thread going
  // out of scope never leaves a runaway OS thread).
  ~Thread();

  // Creates a new thread executing fn. An Alerted exception propagating out
  // of fn terminates the thread quietly and marks it EndedByAlert.
  static Thread Fork(std::function<void()> fn);

  // Waits for the thread to finish, then lets its record be reused.
  void Join();

  bool Joinable() const { return os_.joinable(); }

  // Handle usable with Alert(t). Safe to use for the life of the process:
  // once the thread has exited and been joined, Alert on it does nothing.
  ThreadHandle Handle() const { return handle_; }

  // The calling thread's own handle.
  static ThreadHandle Self();

  // True once the thread terminated because Alerted escaped its root
  // function. Still answers after Join.
  bool EndedByAlert() const;

 private:
  Thread(ThreadHandle handle, std::thread os)
      : handle_(handle), os_(std::move(os)) {}

  // While os_ is joinable this Thread holds a claim on handle_.rec; Join
  // copies ended_by_alert_ out of the record and drops the claim.
  ThreadHandle handle_;
  bool ended_by_alert_ = false;
  std::thread os_;
};

}  // namespace taos

#endif  // TAOS_SRC_THREADS_THREAD_H_
