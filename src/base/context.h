// The one stack switch: a body running on its own stack, shared by the
// coroutine implementation of the Threads package (src/coro) and the
// simulated Firefly's fibers (src/firefly) — the paper's "co-routine
// mechanism for blocking one thread and resuming another".
//
// A driver calls Resume() to run the body until the body calls Suspend() or
// returns. Everything runs on the driver's OS thread, one side at a time.
// The class owns every decision about switching stacks:
//  - one stack size, a guard page below each stack (overflow faults instead
//    of overwriting the heap), and a per-thread pool of freed stacks, so a
//    context costs no mmap/munmap once the pool is warm;
//  - each context keeps its own C++ exception state (the caught-exception
//    stack behind `throw;`, and std::uncaught_exceptions()), swapped on
//    every switch;
//  - under ThreadSanitizer and AddressSanitizer, every switch is announced
//    as a fiber switch.

#ifndef TAOS_SRC_BASE_CONTEXT_H_
#define TAOS_SRC_BASE_CONTEXT_H_

#include <ucontext.h>

#include <cstddef>
#include <functional>

namespace taos {

class Context {
 public:
  // Nothing runs until Resume(). The body must not let an exception escape.
  explicit Context(std::function<void()> body);
  // REQUIRES the body finished or never started (a suspended body's frames
  // would be dropped without running their destructors).
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // Runs the body until it calls Suspend() or returns. REQUIRES the body
  // has not returned yet.
  void Resume();

  // From inside a running body: returns to the Resume() caller, and returns
  // itself at the next Resume().
  static void Suspend();

  bool started() const { return started_; }

 private:
  // The layout of the Itanium C++ ABI's per-thread __cxa_eh_globals.
  struct ExceptionState {
    void* caught = nullptr;
    unsigned int uncaught = 0;
  };

  static void Entry() noexcept;
  // Trades the thread's exception state with the one saved here.
  void SwapExceptionState();
  // Leaves the current stack for `to`; returns when switched back to.
  void Switch(ucontext_t* from, const ucontext_t* to, bool entering);

  std::function<void()> body_;
  char* stack_;  // lowest usable byte; the guard page lies just below
  ucontext_t self_{};
  ucontext_t* caller_ = nullptr;  // saved by the running Resume()
  ExceptionState exceptions_;     // whichever side is off the thread
  bool started_ = false;
  bool finished_ = false;
  void* tsan_fiber_ = nullptr;    // sanitizer bookkeeping
  void* tsan_caller_ = nullptr;
  const void* asan_caller_bottom_ = nullptr;
  std::size_t asan_caller_size_ = 0;
};

}  // namespace taos

#endif  // TAOS_SRC_BASE_CONTEXT_H_
