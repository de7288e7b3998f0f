#include "src/base/context.h"

#include <cxxabi.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <utility>
#include <vector>

#include "src/base/check.h"

// GCC's sanitizer macros (set by -fsanitize=address / thread).
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace taos {

namespace {

// Deep enough for every simulated primitive and coroutine body here with
// room to spare; deeper recursion dies on the guard page.
constexpr std::size_t kStackBytes = 64 * 1024;
constexpr std::size_t kPooledStacks = 64;  // freed stacks kept per thread

thread_local Context* tls_running = nullptr;

std::size_t GuardBytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

char* MapStack() {
  void* p = mmap(nullptr, GuardBytes() + kStackBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  TAOS_CHECK(p != MAP_FAILED);
  TAOS_CHECK(mprotect(p, GuardBytes(), PROT_NONE) == 0);
  return static_cast<char*>(p) + GuardBytes();
}

void UnmapStack(char* stack) {
  munmap(stack - GuardBytes(), GuardBytes() + kStackBytes);
}

struct StackPool {
  std::vector<char*> free;
  ~StackPool() {
    for (char* s : free) {
      UnmapStack(s);
    }
  }
};
thread_local StackPool tls_pool;

}  // namespace

Context::Context(std::function<void()> body) : body_(std::move(body)) {
  if (tls_pool.free.empty()) {
    stack_ = MapStack();
  } else {
    stack_ = tls_pool.free.back();
    tls_pool.free.pop_back();
  }
#if defined(__SANITIZE_THREAD__)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Context::~Context() {
  TAOS_CHECK(!started_ || finished_);
#if defined(__SANITIZE_THREAD__)
  __tsan_destroy_fiber(tsan_fiber_);
#endif
#if defined(__SANITIZE_ADDRESS__)
  // The body's last frame never returned; drop its poison before reuse.
  __asan_unpoison_memory_region(stack_, kStackBytes);
#endif
  if (tls_pool.free.size() < kPooledStacks) {
    tls_pool.free.push_back(stack_);
  } else {
    UnmapStack(stack_);
  }
}

void Context::Resume() {
  TAOS_CHECK(!finished_);
  if (!started_) {
    started_ = true;
    getcontext(&self_);
    self_.uc_stack.ss_sp = stack_;
    self_.uc_stack.ss_size = kStackBytes;
    makecontext(&self_, &Context::Entry, 0);
  }
  Context* outer = std::exchange(tls_running, this);
  ucontext_t caller;
  caller_ = &caller;
  SwapExceptionState();
  Switch(&caller, &self_, /*entering=*/true);
  SwapExceptionState();
  tls_running = outer;
}

void Context::SwapExceptionState() {
  void* live = abi::__cxa_get_globals();
  ExceptionState saved = exceptions_;
  std::memcpy(&exceptions_, live, sizeof exceptions_);
  std::memcpy(live, &saved, sizeof saved);
}

void Context::Suspend() {
  Context* self = tls_running;
  TAOS_CHECK(self != nullptr);
  self->Switch(&self->self_, self->caller_, /*entering=*/false);
}

void Context::Entry() noexcept {
  Context* self = tls_running;
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(nullptr, &self->asan_caller_bottom_,
                                  &self->asan_caller_size_);
#endif
  self->body_();
  self->finished_ = true;
  self->Switch(&self->self_, self->caller_, /*entering=*/false);  // for good
}

void Context::Switch(ucontext_t* from, const ucontext_t* to,
                     [[maybe_unused]] bool entering) {
#if defined(__SANITIZE_THREAD__)
  if (entering) {
    tsan_caller_ = __tsan_get_current_fiber();
  }
  __tsan_switch_to_fiber(entering ? tsan_fiber_ : tsan_caller_, 0);
#endif
#if defined(__SANITIZE_ADDRESS__)
  void* fake_stack = nullptr;  // null on the final exit: frees it
  __sanitizer_start_switch_fiber(finished_ ? nullptr : &fake_stack,
                                 entering ? stack_ : asan_caller_bottom_,
                                 entering ? kStackBytes : asan_caller_size_);
#endif
  swapcontext(from, to);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack,
                                  entering ? nullptr : &asan_caller_bottom_,
                                  entering ? nullptr : &asan_caller_size_);
#endif
}

}  // namespace taos
