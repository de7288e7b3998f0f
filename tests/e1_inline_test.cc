// E1, "compiled entirely in-line": the uncontended Acquire and Release
// each compile to exactly one atomic read-modify-write in the caller — the
// test-and-set and the clear — so the pair carries two. ReaderWriterMutex's
// biased shared pair is held to the same budget: the slot CAS and the slot
// exchange, with the reader word's CAS loop and decrement out of line
// behind the bias test. The functions in
// e1_pair.cc are disassembled out of this test's own executable and their
// lock-prefixed instructions and memory-operand xchgs (implicitly locked)
// are counted. x86-64 only; needs objdump; skipped under sanitizers, whose
// instrumentation replaces the atomics with calls.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <regex>
#include <string>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/threads/mutex.h"
#include "src/threads/rwmutex.h"
#include "src/threads/thread.h"

extern "C" void TaosE1Pair(taos::Mutex& m);
extern "C" void TaosE1Acquire(taos::Mutex& m);
extern "C" void TaosE1Release(taos::Mutex& m);
extern "C" void TaosE1SharedPair(taos::ReaderWriterMutex& rw);
extern "C" void TaosE1SharedAcquire(taos::ReaderWriterMutex& rw);
extern "C" void TaosE1SharedRelease(taos::ReaderWriterMutex& rw);

namespace taos {
namespace {

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

// objdump's listing of `symbol` in this executable, or "" if it failed.
std::string Disassemble(const char* symbol) {
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len <= 0) {
    return "";
  }
  exe[len] = '\0';
  const std::string cmd = std::string("objdump -d --no-show-raw-insn ") +
                          "--disassemble=" + symbol + " '" + exe +
                          "' 2>/dev/null";
  std::FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) {
    return "";
  }
  std::string out;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, p) != nullptr) {
    out += buf;
  }
  pclose(p);
  return out;
}

// Atomic RMWs in a listing: lock-prefixed instructions, and xchg with a
// memory operand (xchg %ax,%ax is a two-byte nop, not an atomic).
int CountAtomicRmws(const std::string& listing) {
  static const std::regex kLock(R"(\tlock )");
  static const std::regex kXchgMem(R"(\txchg\s+[^\n]*\()");
  int n = 0;
  for (const auto* re : {&kLock, &kXchgMem}) {
    n += static_cast<int>(std::distance(
        std::sregex_iterator(listing.begin(), listing.end(), *re),
        std::sregex_iterator()));
  }
  return n;
}

class E1InlineTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if !defined(__x86_64__)
    GTEST_SKIP() << "the instruction count is pinned for x86-64 only";
#endif
    if (kSanitized) {
      GTEST_SKIP() << "sanitizer builds turn atomics into calls";
    }
    if (std::system("objdump --version > /dev/null 2>&1") != 0) {
      GTEST_SKIP() << "objdump not found";
    }
  }

  // The listing of `symbol`, failing the test if objdump produced none.
  static std::string Listing(const char* symbol) {
    const std::string listing = Disassemble(symbol);
    EXPECT_NE(listing.find(std::string("<") + symbol + ">:"),
              std::string::npos)
        << "objdump did not disassemble " << symbol << ":\n" << listing;
    return listing;
  }
};

TEST_F(E1InlineTest, EachTransitionIsOneAtomicRmw) {
  EXPECT_EQ(CountAtomicRmws(Listing("TaosE1Acquire")), 1)
      << Listing("TaosE1Acquire");
  EXPECT_EQ(CountAtomicRmws(Listing("TaosE1Release")), 1)
      << Listing("TaosE1Release");
}

TEST_F(E1InlineTest, PairIsAtMostTwoAtomicRmws) {
  const std::string listing = Listing("TaosE1Pair");
  const int rmws = CountAtomicRmws(listing);
  EXPECT_GE(rmws, 1) << "no test-and-set in-line:\n" << listing;
  EXPECT_LE(rmws, 2) << listing;
}

// The disassembled functions are the real fast path, not dead code.
TEST_F(E1InlineTest, PairRunsOnTheFastPath) {
  Mutex m;
  const obs::Stats before = obs::Snapshot();
  for (int i = 0; i < 100; ++i) {
    TaosE1Pair(m);
    TaosE1Acquire(m);
    TaosE1Release(m);
  }
  const obs::Stats after = obs::Snapshot();
  EXPECT_EQ(after.Count(obs::Counter::kFastMutexAcquire) -
                before.Count(obs::Counter::kFastMutexAcquire),
            200u);
  EXPECT_EQ(after.NubEntries(), before.NubEntries());
}

TEST_F(E1InlineTest, EachBiasedSharedTransitionIsOneAtomicRmw) {
  EXPECT_EQ(CountAtomicRmws(Listing("TaosE1SharedAcquire")), 1)
      << Listing("TaosE1SharedAcquire");
  EXPECT_EQ(CountAtomicRmws(Listing("TaosE1SharedRelease")), 1)
      << Listing("TaosE1SharedRelease");
}

TEST_F(E1InlineTest, SharedPairIsAtMostTwoAtomicRmws) {
  const std::string listing = Listing("TaosE1SharedPair");
  const int rmws = CountAtomicRmws(listing);
  EXPECT_GE(rmws, 1) << "no slot CAS in-line:\n" << listing;
  EXPECT_LE(rmws, 2) << listing;
}

// The shared pair runs biased: the hold sits in the thread's slot, not in
// the reader word, and nothing enters the Nub.
TEST_F(E1InlineTest, SharedPairRunsOnTheBiasedFastPath) {
  ReaderWriterMutex rw;
  const obs::Stats before = obs::Snapshot();
  for (int i = 0; i < 100; ++i) {
    TaosE1SharedPair(rw);
    TaosE1SharedAcquire(rw);
    EXPECT_EQ(Thread::Self().rec->biased_rw, &rw);
    TaosE1SharedRelease(rw);
  }
  const obs::Stats after = obs::Snapshot();
  EXPECT_EQ(after.Count(obs::Counter::kFastMutexAcquire) -
                before.Count(obs::Counter::kFastMutexAcquire),
            200u);
  EXPECT_EQ(after.NubEntries(), before.NubEntries());
  EXPECT_EQ(rw.ReadersForDebug(), 0u);
}

}  // namespace
}  // namespace taos
