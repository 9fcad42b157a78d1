// Tests for the thread-safety annotation vocabulary (src/base/annotations.h)
// and the annotated synchronization wrappers (src/base/mutex.h).
//
// Two properties matter. (1) On non-Clang compilers every macro must expand
// to NOTHING — a GCC build (this repo's default toolchain) must see plain
// C++, or the annotation rollout would change codegen or break -Werror with
// unknown-attribute warnings. The stringification checks pin that down at
// compile time. (2) The Mutex/MutexLock wrappers must be faithful stand-ins
// for std::mutex / std::lock_guard: the Zeta cache (src/workload/zipfian.cc)
// rides entirely on these semantics.
#include "src/base/annotations.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/base/mutex.h"

namespace nomad {
namespace {

// Double indirection so the macro argument is expanded before
// stringification: NOMAD_STRINGIFY(NOMAD_GUARDED_BY(mu)) yields the
// macro's EXPANSION, not its spelling.
#define NOMAD_STRINGIFY_IMPL(x) #x
#define NOMAD_STRINGIFY(x) NOMAD_STRINGIFY_IMPL(x)

#if !defined(__clang__)
// On GCC (and anything else non-Clang) every annotation macro must expand
// to an empty token sequence. An empty expansion stringifies to "".
static_assert(sizeof(NOMAD_STRINGIFY(NOMAD_CAPABILITY("mutex"))) == 1,
              "NOMAD_CAPABILITY must compile away on non-Clang");
static_assert(sizeof(NOMAD_STRINGIFY(NOMAD_SCOPED_CAPABILITY)) == 1,
              "NOMAD_SCOPED_CAPABILITY must compile away on non-Clang");
static_assert(sizeof(NOMAD_STRINGIFY(NOMAD_GUARDED_BY(mu_))) == 1,
              "NOMAD_GUARDED_BY must compile away on non-Clang");
static_assert(sizeof(NOMAD_STRINGIFY(NOMAD_PT_GUARDED_BY(mu_))) == 1,
              "NOMAD_PT_GUARDED_BY must compile away on non-Clang");
static_assert(sizeof(NOMAD_STRINGIFY(NOMAD_REQUIRES(mu_))) == 1,
              "NOMAD_REQUIRES must compile away on non-Clang");
static_assert(sizeof(NOMAD_STRINGIFY(NOMAD_ACQUIRE())) == 1,
              "NOMAD_ACQUIRE must compile away on non-Clang");
static_assert(sizeof(NOMAD_STRINGIFY(NOMAD_RELEASE())) == 1,
              "NOMAD_RELEASE must compile away on non-Clang");
static_assert(sizeof(NOMAD_STRINGIFY(NOMAD_TRY_ACQUIRE(true))) == 1,
              "NOMAD_TRY_ACQUIRE must compile away on non-Clang");
static_assert(sizeof(NOMAD_STRINGIFY(NOMAD_EXCLUDES(mu_))) == 1,
              "NOMAD_EXCLUDES must compile away on non-Clang");
static_assert(sizeof(NOMAD_STRINGIFY(NOMAD_RETURN_CAPABILITY(mu_))) == 1,
              "NOMAD_RETURN_CAPABILITY must compile away on non-Clang");
static_assert(sizeof(NOMAD_STRINGIFY(NOMAD_NO_THREAD_SAFETY_ANALYSIS)) == 1,
              "NOMAD_NO_THREAD_SAFETY_ANALYSIS must compile away on non-Clang");
static_assert(sizeof(NOMAD_STRINGIFY(NOMAD_SHARD_CONFINED)) == 1,
              "NOMAD_SHARD_CONFINED must compile away on non-Clang");
#endif  // !defined(__clang__)

// The marker must not change layout, size, or triviality of a class on ANY
// compiler (on clang the annotate attribute is metadata-only).
struct PlainProbe {
  uint64_t a;
  uint32_t b;
};
struct NOMAD_SHARD_CONFINED MarkedProbe {
  uint64_t a;
  uint32_t b;
};
static_assert(sizeof(MarkedProbe) == sizeof(PlainProbe),
              "NOMAD_SHARD_CONFINED must not change layout");
static_assert(alignof(MarkedProbe) == alignof(PlainProbe),
              "NOMAD_SHARD_CONFINED must not change alignment");
static_assert(std::is_trivially_copyable_v<MarkedProbe>,
              "NOMAD_SHARD_CONFINED must not break triviality");

TEST(AnnotationsTest, AnnotatedDeclarationsCompileEverywhere) {
  // A fully annotated miniature of a lock-guarded field: the macros in
  // every position they are used in src/.
  class Guarded {
   public:
    void Add(uint64_t v) {
      MutexLock lock(mu_);
      sum_ += v;
    }
    uint64_t sum() {
      MutexLock lock(mu_);
      return sum_;
    }

   private:
    Mutex mu_;
    uint64_t sum_ NOMAD_GUARDED_BY(mu_) = 0;
  };
  Guarded g;
  g.Add(3);
  g.Add(4);
  EXPECT_EQ(g.sum(), 7u);
}

TEST(MutexTest, LockUnlockAndTryLock) {
  Mutex mu;
  mu.Lock();
  // A held mutex must refuse TryLock from another thread (std::mutex
  // re-locking from the owner is UB, so probe from a second thread).
  bool acquired = true;
  std::thread probe([&] { acquired = mu.TryLock(); });
  probe.join();
  EXPECT_FALSE(acquired);
  mu.Unlock();
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(MutexTest, MutexLockProvidesExclusion) {
  Mutex mu;
  uint64_t counter = 0;  // protected by mu
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; t++) {
    pool.emplace_back([&] {
      for (int i = 0; i < kIters; i++) {
        MutexLock lock(mu);
        counter++;
      }
    });
  }
  for (std::thread& th : pool) {
    th.join();
  }
  EXPECT_EQ(counter, static_cast<uint64_t>(kThreads) * kIters);
}

}  // namespace
}  // namespace nomad
