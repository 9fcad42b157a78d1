// Annotated synchronization wrappers: std::mutex with the Clang
// thread-safety capability attributes attached.
//
// The standard-library types carry no annotations, so code that uses them
// directly is invisible to -Wthread-safety: the analysis cannot connect a
// std::lock_guard to the fields the lock protects. These zero-overhead
// wrappers (every method is a single inlined forwarding call) restore that
// connection. They are the only sanctioned way to add a lock in this tree
// — lint rule NL011 requires any class holding a mutex or atomic member to
// carry thread-safety annotations, and plain std::mutex members cannot.
#ifndef SRC_BASE_MUTEX_H_
#define SRC_BASE_MUTEX_H_

#include <mutex>

#include "src/base/annotations.h"

namespace nomad {

// A std::mutex declared as a thread-safety capability.
class NOMAD_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() NOMAD_ACQUIRE() { mu_.lock(); }
  void Unlock() NOMAD_RELEASE() { mu_.unlock(); }
  bool TryLock() NOMAD_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

// RAII lock with scoped-capability semantics (the annotated counterpart of
// std::lock_guard<std::mutex>).
class NOMAD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) NOMAD_ACQUIRE(mu) : mu_(&mu) { mu_->Lock(); }
  ~MutexLock() NOMAD_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

}  // namespace nomad

#endif  // SRC_BASE_MUTEX_H_
