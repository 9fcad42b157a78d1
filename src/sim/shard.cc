#include "src/sim/shard.h"

namespace nomad {

void ShardBarrier::ArriveAndWait(const std::function<void()>& on_complete) {
  MutexLock lock(mu_);
  const uint64_t gen = generation_;
  if (++waiting_ == parties_) {
    if (on_complete) {
      on_complete();
    }
    waiting_ = 0;
    generation_++;
    cv_.NotifyAll();
    return;
  }
  // Explicit predicate loop (not cv_.wait(lock, pred)): the guarded read of
  // generation_ stays in this function, where -Wthread-safety can see the
  // lock is held; a predicate lambda would be analyzed lock-blind.
  while (generation_ == gen) {
    cv_.Wait(mu_);
  }
}

}  // namespace nomad
