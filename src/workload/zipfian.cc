#include "src/workload/zipfian.h"

#include <map>
#include <utility>

#include "src/base/mutex.h"

namespace nomad {

namespace {

// zeta values by (n, theta). Every shard of a run asks for the same key,
// often from several worker threads at once: the first asker computes the
// value under the lock and the others wait for it.
class ZetaCache {
 public:
  double Get(uint64_t n, double theta) NOMAD_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    const auto [it, inserted] = values_.try_emplace({n, theta}, 0.0);
    if (inserted) {
      double zeta = 0.0;
      for (uint64_t i = 1; i <= n; i++) {
        zeta += 1.0 / std::pow(static_cast<double>(i), theta);
      }
      it->second = zeta;
    }
    return it->second;
  }

 private:
  Mutex mu_;
  std::map<std::pair<uint64_t, double>, double> values_ NOMAD_GUARDED_BY(mu_);
};

}  // namespace

double Zeta(uint64_t n, double theta) {
  static ZetaCache cache;
  return cache.Get(n, theta);
}

}  // namespace nomad
