// Zipfian page selection, YCSB-style.
//
// The paper's micro-benchmark "generates memory accesses to the WSS data
// that mimic real-world memory access patterns with a Zipfian distribution"
// with "the frequently accessed, or hot, data uniformly distributed along
// the WSS" (sec. 4.1). That is a *scrambled* Zipfian: rank r is the r-th
// hottest page, and a random permutation spreads ranks uniformly over the
// page range. Exposing the permutation lets the harness implement the
// Frequency-opt initial placement of Fig. 1 (hottest pages placed in fast
// memory first).
//
// Set-up cost: the normaliser zeta(n, theta) is a sum over all n ranks,
// and every shard of a sharded run samples the same n. Zeta() computes it
// once per (n, theta) per process and serves it from a cache after that,
// so a run pays for it once instead of once per shard. The permutation is
// stored as uint32_t, half the bytes of a uint64_t one, so a scrambled
// range holds 1 to 2^32 - 1 items.
#ifndef SRC_WORKLOAD_ZIPFIAN_H_
#define SRC_WORKLOAD_ZIPFIAN_H_

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "src/check/check.h"
#include "src/sim/rng.h"

namespace nomad {

// zeta(n, theta) = sum over i = 1..n of 1 / i^theta, added in ascending i.
// Thread-safe: the first call for an (n, theta) computes it under a
// process-wide lock and caches it, so every call returns the same bits.
double Zeta(uint64_t n, double theta);

// Draws ranks in [0, n) with P(rank) ~ 1/(rank+1)^theta (Gray et al.).
class ZipfianRanks {
 public:
  ZipfianRanks(uint64_t n, double theta = 0.99);

  uint64_t Draw(Rng& rng) const;

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  uint64_t n_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
  double second_rank_cut_;  // 1 + 0.5^theta, hoisted out of Draw (it is
                            // loop-invariant; pow dominated the draw cost)
};

// Scrambled Zipfian over a page (or item) range: hotness ranks are
// permuted uniformly across [0, n), 0 < n <= 2^32 - 1.
class ScrambledZipfian {
 public:
  ScrambledZipfian(uint64_t n, double theta, uint64_t seed)
      : ranks_(CheckedSize(n), theta), perm_(n) {
    std::iota(perm_.begin(), perm_.end(), uint32_t{0});
    Rng rng(seed);
    for (uint64_t i = n; i > 1; i--) {  // Fisher-Yates
      std::swap(perm_[i - 1], perm_[rng.Below(i)]);
    }
  }

  // Next item index (0-based within the range).
  uint64_t Draw(Rng& rng) const { return perm_[ranks_.Draw(rng)]; }

  // Item holding hotness rank r (0 = hottest). Used for Frequency-opt
  // placement.
  uint64_t ItemOfRank(uint64_t rank) const { return perm_[rank]; }

  uint64_t n() const { return ranks_.n(); }

 private:
  // Runs before any member is built: an empty range has no rank to draw,
  // and a larger one does not fit the permutation.
  static uint64_t CheckedSize(uint64_t n) {
    NOMAD_CHECK(n > 0 && n <= UINT32_MAX, "ScrambledZipfian needs 0 < n <= 2^32 - 1, n=", n);
    return n;
  }

  ZipfianRanks ranks_;  // first, so CheckedSize runs before perm_ allocates
  std::vector<uint32_t> perm_;
};

inline ZipfianRanks::ZipfianRanks(uint64_t n, double theta)
    : n_(n), theta_(theta), zetan_(Zeta(n, theta)) {
  alpha_ = 1.0 / (1.0 - theta_);
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) / (1.0 - zeta2 / zetan_);
  second_rank_cut_ = 1.0 + std::pow(0.5, theta_);
}

inline uint64_t ZipfianRanks::Draw(Rng& rng) const {
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < second_rank_cut_) {
    return 1;
  }
  const auto r = static_cast<uint64_t>(static_cast<double>(n_) *
                                       std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return r >= n_ ? n_ - 1 : r;
}

}  // namespace nomad

#endif  // SRC_WORKLOAD_ZIPFIAN_H_
