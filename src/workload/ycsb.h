// YCSB driver over the KvStore (Fig. 11, 14).
//
// Workload A: 50/50 reads and updates, scrambled-Zipfian key popularity
// (YCSB defaults). One RunOp = one database operation; throughput is
// ops / simulated second.
#ifndef SRC_WORKLOAD_YCSB_H_
#define SRC_WORKLOAD_YCSB_H_

#include "src/workload/kvstore.h"
#include "src/workload/workload.h"
#include "src/workload/zipfian.h"

namespace nomad {

class YcsbWorkload : public WorkloadActor {
 public:
  struct Config {
    BaseConfig base;
    double zipf_theta = 0.99;
  };

  YcsbWorkload(MemorySystem* ms, AddressSpace* as, KvStore* store, const Config& config)
      : WorkloadActor(ms, as, config.base),
        config_(config),
        store_(store),
        keys_(store->record_count(), config.zipf_theta, config.base.seed ^ 0x4C5B) {}

  std::string name() const override { return "ycsb"; }

 protected:
  Cycles RunOp(uint64_t /*op_index*/) override {
    const uint64_t key = keys_.Draw(rng_);
    auto touch = [this](Vpn vpn, uint64_t off, bool w) { return TouchLine(vpn, off, w); };
    // Fixed CPU work per database op (parsing, dispatch, reply).
    Cycles c = ms_->platform().costs.kvstore_op;
    if (rng_.Chance(kReadProportion)) {
      c += store_->Get(key, touch);
    } else {
      c += store_->Update(key, touch);
    }
    return c;
  }

 private:
  static constexpr double kReadProportion = 0.5;  // workload A

  Config config_;
  KvStore* store_;
  ScrambledZipfian keys_;
};

}  // namespace nomad

#endif  // SRC_WORKLOAD_YCSB_H_
