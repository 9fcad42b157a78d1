// The paper's micro-benchmark (sec. 4.1): Zipfian reads or writes over a
// WSS region that is part of a larger RSS, with configurable initial
// placement (Figures 1, 7, 8, 9 and Table 2).
#ifndef SRC_WORKLOAD_MICRO_H_
#define SRC_WORKLOAD_MICRO_H_

#include <memory>

#include "src/workload/workload.h"
#include "src/workload/zipfian.h"

namespace nomad {

class MicroWorkload : public WorkloadActor {
 public:
  struct Config {
    BaseConfig base;
    Vpn wss_start = 0;          // first VPN of the working set
    uint64_t wss_pages = 0;
    double write_fraction = 0;  // 0 = read benchmark, 1 = write benchmark
  };

  // `zipf` is shared between threads of the same benchmark (same hotness
  // ranking); it must outlive the actor.
  MicroWorkload(MemorySystem* ms, AddressSpace* as, const ScrambledZipfian* zipf,
                const Config& config)
      : WorkloadActor(ms, as, config.base), config_(config), zipf_(zipf) {}

  std::string name() const override { return "micro"; }

 protected:
  Cycles RunOp(uint64_t /*op_index*/) override {
    const Vpn vpn = config_.wss_start + zipf_->Draw(rng_);
    const uint64_t offset = rng_.Below(kPageSize / kCacheLineSize) * kCacheLineSize;
    const bool is_write = config_.write_fraction > 0 && rng_.Chance(config_.write_fraction);
    return TouchLine(vpn, offset, is_write);
  }

 private:
  Config config_;
  const ScrambledZipfian* zipf_;
};

}  // namespace nomad

#endif  // SRC_WORKLOAD_MICRO_H_
