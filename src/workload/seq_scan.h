// Sequential scan workload: sweeps a region a few lines per page,
// wrapping around (MicroRunConfig::pattern kSeqScan; the chaos campaign's
// "scan" workload).
#ifndef SRC_WORKLOAD_SEQ_SCAN_H_
#define SRC_WORKLOAD_SEQ_SCAN_H_

#include "src/workload/workload.h"

namespace nomad {

class SeqScanWorkload : public WorkloadActor {
 public:
  struct Config {
    BaseConfig base;
    Vpn region_start = 0;
    uint64_t region_pages = 0;
    double write_fraction = 0.0;
  };

  SeqScanWorkload(MemorySystem* ms, AddressSpace* as, const Config& config)
      : WorkloadActor(ms, as, config.base), config_(config) {}

  std::string name() const override { return "seq-scan"; }

 protected:
  Cycles RunOp(uint64_t op_index) override {
    const uint64_t page_step = op_index / kLinesPerPage;
    const Vpn vpn = config_.region_start + page_step % config_.region_pages;
    const uint64_t line = op_index % kLinesPerPage;
    const bool is_write =
        config_.write_fraction > 0 && rng_.Chance(config_.write_fraction);
    return TouchLine(vpn, line * kCacheLineSize, is_write);
  }

 private:
  static constexpr uint64_t kLinesPerPage = 4;  // touch a few lines then move on

  Config config_;
};

}  // namespace nomad

#endif  // SRC_WORKLOAD_SEQ_SCAN_H_
