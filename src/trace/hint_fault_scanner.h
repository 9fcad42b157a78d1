// Hint-fault arming for slow-tier pages.
//
// TPP "sets all pages residing in slow memory as inaccessible, and any user
// access to these pages will trigger a minor page fault" (sec. 2.2). This
// actor implements that arming: it sweeps the slow node's frames, setting
// prot_none on mapped, non-shadow pages, and re-arms pages whose faults
// were handled (the NUMA-balancing rescan). The fault itself is delivered
// through MemorySystem's hint-fault handler, where the tiering policy
// decides what to do.
//
// NOMAD guarantees one fault per migration (sec. 3.1), so the scanner
// skips pages that are queued (PCQ / pending) or mid-transaction. It skips
// them 64 at a time: each scan-candidate word is masked with the frame
// table's queued sidecar (FrameTable::QueuedWord, src/mm/page.h), so a
// queued frame is never loaded, and its candidate bit survives until the
// first sweep after it leaves the queues.
#ifndef SRC_TRACE_HINT_FAULT_SCANNER_H_
#define SRC_TRACE_HINT_FAULT_SCANNER_H_

#include <functional>

#include "src/mm/memory_system.h"

namespace nomad {

class HintFaultScanner : public Actor {
 public:
  struct Config {
    uint64_t pages_per_round = 512;   // arming batch per step
    Cycles round_interval = 100000;   // pause between sweep rounds
  };

  HintFaultScanner(MemorySystem* ms, const Config& config)
      : ms_(ms), config_(config), cursor_(FirstSlowPfn()) {}

  // Optional gate: when it returns false, the scanner idles instead of
  // arming pages (used by the thrash governor to stop useless faults).
  void set_enabled_fn(std::function<bool()> fn) { enabled_ = std::move(fn); }

  Cycles Step(Engine& engine) override;
  std::string name() const override { return "hint-scanner"; }

  uint64_t pages_armed() const { return pages_armed_; }

 private:
  Pfn FirstSlowPfn() const;
  Pfn EndSlowPfn() const;

  MemorySystem* ms_;
  Config config_;
  Pfn cursor_;
  uint64_t pages_armed_ = 0;
  std::function<bool()> enabled_;
};

}  // namespace nomad

#endif  // SRC_TRACE_HINT_FAULT_SCANNER_H_
