// TPP: Transparent Page Placement (Maruf et al., ASPLOS'23), as described
// and measured in the NOMAD paper.
//
// - Promotion is synchronous and fault-driven: slow-tier pages are armed
//   with prot_none; the faulting thread itself runs migrate_pages() when
//   the page is on the active LRU list, blocking until the copy finishes.
// - A page not yet on the active list is only marked accessed; because
//   activations batch in the 15-slot pagevec, promoting one page can take
//   up to 15 minor faults (sec. 3.1).
// - Demotion is asynchronous: kswapd migrates cold fast-tier pages to the
//   slow node when the fast node's free count dips below the watermark.
// - Tiering is exclusive: a page lives on exactly one node.
#ifndef SRC_POLICY_TPP_H_
#define SRC_POLICY_TPP_H_

#include <memory>

#include "src/mm/kswapd.h"
#include "src/policy/policy.h"
#include "src/trace/hint_fault_scanner.h"

namespace nomad {

class TppPolicy : public TieringPolicy {
 public:
  struct Config {
    HintFaultScanner::Config scanner;
    Kswapd::Config kswapd;  // tier is forced to kFast
  };

  explicit TppPolicy() = default;
  explicit TppPolicy(const Config& config) : config_(config) {}

  std::string name() const override { return "tpp"; }
  void Install(MemorySystem& ms, Engine& engine) override;

 private:
  Cycles OnHintFault(ActorId cpu, AddressSpace& as, Vpn vpn);

  Config config_;
  MemorySystem* ms_ = nullptr;
  std::unique_ptr<Kswapd> kswapd_;
  std::unique_ptr<HintFaultScanner> scanner_;
};

}  // namespace nomad

#endif  // SRC_POLICY_TPP_H_
