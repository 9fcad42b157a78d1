// The complete NOMAD tiering policy (sec. 3).
//
// Wires together:
//  - hint-fault tracking (shared with TPP) feeding the PCQ: one minor
//    fault per migrated page,
//  - kpromote running transactional page migrations,
//  - page shadowing with the shadow page fault on master writes,
//  - shadow-aware demotion: a clean, shadowed page demotes by *remapping*
//    its PTE to the shadow copy - no page copy at all,
//  - shadow reclamation under memory pressure (kswapd priority + the
//    allocation-failure path freeing 10x the requested pages).
#ifndef SRC_NOMAD_NOMAD_POLICY_H_
#define SRC_NOMAD_NOMAD_POLICY_H_

#include <memory>

#include "src/mm/kswapd.h"
#include "src/nomad/admission.h"
#include "src/nomad/governor.h"
#include "src/nomad/kpromote.h"
#include "src/nomad/pcq.h"
#include "src/nomad/shadow.h"
#include "src/policy/policy.h"
#include "src/trace/hint_fault_scanner.h"

namespace nomad {

class NomadPolicy : public TieringPolicy {
 public:
  struct Config {
    HintFaultScanner::Config scanner;
    PromotionQueues::Config pcq;
    KpromoteActor::Config kpromote;
    Kswapd::Config kswapd_fast;
    Kswapd::Config kswapd_slow;
    // Sec. 5 extension: detect balanced promotion/demotion churn and stop
    // promoting until memory pressure eases. Off by default: the paper's
    // evaluated system does not include it.
    bool enable_governor = false;
    ThrashGovernor::Config governor;
    // Migration control plane (src/nomad/admission.h): token-bucket
    // bandwidth budget, backlog caps and the per-page abort-storm
    // downgrade. Off by default: the paper's evaluated system has no
    // admission control, and the fixed-seed goldens are captured without
    // it.
    bool enable_admission = false;
    AdmissionController::Config admission;
  };

  NomadPolicy() : NomadPolicy(Config{}) {}
  explicit NomadPolicy(const Config& config) : config_(config) {}

  std::string name() const override { return "nomad"; }
  void Install(MemorySystem& ms, Engine& engine) override;

  const KpromoteActor::Stats& tpm_stats() const { return kpromote_->stats(); }
  const ShadowManager& shadows() const { return *shadows_; }
  ShadowManager& shadows() { return *shadows_; }
  const ThrashGovernor* governor() const { return governor_.get(); }
  const PromotionQueues& queues() const { return *queues_; }
  const KpromoteActor& kpromote() const { return *kpromote_; }
  // Migration control plane; nullptr unless config.enable_admission.
  const AdmissionController* admission() const { return admission_.get(); }
  // Consecutive fruitless alloc-failure reclaim attempts (for tests).
  uint32_t alloc_fail_streak() const { return alloc_fail_streak_; }

 private:
  Cycles OnHintFault(ActorId cpu, AddressSpace& as, Vpn vpn);
  Cycles OnWriteProtectFault(ActorId cpu, AddressSpace& as, Vpn vpn);
  MigrateResult DemotePage(Pfn pfn);

  Config config_;
  MemorySystem* ms_ = nullptr;
  std::unique_ptr<ShadowManager> shadows_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<PromotionQueues> queues_;
  std::unique_ptr<KpromoteActor> kpromote_;
  std::unique_ptr<Kswapd> kswapd_fast_;
  std::unique_ptr<Kswapd> kswapd_slow_;
  std::unique_ptr<HintFaultScanner> scanner_;
  std::unique_ptr<ThrashGovernor> governor_;
  PromotionGate gate_;
  uint32_t alloc_fail_streak_ = 0;
};

}  // namespace nomad

#endif  // SRC_NOMAD_NOMAD_POLICY_H_
