// Memtis (Lee et al., SOSP'23) as described and measured in the NOMAD
// paper: PEBS-sampled page temperature with histogram-based hot/cold
// classification and a background kernel thread that migrates pages off the
// application's critical path.
//
// Two variants differ only in cooling speed (sec. 4, "Baselines"):
//   Memtis-Default    cooling period 2,000k samples
//   Memtis-QuickCool  cooling period 2k samples
// No hint faults are armed: the app never traps, which is why Memtis wins
// while migrations are in flight but mis-places cache-hot pages (Fig. 10).
#ifndef SRC_POLICY_MEMTIS_H_
#define SRC_POLICY_MEMTIS_H_

#include <memory>

#include "src/mm/kswapd.h"
#include "src/policy/policy.h"
#include "src/trace/pebs.h"

namespace nomad {

class MemtisPolicy : public TieringPolicy {
 public:
  struct Config {
    PebsSampler::Config pebs;      // cooling_period selects Default/QuickCool
    Cycles migrate_interval = 2000000;  // background thread period (~1 ms)
    std::string variant = "memtis-default";
  };

  static Config DefaultVariant() {
    Config c;
    c.pebs.cooling_period = 2000000;
    c.variant = "memtis-default";
    return c;
  }
  static Config QuickCoolVariant() {
    Config c;
    c.pebs.cooling_period = 2000;
    c.variant = "memtis-quickcool";
    return c;
  }

  explicit MemtisPolicy(Config config = DefaultVariant()) : config_(config) {}

  std::string name() const override { return config_.variant; }
  void Install(MemorySystem& ms, Engine& engine) override;

  const PebsSampler* sampler() const { return sampler_.get(); }

 private:
  // The kmigrated-style background thread.
  class Migrator : public Actor {
   public:
    Migrator(MemtisPolicy* policy) : policy_(policy) {}
    Cycles Step(Engine& engine) override;
    std::string name() const override { return "memtis-migrator"; }

   private:
    MemtisPolicy* policy_;
  };

  Cycles RunMigrationRound();

  Config config_;
  MemorySystem* ms_ = nullptr;
  std::unique_ptr<PebsSampler> sampler_;
  std::unique_ptr<Migrator> migrator_;
  std::unique_ptr<Kswapd> kswapd_;
};

}  // namespace nomad

#endif  // SRC_POLICY_MEMTIS_H_
