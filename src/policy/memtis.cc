#include "src/policy/memtis.h"

#include "src/mm/migrate.h"
#include "src/obs/event_registry.h"

namespace nomad {

namespace {

// Pages the migrator promotes, and demotes, per period at most.
constexpr size_t kPromoteBatch = 64;
constexpr size_t kDemoteBatch = 64;

}  // namespace

void MemtisPolicy::Install(MemorySystem& ms, Engine& engine) {
  ms_ = &ms;
  if (!ms.platform().pebs_supported) {
    // Platform D: Memtis cannot run (no IBS backend). Install nothing; the
    // harness excludes it there, matching the paper.
    return;
  }
  sampler_ = std::make_unique<PebsSampler>(&ms, config_.pebs);
  sampler_->Attach();

  migrator_ = std::make_unique<Migrator>(this);
  engine.AddActor(migrator_.get());

  Kswapd::Config kcfg;
  kcfg.tier = Tier::kFast;
  kswapd_ = std::make_unique<Kswapd>(&ms, kcfg);
  const ActorId kswapd_id = engine.AddActor(kswapd_.get());
  kswapd_->set_actor_id(kswapd_id);
  ms.set_kswapd_waker([this, &engine, &ms](Tier tier) {
    if (tier == Tier::kFast) {
      engine.Wake(kswapd_->actor_id(), engine.now() + ms.platform().costs.daemon_wakeup);
    }
  });
}

Cycles MemtisPolicy::Migrator::Step(Engine& engine) {
  Cycles spent = policy_->RunMigrationRound();
  engine.SleepUntil(engine.now() + std::max<Cycles>(spent, 1) +
                    policy_->config_.migrate_interval);
  return spent;
}

Cycles MemtisPolicy::RunMigrationRound() {
  MemorySystem& ms = *ms_;
  PebsSampler& pebs = *sampler_;
  // The whole round is a pebs_drain span: the sample-histogram work books
  // as self, the resulting migrations nest as sync_migrate children.
  ProfScope span(ms.prof(), ProfNode::kPebsDrain);
  AddressSpace* as = pebs.space();
  if (as == nullptr) {
    ms.prof().Charge(ms.platform().costs.daemon_wakeup);
    return ms.platform().costs.daemon_wakeup;  // nothing sampled yet
  }
  Cycles spent = ms.platform().costs.daemon_wakeup;
  ms.prof().Charge(spent);
  FramePool& pool = ms.pool();

  const uint64_t fast_budget = pool.TotalFrames(Tier::kFast);
  const uint64_t threshold = pebs.HotThreshold(fast_budget);

  // Demote first when the fast node is tight, to make room for promotions.
  if (pool.BelowLowWatermark(Tier::kFast)) {
    for (Vpn vpn : pebs.ColdPagesOn(Tier::kFast, threshold, kDemoteBatch)) {
      if (!pool.BelowLowWatermark(Tier::kFast)) {
        break;
      }
      MigrateResult r = MigratePageSync(ms, *as, vpn, Tier::kSlow);
      spent += r.cycles;
      if (r.success) {
        ms.counters().Add(cnt::kMemtisDemote, 1);
      }
    }
  }

  // Promote the hottest sampled pages still resident on the slow tier.
  uint64_t attempts = 0;
  for (Vpn vpn : pebs.HotPagesOn(Tier::kSlow, threshold, kPromoteBatch)) {
    if (pool.FreeFrames(Tier::kFast) <= pool.LowWatermark(Tier::kFast)) {
      ms.counters().Add(cnt::kMemtisPromoteSkippedNomem, 1);
      break;
    }
    attempts++;
    MigrateResult r = MigratePageSync(ms, *as, vpn, Tier::kFast);
    spent += r.cycles;
    ms.counters().Add(r.success ? cnt::kMemtisPromote : cnt::kMemtisPromoteFail, 1);
  }
  ms.Trace(TraceEvent::kMigrationRound, attempts, spent);
  return spent;
}

}  // namespace nomad
