#include "src/nomad/governor.h"

#include <cstdlib>

#include "src/obs/event_registry.h"

namespace nomad {

namespace {

// Promotions and demotions are balanced when |promo - demo| / promo is at
// most this.
constexpr double kBalanceTolerance = 0.5;

}  // namespace

uint64_t ThrashGovernor::PromoTotal() const {
  const CounterSet& c = ms_->counters();
  return c.Get(cnt::kNomadTpmCommit) + c.Get(cnt::kMigrateSyncPromote);
}

uint64_t ThrashGovernor::DemoTotal() const {
  // Only demotions of *recently promoted* pages signal thrashing; evicting
  // cold pages to make room for hot ones is exactly what warm-up looks
  // like, and must not trip the governor. NOMAD's shadow machinery marks
  // recently promoted pages, so the distinction is free.
  return ms_->counters().Get(cnt::kNomadDemoteRecent);
}

Cycles ThrashGovernor::Step(Engine& engine) {
  const uint64_t promo = PromoTotal();
  const uint64_t demo = DemoTotal();
  const uint64_t promo_rate = promo - last_promo_;
  const uint64_t demo_rate = demo - last_demo_;
  last_promo_ = promo;
  last_demo_ = demo;

  if (!gate_->open) {
    if (--closed_periods_left_ <= 0) {
      // Probation: re-open and watch whether thrashing resumes.
      gate_->open = true;
      probation_left_ = config_.probation_periods;
      ms_->counters().Add(cnt::kGovernorReopen, 1);
    }
  } else {
    const bool busy = promo_rate >= config_.min_promotions;
    const double diff = promo_rate == 0
                            ? 1.0
                            : std::abs(static_cast<double>(promo_rate) -
                                       static_cast<double>(demo_rate)) /
                                  static_cast<double>(promo_rate);
    const bool thrashing = busy && diff <= kBalanceTolerance;
    if (thrashing) {
      // Frequent and (near-)equal promotions and demotions: every page we
      // bring in pushes another one out. Stop promoting; serve in place.
      gate_->open = false;
      if (probation_left_ > 0) {
        // Relapsed right after probation: back off harder.
        backoff_ = std::min(backoff_ * 2, config_.max_backoff);
      } else {
        backoff_ = 1;
      }
      closed_periods_left_ = backoff_;
      probation_left_ = 0;
      throttle_events_++;
      ms_->counters().Add(cnt::kGovernorThrottle, 1);
    } else if (probation_left_ > 0) {
      if (--probation_left_ == 0) {
        backoff_ = 1;  // survived probation: thrashing genuinely ended
      }
    }
  }

  engine.SleepUntil(engine.now() + config_.period);
  const Cycles spent = ms_->platform().costs.daemon_wakeup / 2;
  ms_->prof().ChargeLeaf(ProfNode::kGovernor, spent);
  return spent;
}

}  // namespace nomad
