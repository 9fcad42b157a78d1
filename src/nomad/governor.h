// Thrash governor: the paper's sec. 5 future-work extension.
//
// "It is straightforward to detect memory thrashing, e.g., frequent and
// equal number of page demotions and promotions, and disable page
// migrations. [...] We plan to extend NOMAD to unilaterally throttle page
// promotions and monitor page demotions to effectively manage memory
// pressure on the fast tier."
//
// The governor samples promotion/demotion rates periodically. When both
// are high and balanced (the thrashing signature), it closes a *promotion
// gate* shared with the hint-fault path and kpromote, so pages are served
// in place from the slow tier - the behaviour the paper shows is optimal
// when the working set exceeds fast memory. Because estimating when the
// working set shrank back is hard (the paper's stated open problem), the
// governor periodically re-opens the gate on probation with exponential
// backoff: if thrashing resumes immediately, the gate closes for longer.
#ifndef SRC_NOMAD_GOVERNOR_H_
#define SRC_NOMAD_GOVERNOR_H_

#include "src/mm/memory_system.h"

namespace nomad {

// Shared switch between the governor and the promotion machinery.
struct PromotionGate {
  bool open = true;
};

class ThrashGovernor : public Actor {
 public:
  struct Config {
    Cycles period = 4000000;        // sampling period (~2 ms at 2.1 GHz)
    uint64_t min_promotions = 256;  // below this rate, no thrash verdict
    int probation_periods = 2;      // gate re-opens for this many periods
    int max_backoff = 16;           // cap on closed-period exponential growth
  };

  ThrashGovernor(MemorySystem* ms, PromotionGate* gate, const Config& config)
      : ms_(ms), gate_(gate), config_(config) {}

  Cycles Step(Engine& engine) override;
  std::string name() const override { return "thrash-governor"; }

  uint64_t throttle_events() const { return throttle_events_; }

 private:
  // Promotion/demotion totals from the shared counters.
  uint64_t PromoTotal() const;
  uint64_t DemoTotal() const;

  MemorySystem* ms_;
  PromotionGate* gate_;
  Config config_;
  uint64_t last_promo_ = 0;
  uint64_t last_demo_ = 0;
  int closed_periods_left_ = 0;   // remaining periods with the gate closed
  int probation_left_ = 0;        // remaining probation periods after reopen
  int backoff_ = 1;               // current closed-duration multiplier
  uint64_t throttle_events_ = 0;
};

}  // namespace nomad

#endif  // SRC_NOMAD_GOVERNOR_H_
