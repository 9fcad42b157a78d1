// kswapd: per-node background reclaim daemon.
//
// Woken when a node's free count dips under the low watermark; reclaims
// until the high watermark is restored. On the fast node, reclaim means
// demoting cold pages (inactive-list tail) to the slow node - TPP's
// asynchronous demotion path. Policies customize two points:
//  - pre_reclaim_fn: runs before page demotion; NOMAD frees shadow pages
//    here first (sec. 3.2, "NOMAD instructs kswapd to prioritize the
//    reclamation of shadow pages"),
//  - reclaim_page_fn: demotes/frees one page; NOMAD substitutes its
//    remap-only demotion for clean shadowed pages.
#ifndef SRC_MM_KSWAPD_H_
#define SRC_MM_KSWAPD_H_

#include <functional>

#include "src/mm/memory_system.h"
#include "src/mm/migrate.h"

namespace nomad {

class Kswapd : public Actor {
 public:
  struct Config {
    Tier tier = Tier::kFast;
    uint64_t scan_batch = 32;       // pages examined per step
  };
  // Re-check period while the watermarks are fine, and the back-off after
  // a round that reclaimed nothing.
  static constexpr Cycles kPollInterval = 200000;

  // Reclaims one page (by PFN); returns success and the cycles it cost.
  using ReclaimPageFn = std::function<MigrateResult(Pfn)>;
  // Picks the demotion victim; kInvalidPfn means "use the inactive tail".
  // NOMAD prefers clean shadowed pages near the tail, whose demotion is a
  // remap instead of a copy.
  using VictimFn = std::function<Pfn()>;
  // Attempts to free up to `needed` frames some other way first; returns
  // frames freed and charges cycles through the second out-param.
  using PreReclaimFn = std::function<uint64_t(uint64_t needed, Cycles* cost)>;

  Kswapd(MemorySystem* ms, const Config& config);

  // The engine id must be set right after AddActor so wakeups can target it.
  void set_actor_id(ActorId id) { actor_id_ = id; }
  ActorId actor_id() const { return actor_id_; }

  void set_reclaim_page_fn(ReclaimPageFn fn) { reclaim_page_ = std::move(fn); }
  void set_pre_reclaim_fn(PreReclaimFn fn) { pre_reclaim_ = std::move(fn); }
  void set_victim_fn(VictimFn fn) { victim_ = std::move(fn); }

  Cycles Step(Engine& engine) override;
  std::string name() const override;

  uint64_t pages_demoted() const { return pages_demoted_; }
  uint64_t demote_failures() const { return demote_failures_; }

 private:
  // One reclaim round; returns cycles spent.
  Cycles ReclaimRound();
  // Default single-page reclaim: demote fast-node pages to the slow node.
  MigrateResult DefaultReclaimPage(Pfn pfn);

  MemorySystem* ms_;
  Config config_;
  ActorId actor_id_ = 0;
  ReclaimPageFn reclaim_page_;
  PreReclaimFn pre_reclaim_;
  VictimFn victim_;
  uint64_t pages_demoted_ = 0;
  uint64_t demote_failures_ = 0;
  uint64_t consecutive_failures_ = 0;
};

}  // namespace nomad

#endif  // SRC_MM_KSWAPD_H_
