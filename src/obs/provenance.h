// Per-page provenance ledger: bounded lifecycle records for migrated pages.
//
// Counters say *how many* promotions happened; the ledger says *to whom*.
// Each tracked page accumulates its promotions, demotions, TPM aborts,
// re-dirties (shadow faults after promotion) and shadow frees, which is
// exactly the evidence needed for the paper's two pathologies:
//
//  - ping-pong (§3.1): a page demoted while it still sits in the fast tier
//    because a promotion put it there — promote/demote cycles that TPP pays
//    full copy cost for and NOMAD's shadow remap is designed to absorb;
//  - re-dirty rate: the fraction of promotions whose shadow copy was
//    invalidated by a later store, i.e. how often transactional copies run
//    into the dirty-abort path.
//
// The ledger is bounded: the first max_pages distinct pages get records,
// later pages count into dropped() (migration traffic is heavily skewed, so
// the hot set lands in the ledger long before the bound bites). Mutators
// are called per migration event, never per access, and record nothing
// while the ledger is disabled; its hash table is sized on the first
// record, so a disabled ledger allocates nothing either.
#ifndef SRC_OBS_PROVENANCE_H_
#define SRC_OBS_PROVENANCE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/base/annotations.h"
#include "src/sim/clock.h"

namespace nomad {

struct PageProvenance {
  uint32_t promotions = 0;
  uint32_t demotions = 0;
  uint32_t aborts = 0;        // TPM dirty-aborts while this page migrated
  uint32_t redirties = 0;     // shadow faults after a promotion
  uint32_t shadow_frees = 0;  // shadow copies reclaimed or discarded
  uint32_t ping_pongs = 0;    // demotions that undid a live promotion
  // Admission-control verdicts this page drew from the migration control
  // plane (src/nomad/admission.h): deferred for bandwidth, rejected under
  // backlog, or downgraded to sync migration by the abort-storm detector.
  uint32_t admit_defers = 0;
  uint32_t admit_rejects = 0;
  uint32_t admit_downgrades = 0;
  Cycles first_event = 0;
  Cycles last_event = 0;
  // True between a promotion and the next demotion: the page occupies the
  // fast tier because we put it there.
  bool promoted_live = false;
};

class NOMAD_SHARD_CONFINED ProvenanceLedger {
 public:
  static constexpr size_t kDefaultMaxPages = size_t{1} << 16;

  explicit ProvenanceLedger(size_t max_pages = kDefaultMaxPages) : max_pages_(max_pages) {}

  // Runtime switch; starts enabled.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void OnPromote(uint64_t vpn, Cycles now) {
    PageProvenance* rec = Touch(vpn, now);
    if (rec != nullptr) {
      rec->promotions++;
      rec->promoted_live = true;
      promotions_++;
    }
  }

  void OnDemote(uint64_t vpn, Cycles now) {
    PageProvenance* rec = Touch(vpn, now);
    if (rec != nullptr) {
      rec->demotions++;
      demotions_++;
      if (rec->promoted_live) {
        rec->ping_pongs++;
        ping_pong_events_++;
        rec->promoted_live = false;
      }
    }
  }

  void OnAbort(uint64_t vpn, Cycles now) {
    PageProvenance* rec = Touch(vpn, now);
    if (rec != nullptr) {
      rec->aborts++;
      aborts_++;
    }
  }

  void OnRedirty(uint64_t vpn, Cycles now) {
    PageProvenance* rec = Touch(vpn, now);
    if (rec != nullptr) {
      rec->redirties++;
      redirty_events_++;
    }
  }

  void OnAdmitDefer(uint64_t vpn, Cycles now) {
    PageProvenance* rec = Touch(vpn, now);
    if (rec != nullptr) {
      rec->admit_defers++;
      admit_defers_++;
    }
  }

  void OnAdmitReject(uint64_t vpn, Cycles now) {
    PageProvenance* rec = Touch(vpn, now);
    if (rec != nullptr) {
      rec->admit_rejects++;
      admit_rejects_++;
    }
  }

  void OnAdmitDowngrade(uint64_t vpn, Cycles now) {
    PageProvenance* rec = Touch(vpn, now);
    if (rec != nullptr) {
      rec->admit_downgrades++;
      admit_downgrades_++;
    }
  }

  void OnShadowFree(uint64_t vpn, Cycles now) {
    PageProvenance* rec = Touch(vpn, now);
    if (rec != nullptr) {
      rec->shadow_frees++;
      shadow_frees_++;
    }
  }

  // --- aggregates (over tracked pages only) ------------------------------
  size_t tracked() const { return pages_.size(); }
  uint64_t dropped() const { return dropped_; }
  uint64_t promotions() const { return promotions_; }
  uint64_t demotions() const { return demotions_; }
  uint64_t aborts() const { return aborts_; }
  uint64_t redirty_events() const { return redirty_events_; }
  uint64_t ping_pong_events() const { return ping_pong_events_; }
  uint64_t shadow_frees() const { return shadow_frees_; }
  uint64_t admit_defers() const { return admit_defers_; }
  uint64_t admit_rejects() const { return admit_rejects_; }
  uint64_t admit_downgrades() const { return admit_downgrades_; }

  // Pages with at least one ping-pong.
  uint64_t ping_pong_pages() const;

  // Re-dirties per promotion: how often a transactional copy was
  // invalidated by a store before it could pay off.
  double RedirtyRate() const {
    return promotions_ == 0
               ? 0.0
               : static_cast<double>(redirty_events_) / static_cast<double>(promotions_);
  }

  struct Thrasher {
    uint64_t vpn = 0;
    uint64_t score = 0;  // 2*ping_pongs + redirties + aborts
    PageProvenance rec;
  };

  // The n highest-scoring pages, score descending, vpn ascending on ties
  // (deterministic for the byte-compare gate). Pages scoring 0 are omitted.
  std::vector<Thrasher> TopThrashers(size_t n) const;

  const std::unordered_map<uint64_t, PageProvenance>& pages() const { return pages_; }

  void Reset();

 private:
  // Record for vpn, creating it if the bound allows; nullptr when dropped
  // or disabled.
  PageProvenance* Touch(uint64_t vpn, Cycles now);

  bool enabled_ = true;
  size_t max_pages_;
  // Hash-keyed: Touch runs once per migration event, and a red-black tree
  // walk over 64k nodes was ~11% of a tpp run's wall clock. Nothing
  // iterates this map for output — TopThrashers sorts with a vpn tie-break
  // and the scalar totals are order-independent sums — so bucket order
  // never leaks into exported bytes.
  std::unordered_map<uint64_t, PageProvenance> pages_;
  uint64_t dropped_ = 0;
  uint64_t promotions_ = 0;
  uint64_t demotions_ = 0;
  uint64_t aborts_ = 0;
  uint64_t redirty_events_ = 0;
  uint64_t ping_pong_events_ = 0;
  uint64_t shadow_frees_ = 0;
  uint64_t admit_defers_ = 0;
  uint64_t admit_rejects_ = 0;
  uint64_t admit_downgrades_ = 0;
};

}  // namespace nomad

#endif  // SRC_OBS_PROVENANCE_H_
