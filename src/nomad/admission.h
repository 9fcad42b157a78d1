// Migration admission control: the overload-resilience control plane.
//
// Under pressure (Fig. 13/14 regimes) NOMAD's migration machinery can make
// things worse: every admitted promotion costs two shootdowns and a page
// copy of migration bandwidth, abort storms burn copies without retiring
// them, and the pending queue grows without bound while kpromote falls
// behind. The AdmissionController turns that unbounded behavior into
// bounded backpressure, in the style of TierBPF's migration admission
// control (PAPERS.md): every would-be migration asks for a verdict first.
//
//  - kAccept: a token-bucket bandwidth budget (integer cycles, refilled by
//    virtual time) has capacity; the migration proceeds and consumes it.
//  - kDefer: the budget is exhausted. The page is parked in the PCQ's
//    deferred queue until a token accrues — backpressure, not growth.
//  - kReject: the pending backlog is over its cap; the page loses its
//    candidacy entirely and must be re-nominated once load eases.
//  - kDowngradeSync: the per-page abort-storm detector (fed by the 8-bit
//    TPM abort count in the frame flags word) says this page keeps aborting
//    transactional migration; migrate it synchronously instead, and
//    re-admit it to TPM after a decay interval.
//
// Promotion and demotion draw from separate per-source credit buckets so a
// demotion burst cannot starve promotions of budget (and vice versa);
// watermark-urgent demotions bypass admission entirely — reclaim under
// pressure must never deadlock behind a throttle.
//
// Every verdict is counted (admission.* counters), traced
// (kAdmissionVerdict) and recorded per page in the provenance ledger. The
// controller is pure shard-local state driven by the shard's own virtual
// clock: sharded runs stay byte-identical across worker-thread counts.
#ifndef SRC_NOMAD_ADMISSION_H_
#define SRC_NOMAD_ADMISSION_H_

#include <cstdint>
#include <unordered_map>

#include "src/base/annotations.h"
#include "src/mm/memory_system.h"

namespace nomad {

// Verdict lattice, ordered by how much work the page is allowed to cause.
// Values are stable: they appear in kAdmissionVerdict trace records.
enum class AdmissionVerdict : uint8_t {
  kAccept = 0,         // migrate now, transactionally
  kDowngradeSync = 1,  // migrate now, but synchronously (abort storm)
  kDefer = 2,          // park until bandwidth budget accrues
  kReject = 3,         // drop candidacy; re-nominate later
};

// The requesting source, the second dimension of the verdict lattice.
// Values appear in kAdmissionVerdict trace records (value >> 8).
enum class AdmissionSource : uint8_t {
  kPromotion = 0,
  kDemotion = 1,
};

class NOMAD_SHARD_CONFINED AdmissionController {
 public:
  struct Config {
    // Promotion token bucket: sustained rate of one page per
    // promote_cycles_per_page virtual cycles, bursting up to
    // promote_burst_pages. A 4 KB copy at ~20 GB/s of spare bandwidth is
    // ~2000 cycles; the default budgets a few times that per page to also
    // cover the two shootdowns.
    Cycles promote_cycles_per_page = 20000;
    uint64_t promote_burst_pages = 16;
    // Demotion credits (non-urgent, watermark-healthy demotions only).
    Cycles demote_cycles_per_page = 8000;
    uint64_t demote_burst_pages = 32;
    // Backlog cap: pending + deferred promotions above this are rejected
    // outright instead of queued — the bound on pending-queue growth.
    uint64_t max_pending_backlog = 192;
    // Abort-storm detector: a page whose frame TPM abort count reaches the
    // threshold is downgraded to sync migration; after downgrade_decay
    // cycles its abort count resets and TPM admission resumes.
    uint32_t downgrade_abort_threshold = 3;
    Cycles downgrade_decay = 1500000;
  };

  struct Stats {
    uint64_t accepts = 0;
    uint64_t defers = 0;
    uint64_t rejects = 0;
    uint64_t downgrades = 0;   // abort-storm sync downgrades
    uint64_t readmits = 0;     // downgraded pages re-admitted on decay
    uint64_t demote_accepts = 0;
    uint64_t demote_defers = 0;
  };

  AdmissionController(MemorySystem* ms, const Config& config)
      : ms_(ms), config_(config) {}

  // Verdict for promoting (pfn, vpn) given the current promotion backlog
  // (pending + deferred entries). On kDefer, *retry_at is set to the
  // virtual time at which a token will have accrued.
  AdmissionVerdict AdmitPromotion(Pfn pfn, Vpn vpn, uint64_t backlog, Cycles* retry_at);

  // Non-urgent demotion credit check. Urgent (below-low-watermark) reclaim
  // must not consult admission at all — see NomadPolicy::DemotePage.
  bool AdmitDemotion();

  // True when ScanPcq should stop feeding the pending queue: the backlog
  // has reached its cap. Counted once per throttled scan pass by the
  // caller, not here.
  bool PcqFeedThrottled(uint64_t backlog) const {
    return backlog >= config_.max_pending_backlog;
  }

  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  // Pages currently downgraded to sync migration (abort-storm detector).
  size_t downgraded_pages() const { return downgraded_.size(); }

 private:
  // Integer token bucket over virtual time: `available` cycles of budget,
  // capped at capacity, spent cycles_per_page at a time.
  struct Bucket {
    Cycles available = 0;
    Cycles last_refill = 0;
    bool primed = false;  // first use fills the bucket to capacity
  };

  void Refill(Bucket& b, Cycles capacity);
  void RecordVerdict(AdmissionVerdict v, AdmissionSource src, Vpn vpn);

  MemorySystem* ms_;
  Config config_;
  Stats stats_;
  Bucket promote_bucket_;
  Bucket demote_bucket_;
  // pfn -> decay deadline for pages the abort-storm detector downgraded.
  // Only thrashing pages ever enter; erased on decay, so it stays small.
  std::unordered_map<Pfn, Cycles> downgraded_;
};

}  // namespace nomad

#endif  // SRC_NOMAD_ADMISSION_H_
