// Promotion candidate queue + migration pending queue (Fig. 4).
//
// TPM interfaces with Linux's memory tracing through two queues:
//  - PCQ holds pages that took one hint fault but are not yet proven hot.
//    On each later fault (and when kpromote idles) the front of the PCQ is
//    scanned; a candidate whose accessed bit was set *again* after being
//    examined once ("primed") is hot and moves on,
//  - the migration pending queue feeds kpromote's transactional
//    migrations.
// Because candidacy needs one fault and hotness is read from A-bits, a
// successful migration costs exactly one minor fault - versus up to 15 for
// TPP's pagevec-gated activation.
#ifndef SRC_NOMAD_PCQ_H_
#define SRC_NOMAD_PCQ_H_

#include <cstddef>
#include <deque>
#include <map>
#include <utility>

#include "src/base/annotations.h"
#include "src/mm/memory_system.h"

namespace nomad {

class AdmissionController;

class NOMAD_SHARD_CONFINED PromotionQueues {
 public:
  struct Config {
    // Large enough to hold every slow-tier page of a scaled working set:
    // a page nominated once stays a candidate without ever faulting again,
    // which is how NOMAD gets by with one fault per migrated page.
    size_t pcq_capacity = 131072;
  };

  explicit PromotionQueues(MemorySystem* ms) : PromotionQueues(ms, Config{}) {}
  PromotionQueues(MemorySystem* ms, const Config& config) : ms_(ms), config_(config) {}

  // Optional migration control plane (not owned): when set, ScanPcq stops
  // feeding the pending queue while the backlog is at its admission cap, so
  // overload shows up as bounded backpressure instead of queue growth.
  void set_admission(AdmissionController* a) { admission_ = a; }

  // Adds a freshly faulted slow-tier page to the PCQ. No-op when the page
  // is already queued, pending or migrating.
  void EnqueueCandidate(Pfn pfn);

  // Examines up to `limit` PCQ entries, moving hot ones to the pending
  // queue. Returns (pages moved, cycles spent).
  std::pair<size_t, Cycles> ScanPcq(size_t limit);

  // Pops the next valid pending page, or kInvalidPfn when drained. The
  // page's in_pending flag stays set; the migrator clears it on completion.
  Pfn PopPending();

  // When the page returned by the last successful PopPending() was deemed
  // hot (entered the pending queue). Feeds hist::kHotToPromoted.
  Cycles popped_hot_since() const { return popped_hot_since_; }

  // Migration transaction id of the last successful PopPending(). Assigned
  // at EnqueueCandidate and carried through every requeue/defer, it links
  // the mig_* span records of one migration's lifecycle.
  uint64_t popped_id() const { return popped_id_; }

  // Requeues an aborted transaction's page for a later retry. `hot_since`
  // carries the original pending-entry time across the retry (kNever: reuse
  // the current time); `mig_id` carries the migration id across it.
  void RequeuePending(Pfn pfn, Cycles hot_since = kNever, uint64_t mig_id = 0);

  // Parks an aborted page until virtual time `ready` (exponential-backoff
  // retries). The page keeps its in_pending flag; PopPending() surfaces it
  // once `ready` passes.
  void DeferPending(Pfn pfn, Cycles ready, Cycles hot_since = kNever, uint64_t mig_id = 0);

  // Earliest ready time among deferred pages, or kNever when none: lets
  // kpromote sleep exactly until a retry becomes due.
  Cycles NextDeferredReady() const {
    return deferred_.empty() ? kNever : deferred_.begin()->first;
  }

  size_t pcq_size() const { return pcq_.size(); }
  size_t pending_size() const { return pending_.size(); }
  size_t deferred_size() const { return deferred_.size(); }
  // High watermarks, for the metrics export.
  size_t pcq_hwm() const { return pcq_hwm_; }
  size_t pending_hwm() const { return pending_hwm_; }
  uint64_t overflow_count() const { return overflow_count_; }
  const Config& config() const { return config_; }

 private:
  // A queued page: identity (pfn + generation) plus the time it entered
  // this stage, which feeds the pcq.residence / promotion.hot_to_promoted
  // histograms. `since` survives requeues so the distribution reflects the
  // page's full wait, not the last retry's.
  struct Entry {
    Pfn pfn = kInvalidPfn;
    uint32_t gen = 0;
    Cycles since = 0;
    // Migration transaction id (1-based; 0 = pre-span entry). Survives
    // requeues and defers so one id spans the page's whole lifecycle.
    uint64_t id = 0;
  };

  bool ValidCandidate(Pfn pfn, uint32_t gen) const;
  void PromoteDueDeferred();

  MemorySystem* ms_;
  Config config_;
  AdmissionController* admission_ = nullptr;
  std::deque<Entry> pcq_;
  std::deque<Entry> pending_;
  // ready time -> entry, drained front-first by PopPending().
  std::multimap<Cycles, Entry> deferred_;
  Cycles popped_hot_since_ = 0;
  uint64_t popped_id_ = 0;
  uint64_t next_mig_id_ = 0;
  size_t pcq_hwm_ = 0;
  size_t pending_hwm_ = 0;
  uint64_t overflow_count_ = 0;
};

}  // namespace nomad

#endif  // SRC_NOMAD_PCQ_H_
