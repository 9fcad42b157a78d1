#include "src/nomad/pcq.h"

#include <algorithm>

#include "src/nomad/admission.h"
#include "src/obs/event_registry.h"

namespace nomad {

bool PromotionQueues::ValidCandidate(Pfn pfn, uint32_t gen) const {
  const PageFrame f = ms_->pool().frame(pfn);
  return f.generation() == gen && f.in_use() && f.mapped() && f.tier() == Tier::kSlow &&
         !f.migrating();
}

void PromotionQueues::EnqueueCandidate(Pfn pfn) {
  PageFrame f = ms_->pool().frame(pfn);
  if (f.in_pcq() || f.in_pending() || f.migrating()) {
    return;
  }
  bool overflow = pcq_.size() >= config_.pcq_capacity;
  // Queue-pressure fault: the PCQ behaves as if at capacity, evicting its
  // oldest candidate to admit this one.
  if (!overflow && !pcq_.empty() && ms_->faults() != nullptr &&
      ms_->faults()->ShouldInject(FaultKind::kPcqOverflow)) {
    overflow = true;
  }
  if (overflow) {
    // Overflow: forget the oldest candidate.
    const Entry old = pcq_.front();
    pcq_.pop_front();
    PageFrame of = ms_->pool().frame(old.pfn);
    if (of.generation() == old.gen) {
      of.set_in_pcq(false);
      of.set_pcq_primed(false);
    }
    ms_->counters().Add(cnt::kNomadPcqOverflow, 1);
    overflow_count_++;
    ms_->Trace(TraceEvent::kPcqOverflow, old.pfn, pcq_.size());
  }
  f.set_in_pcq(true);
  f.set_pcq_primed(false);
  const uint64_t mig_id = ++next_mig_id_;
  pcq_.push_back(Entry{pfn, f.generation(), ms_->Now(), mig_id});
  pcq_hwm_ = std::max(pcq_hwm_, pcq_.size());
  ms_->Trace(TraceEvent::kPcqEnqueue, pfn);
  ms_->TraceSpan(TraceEvent::kMigNominate, pfn, mig_id);
}

std::pair<size_t, Cycles> PromotionQueues::ScanPcq(size_t limit) {
  const KernelCosts& costs = ms_->platform().costs;
  size_t moved = 0;
  Cycles spent = 0;
  bool cleared_any_abit = false;
  bool throttled_this_pass = false;
  // Snapshot the queue length: entries primed and re-queued by this call
  // must not be re-examined until the application had time to touch them.
  const size_t examine = std::min(limit, pcq_.size());
  for (size_t i = 0; i < examine && !pcq_.empty(); i++) {
    const Entry e = pcq_.front();
    const Pfn pfn = e.pfn;
    const uint32_t gen = e.gen;
    pcq_.pop_front();
    spent += costs.lru_op;
    if (!ValidCandidate(pfn, gen)) {
      continue;  // dropped: page freed, promoted or mid-transaction
    }
    PageFrame f = ms_->pool().frame(pfn);
    Pte* pte = ms_->PteOf(*f.owner(), f.vpn());
    if (pte == nullptr || !pte->present) {
      f.set_in_pcq(false);
      f.set_pcq_primed(false);
      continue;
    }
    const bool hot = f.pcq_primed() && pte->accessed && (f.referenced() || f.active());
    if (hot) {
      if (admission_ != nullptr &&
          admission_->PcqFeedThrottled(pending_.size() + deferred_.size())) {
        // Admission backpressure: the pending backlog is at its cap. The
        // page stays in the PCQ, still primed, and moves on a later pass
        // once the backlog drains — instead of growing the queue.
        if (!throttled_this_pass) {
          throttled_this_pass = true;
          ms_->counters().Add(cnt::kAdmissionPcqThrottle, 1);
        }
        pcq_.push_back(Entry{pfn, f.generation(), e.since, e.id});
        continue;
      }
      f.set_in_pcq(false);
      f.set_pcq_primed(false);
      f.set_in_pending(true);
      ms_->hists().Record(hist::kPcqResidence, ms_->Now() - e.since);
      pending_.push_back(Entry{pfn, f.generation(), ms_->Now(), e.id});
      ms_->TraceSpan(TraceEvent::kMigHot, pfn, e.id);
      pending_hwm_ = std::max(pending_hwm_, pending_.size() + deferred_.size());
      moved++;
      continue;
    }
    if (f.pcq_primed()) {
      // Primed but untouched for a whole queue cycle: decay the candidacy
      // (two-hand-clock aging). The page stays in the PCQ - and crucially
      // stays unprotected, so it never faults again - but must now be
      // touched in two *consecutive* exam windows to qualify. Without this
      // decay, pages touched once per epoch (streaming data) eventually
      // collect two touches across arbitrary gaps and get promoted, which
      // floods the pending queue with pages that are not actually hot.
      f.set_pcq_primed(false);
      ms_->counters().Add(cnt::kNomadPcqDecay, 1);
      pcq_.push_back(Entry{pfn, f.generation(), e.since, e.id});
      continue;
    }
    if (!pte->accessed) {
      // Untouched and unprimed: just keep cycling. No PTE work needed.
      pcq_.push_back(Entry{pfn, f.generation(), e.since, e.id});
      continue;
    }
    // Touched since the last exam: clear the A-bit and prime, so the page
    // is promoted only if it is touched *again* within the next exam
    // window - i.e. in two consecutive windows, like Linux's two-handed
    // clock. Clearing A needs the stale translations gone.
    pte->accessed = false;
    spent += costs.pte_update;
    for (ActorId cpu : f.owner()->cpus()) {
      ms_->tlb(cpu).Invalidate(f.vpn());
    }
    if (!cleared_any_abit) {
      spent += costs.tlb_shootdown_base;  // one batched flush per scan round
      cleared_any_abit = true;
    }
    f.set_pcq_primed(true);
    pcq_.push_back(Entry{pfn, f.generation(), e.since, e.id});
  }
  if (examine > 0) {
    ms_->Trace(TraceEvent::kPcqDrain, examine, moved);
  }
  return {moved, spent};
}

void PromotionQueues::PromoteDueDeferred() {
  const Cycles now = ms_->Now();
  while (!deferred_.empty() && deferred_.begin()->first <= now) {
    pending_.push_back(deferred_.begin()->second);
    deferred_.erase(deferred_.begin());
  }
}

Pfn PromotionQueues::PopPending() {
  PromoteDueDeferred();
  while (!pending_.empty()) {
    const Entry e = pending_.front();
    pending_.pop_front();
    PageFrame f = ms_->pool().frame(e.pfn);
    if (f.generation() != e.gen || !f.in_pending()) {
      continue;
    }
    if (!f.in_use() || !f.mapped() || f.tier() != Tier::kSlow || f.migrating()) {
      f.set_in_pending(false);
      continue;
    }
    popped_hot_since_ = e.since;
    popped_id_ = e.id;
    return e.pfn;
  }
  return kInvalidPfn;
}

void PromotionQueues::RequeuePending(Pfn pfn, Cycles hot_since, uint64_t mig_id) {
  PageFrame f = ms_->pool().frame(pfn);
  f.set_in_pending(true);
  pending_.push_back(
      Entry{pfn, f.generation(), hot_since == kNever ? ms_->Now() : hot_since, mig_id});
  pending_hwm_ = std::max(pending_hwm_, pending_.size() + deferred_.size());
}

void PromotionQueues::DeferPending(Pfn pfn, Cycles ready, Cycles hot_since, uint64_t mig_id) {
  PageFrame f = ms_->pool().frame(pfn);
  f.set_in_pending(true);
  deferred_.emplace(
      ready, Entry{pfn, f.generation(), hot_since == kNever ? ms_->Now() : hot_since, mig_id});
  pending_hwm_ = std::max(pending_hwm_, pending_.size() + deferred_.size());
}

}  // namespace nomad
