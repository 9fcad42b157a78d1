#include "src/nomad/admission.h"

#include <algorithm>

#include "src/obs/event_registry.h"

namespace nomad {

void AdmissionController::Refill(Bucket& b, Cycles capacity) {
  const Cycles now = ms_->Now();
  if (!b.primed) {
    // Start full: a freshly installed controller must not stall the first
    // burst of a run, only sustained overload.
    b.available = capacity;
    b.last_refill = now;
    b.primed = true;
    return;
  }
  if (now > b.last_refill) {
    b.available = std::min(capacity, b.available + (now - b.last_refill));
    b.last_refill = now;
  }
}

void AdmissionController::RecordVerdict(AdmissionVerdict v, AdmissionSource src, Vpn vpn) {
  const Cycles now = ms_->Now();
  ms_->Trace(TraceEvent::kAdmissionVerdict, vpn,
             static_cast<uint64_t>(v) | (static_cast<uint64_t>(src) << 8));
  switch (v) {
    case AdmissionVerdict::kAccept:
      if (src == AdmissionSource::kDemotion) {
        stats_.demote_accepts++;
        ms_->counters().Add(cnt::kAdmissionDemoteAccept, 1);
      } else {
        stats_.accepts++;
        ms_->counters().Add(cnt::kAdmissionAccept, 1);
      }
      break;
    case AdmissionVerdict::kDowngradeSync:
      stats_.downgrades++;
      ms_->counters().Add(cnt::kAdmissionDowngradeSync, 1);
      ms_->provenance().OnAdmitDowngrade(vpn, now);
      break;
    case AdmissionVerdict::kDefer:
      if (src == AdmissionSource::kDemotion) {
        stats_.demote_defers++;
        ms_->counters().Add(cnt::kAdmissionDemoteDefer, 1);
      } else {
        stats_.defers++;
        ms_->counters().Add(cnt::kAdmissionDefer, 1);
        ms_->provenance().OnAdmitDefer(vpn, now);
      }
      break;
    case AdmissionVerdict::kReject:
      stats_.rejects++;
      ms_->counters().Add(cnt::kAdmissionReject, 1);
      ms_->provenance().OnAdmitReject(vpn, now);
      break;
  }
}

AdmissionVerdict AdmissionController::AdmitPromotion(Pfn pfn, Vpn vpn, uint64_t backlog,
                                                     Cycles* retry_at) {
  const Cycles now = ms_->Now();

  // Abort-storm detector first: the verdict for a thrashing page must not
  // depend on the bandwidth budget — a downgraded page migrated sync still
  // consumes a token below, it just stops burning copies on aborts.
  auto down = downgraded_.find(pfn);
  if (down != downgraded_.end()) {
    if (now >= down->second) {
      // Decayed: reset the frame's abort history and re-admit to TPM.
      downgraded_.erase(down);
      ms_->pool().frame(pfn).set_tpm_aborts(0);
      stats_.readmits++;
      ms_->counters().Add(cnt::kAdmissionReadmit, 1);
      down = downgraded_.end();
    }
  }
  const bool storming =
      down != downgraded_.end() ||
      ms_->pool().frame(pfn).tpm_aborts() >= config_.downgrade_abort_threshold;

  // Backlog cap: reject before consuming budget, so a rejected page leaves
  // the tokens for pages that will actually migrate.
  if (backlog > config_.max_pending_backlog) {
    RecordVerdict(AdmissionVerdict::kReject, AdmissionSource::kPromotion, vpn);
    return AdmissionVerdict::kReject;
  }

  Refill(promote_bucket_, config_.promote_cycles_per_page * config_.promote_burst_pages);
  if (promote_bucket_.available < config_.promote_cycles_per_page) {
    if (retry_at != nullptr) {
      *retry_at = now + (config_.promote_cycles_per_page - promote_bucket_.available);
    }
    RecordVerdict(AdmissionVerdict::kDefer, AdmissionSource::kPromotion, vpn);
    return AdmissionVerdict::kDefer;
  }
  promote_bucket_.available -= config_.promote_cycles_per_page;

  if (storming) {
    if (down == downgraded_.end()) {
      downgraded_.emplace(pfn, now + config_.downgrade_decay);
    }
    RecordVerdict(AdmissionVerdict::kDowngradeSync, AdmissionSource::kPromotion, vpn);
    return AdmissionVerdict::kDowngradeSync;
  }
  RecordVerdict(AdmissionVerdict::kAccept, AdmissionSource::kPromotion, vpn);
  return AdmissionVerdict::kAccept;
}

bool AdmissionController::AdmitDemotion() {
  Refill(demote_bucket_, config_.demote_cycles_per_page * config_.demote_burst_pages);
  if (demote_bucket_.available < config_.demote_cycles_per_page) {
    RecordVerdict(AdmissionVerdict::kDefer, AdmissionSource::kDemotion, 0);
    return false;
  }
  demote_bucket_.available -= config_.demote_cycles_per_page;
  RecordVerdict(AdmissionVerdict::kAccept, AdmissionSource::kDemotion, 0);
  return true;
}

}  // namespace nomad
