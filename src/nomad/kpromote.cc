#include "src/nomad/kpromote.h"

#include <algorithm>

#include "src/mm/migrate.h"
#include "src/nomad/admission.h"
#include "src/obs/event_registry.h"

namespace nomad {

// The simulator-side binding of the TPM seam. Every protocol step mutates
// the real PTE/frame/LRU/shadow state through MemorySystem and charges the
// kernel cost the old inline code charged; the step *order* and the
// abort/shadow decisions come from tpm::Transaction, the same machine
// tools/tpm_modelcheck drives exhaustively.
class KpromoteActor::ProtocolHw : public tpm::Hw {
 public:
  ProtocolHw(KpromoteActor& k, Txn& t, Pte& pte) : k_(k), t_(t), pte_(pte) {}

  void ClearDirty() override {
    pte_.dirty = false;
    spent_ += costs().pte_update;
    k_.ms_->prof().Charge(costs().pte_update);
  }

  void ShootdownAfterClear() override {
    const Cycles c = k_.ms_->TlbShootdown(*t_.as, t_.vpn);
    k_.ms_->prof().ChargeLeaf(ProfNode::kTpmShootdown1, c);
    spent_ += c;
  }

  void StartCopy() override {
    const Cycles c = k_.ms_->CopyPageCost(Tier::kSlow, Tier::kFast);
    k_.ms_->prof().ChargeLeaf(ProfNode::kTpmCopy, c);
    spent_ += c;
  }

  // The engine models the copy by keeping kpromote busy for its duration
  // (charged at StartCopy); completion needs no further work here.
  void FinishCopy() override {}

  void ShootdownBeforeCheck() override {
    // The atomic get_and_clear (pte_update) plus shootdown #2.
    spent_ += costs().pte_update;
    k_.ms_->prof().Charge(costs().pte_update);
    const Cycles c = k_.ms_->TlbShootdown(*t_.as, t_.vpn);
    k_.ms_->prof().ChargeLeaf(ProfNode::kTpmShootdown2, c);
    spent_ += c;
  }

  bool ReadDirty() override {
    // Injected mid-copy store: as if a writer raced the copy and dirtied
    // the page just before the atomic get_and_clear. Only writable pages
    // can be dirtied.
    if (!pte_.dirty && t_.was_writable && k_.ms_->faults() != nullptr &&
        k_.ms_->faults()->ShouldInject(FaultKind::kDirtyWrite)) {
      pte_.dirty = true;
      k_.ms_->counters().Add(cnt::kFaultInjDirtyWrite, 1);
    }
    return pte_.dirty;
  }

  void CommitRemap(bool retain_shadow) override {
    MemorySystem& ms = *k_.ms_;
    PageFrame old_frame = ms.pool().frame(t_.old_pfn);
    PageFrame new_frame = ms.pool().frame(t_.new_pfn);
    new_frame.set_owner(t_.as);
    new_frame.set_vpn(t_.vpn);
    new_frame.set_referenced(true);
    new_frame.set_active(true);
    new_frame.set_promoted(true);

    pte_.pfn = t_.new_pfn;
    pte_.present = true;
    pte_.writable = false;
    pte_.shadow_rw = t_.was_writable;
    pte_.dirty = false;
    pte_.accessed = true;
    spent_ += costs().pte_update;
    ms.prof().ChargeLeaf(ProfNode::kTpmCommitRemap, costs().pte_update);

    // The retry histogram books the aborts this page ate on its way to an
    // eventual commit; the counter resets below so the next transaction on
    // this frame starts clean.
    ms.hists().Record(hist::kTpmRetries, old_frame.tpm_aborts());

    ms.lru(Tier::kSlow).Remove(t_.old_pfn);
    old_frame.set_owner(nullptr);
    old_frame.set_in_pending(false);
    old_frame.set_in_pcq(false);
    old_frame.set_migrating(false);
    old_frame.set_tpm_aborts(0);
    ms.lru(Tier::kFast).AddActive(t_.new_pfn);
    if (retain_shadow) {
      k_.shadows_->AddShadow(t_.new_pfn, t_.old_pfn, t_.id);
    } else {
      // Ablation: exclusive tiering - drop the source copy instead.
      pte_.writable = t_.was_writable;
      pte_.shadow_rw = false;
      ms.pool().Free(t_.old_pfn);
    }
    ms.llc().InvalidatePage(t_.old_pfn);

    // The page is unreachable only for this short remap step.
    ms.BeginMigrationWindow(*t_.as, t_.vpn, ms.Now() + spent_);

    k_.stats_.commits++;
    ms.counters().Add(cnt::kNomadTpmCommit, 1);
    ms.Trace(TraceEvent::kTpmCommit, t_.vpn, spent_);
    // End-to-end transaction latency (matches the kTpmBegin->kTpmCommit
    // trace pairing) and time from "deemed hot" to promoted.
    ms.hists().Record(hist::kMigrationLatency, ms.Now() - t_.begin_time);
    ms.hists().Record(hist::kHotToPromoted, ms.Now() - t_.pending_since);
    ms.provenance().OnPromote(t_.vpn, ms.Now());
    ms.TraceSpan(TraceEvent::kMigOutcome, static_cast<uint64_t>(MigOutcome::kCommit), t_.id);
    k_.txn_.reset();
  }

  void Abort() override {
    // Step 8: the page was written during the copy; the transaction is
    // invalid. Restore the original PTE (nothing else changed) and retry
    // later.
    k_.stats_.aborts++;
    k_.ms_->counters().Add(cnt::kNomadTpmAbort, 1);
    k_.ms_->TraceSpan(TraceEvent::kMigOutcome, static_cast<uint64_t>(MigOutcome::kAbort),
                      t_.id);
    k_.ms_->pool().frame(t_.old_pfn).bump_tpm_aborts();
    k_.NoteAbortForStorm();
    k_.AbortCleanup(/*requeue=*/true);
    spent_ += costs().pte_update;
    k_.ms_->prof().Charge(costs().pte_update);
  }

  Cycles spent() const { return spent_; }

 private:
  const KernelCosts& costs() const { return k_.ms_->platform().costs; }

  KpromoteActor& k_;
  Txn& t_;
  Pte& pte_;
  Cycles spent_ = 0;
};

Cycles KpromoteActor::Step(Engine& engine) {
  if (txn_) {
    return Commit(engine);
  }
  return BeginNext(engine);
}

Cycles KpromoteActor::BeginNext(Engine& engine) {
  const KernelCosts& costs = ms_->platform().costs;
  Cycles spent = 0;
  if (degraded_until_ != 0 && engine.now() >= degraded_until_) {
    // The abort storm cooled off; resume transactional migration.
    degraded_until_ = 0;
    storm_aborts_ = 0;
    ms_->Trace(TraceEvent::kSyncDegrade, 0);
  }
  if (enabled_ && !enabled_()) {
    engine.SleepUntil(engine.now() + kIdlePoll);
    return 0;
  }
  // Examine a PCQ batch at most once per kIdlePoll interval. kpromote is
  // the only examiner, so the candidate-expiry window is set by this
  // actor's pace, not by how often the application faults.
  if (engine.now() >= last_scan_ + kIdlePoll) {
    last_scan_ = engine.now();
    auto [moved, scan_cost] = queues_->ScanPcq(config_.pcq_scan_batch);
    (void)moved;
    ms_->prof().ChargeLeaf(ProfNode::kPcqWait, scan_cost);
    spent += scan_cost;
  }
  Pfn pfn = queues_->PopPending();
  if (pfn == kInvalidPfn) {
    // Sleep until the next poll — or earlier, if a backed-off retry
    // becomes due before that.
    Cycles wake = engine.now() + std::max<Cycles>(spent, 1) + kIdlePoll;
    wake = std::min(wake, std::max(queues_->NextDeferredReady(), engine.now() + 1));
    engine.SleepUntil(wake);
    return spent;
  }

  PageFrame f = ms_->pool().frame(pfn);
  AddressSpace& as = *f.owner();
  const Vpn vpn = f.vpn();
  const uint64_t mig_id = queues_->popped_id();
  ms_->TraceSpan(TraceEvent::kMigDequeue, vpn, mig_id);
  Pte* pte = ms_->PteOf(as, vpn);
  if (pte == nullptr || !pte->present || pte->pfn != pfn) {
    f.set_in_pending(false);
    ms_->TraceSpan(TraceEvent::kMigOutcome, static_cast<uint64_t>(MigOutcome::kVanish), mig_id);
    return spent + costs.lru_op;
  }

  // Migration control plane: ask for an admission verdict before any
  // bandwidth is committed to this page. Deferred pages park in the PCQ's
  // deferred queue (bounded backpressure); rejected pages lose their
  // candidacy; storm-downgraded pages fall through to the sync path below.
  bool admission_downgrade = false;
  if (admission_ != nullptr) {
    Cycles retry_at = 0;
    const uint64_t backlog = queues_->pending_size() + queues_->deferred_size();
    switch (admission_->AdmitPromotion(pfn, vpn, backlog, &retry_at)) {
      case AdmissionVerdict::kReject:
        f.set_in_pending(false);
        ms_->TraceSpan(TraceEvent::kMigOutcome, static_cast<uint64_t>(MigOutcome::kReject),
                       mig_id);
        return spent + costs.lru_op;
      case AdmissionVerdict::kDefer:
        queues_->DeferPending(pfn, retry_at, queues_->popped_hot_since(), mig_id);
        ms_->TraceSpan(TraceEvent::kMigDefer, retry_at, mig_id);
        return spent + costs.lru_op;
      case AdmissionVerdict::kDowngradeSync:
        admission_downgrade = true;
        break;
      case AdmissionVerdict::kAccept:
        break;
    }
  }

  // Multi-mapped pages would need simultaneous shootdowns per mapping;
  // NOMAD deactivates TPM for them and uses the default synchronous path
  // (sec. 3.3). The ablation switch forces this path for every page, an
  // abort storm forces it temporarily, and the admission controller forces
  // it per page (graceful degradation: the sync path unmaps before copying,
  // so concurrent stores cannot abort it).
  const bool storm_degraded = degraded_until_ != 0;
  if (f.multi_mapped() || !config_.transactional || storm_degraded || admission_downgrade) {
    f.set_in_pending(false);
    MigrateResult r = MigratePageWithRetry(*ms_, as, vpn, Tier::kFast);
    if ((storm_degraded || admission_downgrade) && !f.multi_mapped()) {
      stats_.degraded_migrations++;
      ms_->counters().Add(cnt::kNomadDegradedSyncMigration, 1);
      ms_->TraceSpan(TraceEvent::kMigOutcome,
                     static_cast<uint64_t>(MigOutcome::kDegradedSync), mig_id);
    } else {
      stats_.sync_fallbacks++;
      ms_->counters().Add(cnt::kNomadSyncFallback, 1);
      ms_->TraceSpan(TraceEvent::kMigOutcome,
                     static_cast<uint64_t>(MigOutcome::kSyncFallback), mig_id);
    }
    return spent + r.cycles;
  }

  // Reserve the destination before starting; promotion needs headroom,
  // which kswapd maintains by demoting in the background.
  FramePool& pool = ms_->pool();
  if (pool.FreeFrames(Tier::kFast) <= pool.LowWatermark(Tier::kFast)) {
    stats_.nomem_waits++;
    ms_->counters().Add(cnt::kNomadPromoteWaitNomem, 1);
    if (kswapd_fast_id_ != ~ActorId{0}) {
      engine.Wake(kswapd_fast_id_, engine.now() + costs.daemon_wakeup);
    }
    queues_->RequeuePending(pfn, queues_->popped_hot_since(), mig_id);
    engine.SleepUntil(engine.now() + std::max<Cycles>(spent, 1) + kIdlePoll);
    return spent;
  }
  const Pfn new_pfn = pool.AllocOn(Tier::kFast);
  if (new_pfn == kInvalidPfn) {
    stats_.nomem_waits++;
    queues_->RequeuePending(pfn, queues_->popped_hot_since(), mig_id);
    engine.SleepUntil(engine.now() + std::max<Cycles>(spent, 1) + kIdlePoll);
    return spent;
  }

  // --- TPM steps 1-3 (clear dirty, shootdown #1, copy while mapped),
  // driven through the protocol seam. ---
  f.set_migrating(true);
  txn_ = Txn{&as,     vpn,
             pfn,     f.generation(),
             new_pfn, pte->writable || pte->shadow_rw,
             /*begin_time=*/engine.now(), queues_->popped_hot_since(), mig_id};
  ms_->TraceSpan(TraceEvent::kMigAttempt, uint64_t{f.tpm_aborts()} + 1, mig_id);
  machine_.emplace(config_.shadowing);
  ProtocolHw hw(*this, *txn_, *pte);
  {
    ProfScope tpm_span(ms_->prof(), ProfNode::kTpm);
    machine_->Begin(hw);
  }
  spent += hw.spent();
  ms_->Trace(TraceEvent::kTpmBegin, vpn, spent);
  // Returning the copy duration keeps this actor busy for the whole copy;
  // application actors interleave and may dirty the page meanwhile.
  return spent;
}

void KpromoteActor::AbortCleanup(bool requeue) {
  Txn& t = *txn_;
  ms_->Trace(TraceEvent::kTpmAbort, t.vpn);
  ms_->provenance().OnAbort(t.vpn, ms_->Now());
  ms_->pool().Free(t.new_pfn);
  PageFrame f = ms_->pool().frame(t.old_pfn);
  if (f.generation() == t.old_gen) {
    f.set_migrating(false);
    if (!requeue) {
      f.set_in_pending(false);
      ms_->TraceSpan(TraceEvent::kMigOutcome, static_cast<uint64_t>(MigOutcome::kVanish),
                     t.id);
    } else if (f.tpm_aborts() >= config_.max_txn_retries) {
      // Bounded retry: a page that keeps getting written mid-copy is too
      // hot-and-dirty for TPM right now. Drop its candidacy; the PCQ aging
      // machinery can re-nominate it once it cools down.
      stats_.giveups++;
      ms_->counters().Add(cnt::kNomadTpmGiveup, 1);
      ms_->Trace(TraceEvent::kTpmGiveUp, t.vpn, f.tpm_aborts());
      ms_->TraceSpan(TraceEvent::kMigOutcome, static_cast<uint64_t>(MigOutcome::kGiveUp),
                     t.id);
      f.set_tpm_aborts(0);
      f.set_in_pending(false);
    } else {
      // Exponential backoff: each consecutive abort doubles the park time,
      // giving the writer a progressively wider window to go quiet.
      const Cycles delay = config_.abort_backoff_base
                           << (f.tpm_aborts() > 0 ? f.tpm_aborts() - 1 : 0);
      stats_.backoffs++;
      ms_->counters().Add(cnt::kNomadTpmBackoff, 1);
      ms_->Trace(TraceEvent::kTpmBackoff, t.vpn, delay);
      queues_->DeferPending(t.old_pfn, ms_->Now() + delay, t.pending_since, t.id);
      ms_->TraceSpan(TraceEvent::kMigDefer, ms_->Now() + delay, t.id);
    }
  } else {
    // The frame was freed and reused mid-flight: the migration's page is
    // gone, so its span ends here no matter what the caller asked for.
    ms_->TraceSpan(TraceEvent::kMigOutcome, static_cast<uint64_t>(MigOutcome::kVanish), t.id);
  }
  txn_.reset();
}

void KpromoteActor::NoteAbortForStorm() {
  const Cycles now = ms_->Now();
  if (now - storm_window_start_ > config_.storm_window) {
    storm_window_start_ = now;
    storm_aborts_ = 0;
  }
  storm_aborts_++;
  if (storm_aborts_ >= config_.storm_abort_threshold && degraded_until_ == 0) {
    degraded_until_ = now + config_.sync_degrade_duration;
    stats_.sync_degrades++;
    ms_->counters().Add(cnt::kNomadSyncDegrade, 1);
    ms_->Trace(TraceEvent::kSyncDegrade, 1, degraded_until_);
  }
}

Cycles KpromoteActor::Commit(Engine& /*engine*/) {
  const KernelCosts& costs = ms_->platform().costs;
  Txn t = *txn_;

  PageFrame old_frame = ms_->pool().frame(t.old_pfn);
  if (old_frame.generation() != t.old_gen || !old_frame.mapped()) {
    // The page vanished during the copy (unmapped by the workload).
    AbortCleanup(/*requeue=*/false);
    machine_.reset();
    ms_->prof().ChargeLeaf(ProfNode::kTpm, costs.pte_update);
    return costs.pte_update;
  }
  Pte* pte = ms_->PteOf(*t.as, t.vpn);
  if (pte == nullptr || !pte->present || pte->pfn != t.old_pfn) {
    AbortCleanup(/*requeue=*/false);
    machine_.reset();
    ms_->prof().ChargeLeaf(ProfNode::kTpm, costs.pte_update);
    return costs.pte_update;
  }

  // --- TPM steps 4-8, driven through the protocol seam: get_and_clear +
  // shootdown #2, the dirty recheck, then commit-remap (the old frame
  // lives on as the shadow) or abort. ---
  ProtocolHw hw(*this, t, *pte);
  {
    ProfScope tpm_span(ms_->prof(), ProfNode::kTpm);
    (void)machine_->Commit(hw);
  }
  machine_.reset();
  return hw.spent();
}

}  // namespace nomad
