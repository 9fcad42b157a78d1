#include "src/nomad/tpm_protocol.h"

namespace nomad {
namespace tpm {

Transaction::Step Transaction::Advance(Hw& hw) {
  const Step ran = next_;
  switch (next_) {
    case Step::kClearDirty:
      hw.ClearDirty();
      next_ = Step::kShootdown1;
      break;
    case Step::kShootdown1:
      hw.ShootdownAfterClear();
      next_ = Step::kStartCopy;
      break;
    case Step::kStartCopy:
      hw.StartCopy();
      next_ = Step::kFinishCopy;
      break;
    case Step::kFinishCopy:
      hw.FinishCopy();
      next_ = Step::kShootdown2;
      break;
    case Step::kShootdown2:
      hw.ShootdownBeforeCheck();
      next_ = Step::kCheckDirty;
      break;
    case Step::kCheckDirty:
      // The paper's validity test: a store anywhere in the copy window set
      // the dirty bit, so the copy may be torn. Clean means the copy is
      // byte-identical to the master, which is exactly the condition under
      // which the old frame may live on as a shadow.
      dirty_at_check_ = hw.ReadDirty();
      next_ = Step::kResolve;
      break;
    case Step::kResolve:
      if (dirty_at_check_) {
        hw.Abort();
        outcome_ = Outcome::kAborted;
      } else {
        hw.CommitRemap(shadowing_);
        outcome_ = Outcome::kCommitted;
      }
      next_ = Step::kDone;
      break;
    case Step::kDone:
      break;
  }
  return ran;
}

void Transaction::Begin(Hw& hw) {
  while (next_ != Step::kFinishCopy && next_ != Step::kDone) {
    Advance(hw);
  }
}

Outcome Transaction::Commit(Hw& hw) {
  while (next_ != Step::kDone) {
    Advance(hw);
  }
  return outcome_;
}

SyncMigration::Step SyncMigration::Advance(SyncHw& hw) {
  const Step ran = next_;
  switch (next_) {
    case Step::kUnmap:
      hw.Unmap();
      next_ = Step::kShootdown;
      break;
    case Step::kShootdown:
      hw.Shootdown();
      next_ = Step::kCopy;
      break;
    case Step::kCopy:
      hw.Copy();
      next_ = Step::kRemap;
      break;
    case Step::kRemap:
      hw.Remap();
      next_ = Step::kDone;
      break;
    case Step::kDone:
      break;
  }
  return ran;
}

void SyncMigration::Run(SyncHw& hw) {
  SyncMigration m;
  while (!m.done()) {
    m.Advance(hw);
  }
}

}  // namespace tpm
}  // namespace nomad
