// The TPM protocol state machine, extracted behind a hardware seam.
//
// This is the transition code of Fig. 3 — copy while mapped, recheck the
// dirty bit, two TLB shootdowns, commit-or-abort — expressed over the
// minimal hardware/OS surface (tpm::Hw) it actually needs. Two drivers run
// the *same* machine:
//
//   - KpromoteActor (kpromote.cc) binds Hw to the simulated MemorySystem
//     and charges kernel costs per step;
//   - tools/tpm_modelcheck binds Hw to an abstract page model and
//     exhaustively interleaves application accesses between steps, proving
//     (up to a bound) that no schedule loses an update, that a mid-copy
//     store always aborts, and that a shadow is only ever retained clean.
//
// Keeping the decision logic (when to abort, when to retain the shadow)
// here and nowhere else is what makes the model checker's verdict apply to
// the code that actually runs.
//
// The synchronous unmap-copy-remap machine of migrate.cc (the Linux path
// TPM replaces, still used for multi-mapped pages and degraded mode) lives
// here too, behind the narrower tpm::SyncHw seam.
#ifndef SRC_NOMAD_TPM_PROTOCOL_H_
#define SRC_NOMAD_TPM_PROTOCOL_H_

#include <cstdint>

namespace nomad {
namespace tpm {

// The hardware/OS operations the transactional protocol is built from.
// Implementations accumulate their own costs/state; the machine only
// sequences them and takes the abort decision.
class Hw {
 public:
  virtual ~Hw() = default;

  // Step 1: clear the PTE dirty bit. The page stays mapped and writable;
  // any store from here on must re-set the bit (after the shootdown below
  // forces a re-walk) and thereby invalidate the transaction.
  virtual void ClearDirty() = 0;

  // Step 2: TLB shootdown #1. Flushes cached translations that still carry
  // a pre-clear dirty state; without it a remote CPU could keep writing
  // through its stale entry without ever re-setting the PTE dirty bit.
  virtual void ShootdownAfterClear() = 0;

  // Step 3: start copying the page to the destination frame while it
  // remains mapped and accessible. Stores may race the copy; the dirty bit
  // records that they happened.
  virtual void StartCopy() = 0;

  // The copy finished. (The simulator charges the duration at StartCopy
  // and keeps the actor busy; the model checker uses the gap between the
  // two steps as the mid-copy interleaving window.)
  virtual void FinishCopy() = 0;

  // Steps 4-5: atomic get_and_clear of the PTE plus TLB shootdown #2. From
  // here until the remap completes the page sits in a migration window, so
  // no new store can slip between the validity check and the remap. The
  // shootdown also guarantees post-commit stores re-walk and see the new
  // mapping instead of writing the stale (shadow) frame.
  virtual void ShootdownBeforeCheck() = 0;

  // Step 6: the transaction validity test — was the page dirtied since
  // step 1? Must not clear the bit: an aborted transaction leaves the PTE
  // exactly as the writer left it.
  virtual bool ReadDirty() = 0;

  // Step 7 (clean): remap the VPN to the copy. With retain_shadow the old
  // frame is kept as the page's shadow and the new mapping is
  // write-protected (shadow_rw) so the first store faults and discards the
  // shadow; otherwise the old frame is freed (exclusive tiering).
  virtual void CommitRemap(bool retain_shadow) = 0;

  // Step 8 (dirty): abort. Free the copy, leave the original mapping —
  // including its dirty bit — untouched.
  virtual void Abort() = 0;
};

enum class Outcome : uint8_t { kPending, kCommitted, kAborted };

// One transactional page migration, advanced one hardware step at a time.
class Transaction {
 public:
  enum class Step : uint8_t {
    kClearDirty = 0,
    kShootdown1,
    kStartCopy,
    kFinishCopy,
    kShootdown2,
    kCheckDirty,
    kResolve,
    kDone,
  };

  explicit Transaction(bool shadowing) : shadowing_(shadowing) {}

  // Executes the next protocol step against hw and returns the step that
  // ran (kDone when already finished). kCheckDirty samples the dirty bit;
  // kResolve acts on the sample — dirty -> Abort(), clean ->
  // CommitRemap(shadowing). They are distinct steps because in the real
  // protocol nothing but the unmap + both shootdowns keeps a store from
  // slipping between the test and the remap; the model checker exploits
  // exactly this window, so the machine must expose it.
  Step Advance(Hw& hw);

  // kpromote's two engine phases: Begin runs steps 1-3 (through
  // kStartCopy, leaving the copy in flight), Commit runs the rest.
  void Begin(Hw& hw);
  Outcome Commit(Hw& hw);

  Step next() const { return next_; }
  bool done() const { return next_ == Step::kDone; }
  Outcome outcome() const { return outcome_; }

 private:
  Step next_ = Step::kClearDirty;
  Outcome outcome_ = Outcome::kPending;
  bool dirty_at_check_ = false;
  bool shadowing_;
};

// --- synchronous migration (migrate.cc's 3-step procedure) --------------

// Hardware surface of the unmap-copy-remap path. The page is unreachable
// from Unmap() until Remap() completes, so no store can race the copy.
class SyncHw {
 public:
  virtual ~SyncHw() = default;
  virtual void Unmap() = 0;      // clear present, isolate from the LRU
  virtual void Shootdown() = 0;  // no stale translation may outlive unmap
  virtual void Copy() = 0;       // copy while unreachable
  virtual void Remap() = 0;      // map the destination, free the source
};

class SyncMigration {
 public:
  enum class Step : uint8_t { kUnmap = 0, kShootdown, kCopy, kRemap, kDone };

  // Executes the next step; the model checker interleaves accesses between
  // calls (they stall, because the page is unmapped).
  Step Advance(SyncHw& hw);

  // The whole procedure at once (the simulator's synchronous path).
  static void Run(SyncHw& hw);

  Step next() const { return next_; }
  bool done() const { return next_ == Step::kDone; }

 private:
  Step next_ = Step::kUnmap;
};

}  // namespace tpm
}  // namespace nomad

#endif  // SRC_NOMAD_TPM_PROTOCOL_H_
