// kpromote: the background thread that runs transactional page migrations.
//
// Implements the TPM protocol of Fig. 3 as a two-phase state machine over
// engine steps:
//
//  Begin (one step, duration = the page copy); the page stays mapped and
//  accessible throughout:
//    1. clear the PTE dirty bit
//    2. TLB shootdown #1
//    3. copy slow -> fast
//
//  Commit (next step, a few microseconds):
//    4. atomic get_and_clear of the PTE  (page briefly inaccessible)
//    5. TLB shootdown #2
//    6. dirty check
//    7. clean  -> remap to the fast copy; old frame becomes the shadow
//    8. dirty  -> abort: restore the PTE, free the copy, retry later
//
// Because application actors interleave with the copy step, a store during
// the copy sets the PTE dirty bit and aborts the transaction - exactly the
// paper's abort condition. Multi-mapped pages fall back to synchronous
// migration (sec. 3.3).
#ifndef SRC_NOMAD_KPROMOTE_H_
#define SRC_NOMAD_KPROMOTE_H_

#include <functional>
#include <optional>

#include "src/base/annotations.h"
#include "src/mm/memory_system.h"
#include "src/nomad/pcq.h"
#include "src/nomad/shadow.h"
#include "src/nomad/tpm_protocol.h"

namespace nomad {

class AdmissionController;

class NOMAD_SHARD_CONFINED KpromoteActor : public Actor {
 public:
  // Re-check period when the queues are empty; kpromote examines a PCQ
  // batch at most once per period.
  static constexpr Cycles kIdlePoll = 25000;

  struct Config {
    size_t pcq_scan_batch = 64;   // PCQ entries examined per pass
    // Ablation switches (benches only; both true = full NOMAD):
    bool transactional = true;    // false: kpromote migrates synchronously
    bool shadowing = true;        // false: exclusive tiering (free the old frame)

    // --- graceful degradation ---
    // A page whose transaction aborts is retried with exponential backoff
    // (base << (aborts-1)) and dropped after max_txn_retries consecutive
    // aborts; the candidacy machinery may re-nominate it later.
    uint32_t max_txn_retries = 4;
    Cycles abort_backoff_base = 50000;
    // Abort storm: >= storm_abort_threshold aborts inside one storm_window
    // switches kpromote to plain synchronous migration (no copy-while-
    // mapped race, so no aborts) for sync_degrade_duration cycles.
    uint64_t storm_abort_threshold = 8;
    Cycles storm_window = 500000;
    Cycles sync_degrade_duration = 2000000;
  };

  struct Stats {
    uint64_t commits = 0;
    uint64_t aborts = 0;
    uint64_t sync_fallbacks = 0;  // multi-mapped pages
    uint64_t nomem_waits = 0;
    // --- graceful degradation ---
    uint64_t backoffs = 0;             // aborted pages parked for retry
    uint64_t giveups = 0;              // pages dropped after max_txn_retries
    uint64_t sync_degrades = 0;        // times the abort storm tripped
    uint64_t degraded_migrations = 0;  // migrations done in degraded mode
  };

  KpromoteActor(MemorySystem* ms, PromotionQueues* queues, ShadowManager* shadows)
      : KpromoteActor(ms, queues, shadows, Config{}) {}
  KpromoteActor(MemorySystem* ms, PromotionQueues* queues, ShadowManager* shadows,
                const Config& config)
      : ms_(ms), queues_(queues), shadows_(shadows), config_(config) {}

  void set_actor_id(ActorId id) { actor_id_ = id; }
  ActorId actor_id() const { return actor_id_; }
  void set_kswapd_fast_id(ActorId id) { kswapd_fast_id_ = id; }
  // Optional promotion gate (thrash governor): when it returns false, no
  // new transactions start; an in-flight one still commits or aborts.
  void set_enabled_fn(std::function<bool()> fn) { enabled_ = std::move(fn); }
  // Optional migration control plane: every popped pending page asks for an
  // admission verdict before any bandwidth is committed (not owned).
  void set_admission(AdmissionController* a) { admission_ = a; }

  Cycles Step(Engine& engine) override;
  std::string name() const override { return "kpromote"; }

  const Stats& stats() const { return stats_; }
  // True while the abort storm has kpromote migrating synchronously.
  bool degraded() const { return degraded_until_ != 0; }

 private:
  struct Txn {
    AddressSpace* as = nullptr;
    Vpn vpn = kInvalidVpn;
    Pfn old_pfn = kInvalidPfn;
    uint32_t old_gen = 0;
    Pfn new_pfn = kInvalidPfn;
    bool was_writable = false;
    // Observability timestamps: transaction start (matches the kTpmBegin
    // trace record) and when the page entered the pending queue, i.e. was
    // first deemed hot. Feed hist::kMigrationLatency / kHotToPromoted.
    Cycles begin_time = 0;
    Cycles pending_since = 0;
    // Migration transaction id (PromotionQueues::popped_id()); stamps the
    // mig_* span records so trace_query --span can stitch the lifecycle.
    uint64_t id = 0;
  };

  // Binds tpm::Hw to the simulated MemorySystem: each protocol step
  // mutates the real PTE/frame state and accumulates its kernel cost.
  class ProtocolHw;

  Cycles BeginNext(Engine& engine);
  Cycles Commit(Engine& engine);
  void AbortCleanup(bool requeue);
  void NoteAbortForStorm();

  MemorySystem* ms_;
  PromotionQueues* queues_;
  ShadowManager* shadows_;
  Config config_;
  ActorId actor_id_ = 0;
  ActorId kswapd_fast_id_ = ~ActorId{0};
  std::optional<Txn> txn_;
  // The protocol machine for the in-flight transaction; Begin leaves it
  // parked at kFinishCopy, Commit drives it to kDone. Lives and dies with
  // txn_.
  std::optional<tpm::Transaction> machine_;
  Stats stats_;
  Cycles last_scan_ = 0;
  std::function<bool()> enabled_;
  AdmissionController* admission_ = nullptr;

  // Abort-storm tracking: aborts land in a coarse sliding window; tripping
  // the threshold sets degraded_until_ (0 = not degraded).
  Cycles storm_window_start_ = 0;
  uint64_t storm_aborts_ = 0;
  Cycles degraded_until_ = 0;
};

}  // namespace nomad

#endif  // SRC_NOMAD_KPROMOTE_H_
