// Central registry of every observable name the simulator emits.
//
// Four name spaces live here, and nowhere else:
//
//  1. Trace events: the NOMAD_TRACE_EVENT_LIST X-macro is the single source
//     of truth for the TraceEvent enum *and* the lower_snake_case strings
//     exporters and baseline files key on. Adding an event means adding one
//     X() line; the enum, the name table and the count stay in sync by
//     construction.
//
//  2. Counter names: the string keys fed to CounterSet::Add()/Get(). Call
//     sites in src/ must use these constants instead of string literals so
//     a typo ("nomad.tpm_comit") becomes a compile error instead of a
//     silently empty metrics series. nomad_lint rule NL004 enforces this.
//
//  3. Profiler span nodes: NOMAD_PROF_NODE_LIST defines the ProfNode enum
//     for the cycle-attribution profiler (src/obs/prof.h). Nesting is
//     dynamic (whatever Enter/Exit order the run produced); this list only
//     fixes the node identities and their exported names.
//
//  4. Histogram names: the keys fed to HistogramSet::Record()
//     (src/obs/hist.h). Same contract as counters — call sites use the
//     hist:: constants, and HistogramSet rejects unregistered names, so the
//     exported set of distributions is closed and typo-proof (NL004 again).
//
// The `arg` and `value` columns of a trace record are event-specific:
//
//   event            arg                     value
//   ---------------  ----------------------  ---------------------------
//   kTpmBegin        vpn being promoted      copy duration (cycles)
//   kTpmAbort        vpn                     0
//   kTpmCommit       vpn                     commit-step cycles
//   kPromote         vpn (sync migration)    migration cycles
//   kDemote          vpn                     migration cycles
//   kHintFault       vpn                     0
//   kShadowFault     vpn                     0
//   kShadowReclaim   shadows freed           reclaim cycles
//   kKswapdWake      tier index              free frames at wakeup
//   kPcqEnqueue      pfn                     0
//   kPcqDrain        entries examined        entries moved to pending
//   kScannerArm      scan cursor (pfn)       pages armed this round
//   kMigrationRound  promotions attempted    round cycles
//   kPcqOverflow     evicted pfn             queue depth at overflow
//   kFaultInject     fault kind (FaultKind)  opportunity index
//   kTpmBackoff      vpn                     backoff delay (cycles)
//   kTpmGiveUp       vpn                     aborts accumulated
//   kSyncDegrade     1=enter, 0=exit         abort streak / cycles in mode
//   kReclaimEscalate reclaim target          frames actually freed
//   kInvariantFail   violations found        0
//   kAdmissionVerdict vpn                    verdict | (source << 8)
//   kWatchdogStall   shard epoch             epochs without progress
//
// Migration-lifecycle span links (runtime-gated, see
// MemorySystem::set_span_tracing). Every mig_* record carries the
// migration's transaction id in `value`, so tools/trace_query --span can
// stitch the causal chain nominate -> hot -> dequeue -> attempt(s) ->
// outcome(s) -> shadow_free without guessing from PFNs:
//
//   kMigNominate     pfn entering the PCQ    migration id
//   kMigHot          pfn found hot           migration id
//   kMigDequeue      vpn at kpromote         migration id
//   kMigAttempt      attempt number (1-based) migration id
//   kMigOutcome      MigOutcome code         migration id
//   kMigDefer        retry-ready time        migration id
//   kMigShadowFree   master pfn              migration id
#ifndef SRC_OBS_EVENT_REGISTRY_H_
#define SRC_OBS_EVENT_REGISTRY_H_

#include <cstdint>

namespace nomad {

// X(enumerator-suffix, exported-name). Order is ABI: exporters, baselines
// and the metrics schema index events by enum value, so new events append.
#define NOMAD_TRACE_EVENT_LIST(X)      \
  X(TpmBegin, "tpm_begin")             \
  X(TpmAbort, "tpm_abort")             \
  X(TpmCommit, "tpm_commit")           \
  X(Promote, "promote")                \
  X(Demote, "demote")                  \
  X(HintFault, "hint_fault")           \
  X(ShadowFault, "shadow_fault")       \
  X(ShadowReclaim, "shadow_reclaim")   \
  X(KswapdWake, "kswapd_wake")         \
  X(PcqEnqueue, "pcq_enqueue")         \
  X(PcqDrain, "pcq_drain")             \
  X(ScannerArm, "scanner_arm")         \
  X(MigrationRound, "migration_round") \
  X(PcqOverflow, "pcq_overflow")       \
  X(FaultInject, "fault_inject")       \
  X(TpmBackoff, "tpm_backoff")         \
  X(TpmGiveUp, "tpm_give_up")          \
  X(SyncDegrade, "sync_degrade")       \
  X(ReclaimEscalate, "reclaim_escalate") \
  X(InvariantFail, "invariant_fail")     \
  X(AdmissionVerdict, "admission_verdict") \
  X(WatchdogStall, "watchdog_stall")       \
  X(MigNominate, "mig_nominate")           \
  X(MigHot, "mig_hot")                     \
  X(MigDequeue, "mig_dequeue")             \
  X(MigAttempt, "mig_attempt")             \
  X(MigOutcome, "mig_outcome")             \
  X(MigDefer, "mig_defer")                 \
  X(MigShadowFree, "mig_shadow_free")

// Every traced kernel mechanism (see the arg/value table above).
enum class TraceEvent : uint8_t {
#define NOMAD_EVENT_ENUM(name, str) k##name,
  NOMAD_TRACE_EVENT_LIST(NOMAD_EVENT_ENUM)
#undef NOMAD_EVENT_ENUM
      kNumEvents,
};

inline constexpr uint8_t kNumTraceEvents = static_cast<uint8_t>(TraceEvent::kNumEvents);

// Stable lower_snake_case name, used by exporters and by baseline files.
// Defined in trace.cc from the same X-macro list.
const char* TraceEventName(TraceEvent e);

// The `arg` of a kMigOutcome span record. kAbort is the only non-terminal
// code (an aborted attempt is followed by kMigDefer + another kMigAttempt,
// or by a terminal kGiveUp); every other code ends the migration's span.
enum class MigOutcome : uint8_t {
  kCommit = 0,        // TPM transaction committed; shadow retained
  kAbort = 1,         // attempt aborted (page redirtied mid-copy)
  kGiveUp = 2,        // retry budget exhausted; page stays on slow tier
  kSyncFallback = 3,  // multi-mapped page took the synchronous path
  kDegradedSync = 4,  // abort-storm / admission downgrade to sync migration
  kReject = 5,        // admission controller shed the migration
  kVanish = 6,        // mapping disappeared mid-transaction
  kNumOutcomes,
};

// Stable lower_snake_case name for one MigOutcome code (trace_query and
// timeline_report print these). Defined in trace.cc.
const char* MigOutcomeName(MigOutcome o);

// X(enumerator-suffix, exported-name). The static tree of subsystems the
// span profiler attributes simulated cycles to. Like trace events, order is
// ABI for the collapsed-stack path encoding, so new nodes append.
#define NOMAD_PROF_NODE_LIST(X)            \
  X(Tpm, "tpm")                            \
  X(TpmCopy, "tpm_copy")                   \
  X(TpmShootdown1, "tpm_shootdown_1")      \
  X(TpmShootdown2, "tpm_shootdown_2")      \
  X(TpmCommitRemap, "tpm_commit_remap")    \
  X(PcqWait, "pcq_wait")                   \
  X(LruScan, "lru_scan")                   \
  X(KswapdReclaim, "kswapd_reclaim")       \
  X(ShadowReclaim, "shadow_reclaim")       \
  X(HintFault, "hint_fault")               \
  X(PebsDrain, "pebs_drain")               \
  X(SyncMigrate, "sync_migrate")           \
  X(Governor, "governor")

// One subsystem scope in the profiler's span tree.
enum class ProfNode : uint8_t {
#define NOMAD_PROF_ENUM(name, str) k##name,
  NOMAD_PROF_NODE_LIST(NOMAD_PROF_ENUM)
#undef NOMAD_PROF_ENUM
      kNumNodes,
};

inline constexpr uint8_t kNumProfNodes = static_cast<uint8_t>(ProfNode::kNumNodes);

// Stable exported name for one profiler node. Defined in prof.cc from the
// same X-macro list.
const char* ProfNodeName(ProfNode n);

// X(constant-suffix, exported-name). Every latency/size distribution the
// simulator records. HistogramSet::Record() refuses names outside this list.
#define NOMAD_HIST_NAME_LIST(X)                      \
  X(MigrationLatency, "migration.latency")           \
  X(DemotionLatency, "demotion.latency")             \
  X(HotToPromoted, "promotion.hot_to_promoted")      \
  X(PcqResidence, "pcq.residence")                   \
  X(TpmRetries, "tpm.retries")

// Histogram keys (see table above). Units: cycles, except tpm.retries
// (abort count per eventually-committed transaction).
namespace hist {

#define NOMAD_HIST_CONST(name, str) inline constexpr const char k##name[] = str;
NOMAD_HIST_NAME_LIST(NOMAD_HIST_CONST)
#undef NOMAD_HIST_CONST

}  // namespace hist

// True when `name` is one of the NOMAD_HIST_NAME_LIST entries. Defined in
// hist.cc.
bool IsRegisteredHistogramName(const char* name);

// X(constant-suffix, exported-name). Gauge channels of the virtual-time
// telemetry timeline (src/obs/timeline.h). Call sites register these via
// the tl:: constants below — a literal at a Channel() call site is a lint
// finding (NL012) — so the set of columns a timeline CSV can carry is
// closed and typo-proof. Counter-delta and histogram-derived channels are
// not listed here: they are derived mechanically from the cnt:: / hist::
// registries with the "cnt." / "hist." prefixes.
#define NOMAD_TIMELINE_CHANNEL_LIST(X)                \
  X(FastFree, "tier.fast.free_frames")                \
  X(FastUsed, "tier.fast.used_frames")                \
  X(FastLowWatermark, "tier.fast.low_watermark")      \
  X(FastBelowLowWatermark, "tier.fast.below_low_wm")  \
  X(SlowFree, "tier.slow.free_frames")                \
  X(SlowUsed, "tier.slow.used_frames")                \
  X(PcqDepth, "pcq.depth")                            \
  X(PendingDepth, "pcq.pending")                      \
  X(DeferredDepth, "pcq.deferred")                    \
  X(ShadowPages, "shadow.pages")                      \
  X(KpromoteDegraded, "kpromote.degraded")            \
  X(TraceCapacity, "trace.capacity")                  \
  X(TraceEmittedDelta, "trace.emitted_delta")         \
  X(TraceDroppedDelta, "trace.dropped_delta")         \
  X(ShardOpsDone, "shard.ops_done")                   \
  X(ShardEpoch, "shard.epoch")

// Timeline gauge channel names. Units: frames for the tier.* channels,
// queue entries for pcq.*, pages for shadow.pages, 0/1 for
// kpromote.degraded and tier.fast.below_low_wm, trace records for the
// trace.* channels, workload ops / epochs for the shard.* pair.
namespace tl {

#define NOMAD_TL_CONST(name, str) inline constexpr const char k##name[] = str;
NOMAD_TIMELINE_CHANNEL_LIST(NOMAD_TL_CONST)
#undef NOMAD_TL_CONST

}  // namespace tl

// True when `name` is a NOMAD_TIMELINE_CHANNEL_LIST entry or carries one
// of the derived prefixes ("cnt." + registered counter shape, "hist." +
// registered histogram name + suffix). Defined in timeline.cc; Timeline
// aborts on unregistered channel names (same closed-set contract as
// counters and histograms).
bool IsRegisteredTimelineChannel(const char* name);

// Counter keys, grouped by emitting subsystem. The dotted prefix is the
// subsystem ("nomad.", "tpp.", ...); the metrics exporter preserves it so
// dashboards can group series.
namespace cnt {

// --- mm core: faults, migration, reclaim, TLB --------------------------
inline constexpr const char kFaultDemand[] = "fault.demand";
inline constexpr const char kFaultHint[] = "fault.hint";
inline constexpr const char kFaultWriteProtect[] = "fault.write_protect";
inline constexpr const char kFaultMigrationBlock[] = "fault.migration_block";
inline constexpr const char kFaultUnresolved[] = "fault.unresolved";
inline constexpr const char kOom[] = "oom";
inline constexpr const char kTlbShootdown[] = "tlb.shootdown";
inline constexpr const char kTlbShootdownIpis[] = "tlb.shootdown_ipis";
inline constexpr const char kKswapdCycles[] = "kswapd.cycles";
inline constexpr const char kMigrateSyncFailNomem[] = "migrate.sync_fail_nomem";
inline constexpr const char kMigrateSyncRetry[] = "migrate.sync_retry";
inline constexpr const char kMigrateSyncPromote[] = "migrate.sync_promote";
inline constexpr const char kMigrateSyncDemote[] = "migrate.sync_demote";

// --- NOMAD: TPM, PCQ, shadowing, degradation ---------------------------
inline constexpr const char kNomadTpmCommit[] = "nomad.tpm_commit";
inline constexpr const char kNomadTpmAbort[] = "nomad.tpm_abort";
inline constexpr const char kNomadTpmBackoff[] = "nomad.tpm_backoff";
inline constexpr const char kNomadTpmGiveup[] = "nomad.tpm_giveup";
inline constexpr const char kNomadSyncFallback[] = "nomad.sync_fallback";
inline constexpr const char kNomadSyncDegrade[] = "nomad.sync_degrade";
inline constexpr const char kNomadDegradedSyncMigration[] = "nomad.degraded_sync_migration";
inline constexpr const char kNomadPromoteWaitNomem[] = "nomad.promote_wait_nomem";
inline constexpr const char kNomadPcqDecay[] = "nomad.pcq_decay";
inline constexpr const char kNomadPcqOverflow[] = "nomad.pcq_overflow";
inline constexpr const char kNomadShadowFault[] = "nomad.shadow_fault";
inline constexpr const char kNomadShadowDiscard[] = "nomad.shadow_discard";
inline constexpr const char kNomadShadowReclaimed[] = "nomad.shadow_reclaimed";
inline constexpr const char kNomadDemoteCopy[] = "nomad.demote_copy";
inline constexpr const char kNomadDemoteRecent[] = "nomad.demote_recent";
inline constexpr const char kNomadDemoteRemap[] = "nomad.demote_remap";
inline constexpr const char kNomadAllocFailEscalate[] = "nomad.alloc_fail_escalate";
inline constexpr const char kNomadAllocFailReclaimMiss[] = "nomad.alloc_fail_reclaim_miss";

// --- competing policies ------------------------------------------------
inline constexpr const char kTppPromote[] = "tpp.promote";
inline constexpr const char kTppPromoteFail[] = "tpp.promote_fail";
inline constexpr const char kTppFaultNotActive[] = "tpp.fault_not_active";
inline constexpr const char kTppPromoteCycles[] = "tpp.promote_cycles";
inline constexpr const char kTppPromoteSkippedNomem[] = "tpp.promote_skipped_nomem";
inline constexpr const char kMemtisPromote[] = "memtis.promote";
inline constexpr const char kMemtisPromoteFail[] = "memtis.promote_fail";
inline constexpr const char kMemtisDemote[] = "memtis.demote";
inline constexpr const char kMemtisPromoteSkippedNomem[] = "memtis.promote_skipped_nomem";

// --- governor ----------------------------------------------------------
inline constexpr const char kGovernorThrottle[] = "governor.throttle";
inline constexpr const char kGovernorReopen[] = "governor.reopen";

// --- admission control (migration control plane) -----------------------
inline constexpr const char kAdmissionAccept[] = "admission.accept";
inline constexpr const char kAdmissionDefer[] = "admission.defer";
inline constexpr const char kAdmissionReject[] = "admission.reject";
inline constexpr const char kAdmissionDowngradeSync[] = "admission.downgrade_sync";
inline constexpr const char kAdmissionReadmit[] = "admission.readmit";
inline constexpr const char kAdmissionDemoteAccept[] = "admission.demote_accept";
inline constexpr const char kAdmissionDemoteDefer[] = "admission.demote_defer";
inline constexpr const char kAdmissionPcqThrottle[] = "admission.pcq_throttle";

// --- sharded-engine watchdog -------------------------------------------
inline constexpr const char kWatchdogStall[] = "watchdog.stall";

// --- fault injection ---------------------------------------------------
inline constexpr const char kFaultInjDirtyWrite[] = "fault.dirty_write";
inline constexpr const char kFaultInjLatencySpike[] = "fault.latency_spike";
inline constexpr const char kFaultInjTlbDelay[] = "fault.tlb_delay";
inline constexpr const char kFaultInjShardDelay[] = "fault.shard_delay";
inline constexpr const char kFaultInjShardStall[] = "fault.shard_stall";
inline constexpr const char kFaultInjAllocFailWave[] = "fault.alloc_fail_wave";

}  // namespace cnt

}  // namespace nomad

#endif  // SRC_OBS_EVENT_REGISTRY_H_
