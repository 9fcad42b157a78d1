// Chaos cells: one seeded, fault-focused sharded run, audited during the
// run and at quiescence, with a byte-comparable recovery record.
//
// A *cell* is the unit of the chaos campaign: (seed, fault focus, access
// pattern, exec_threads). The cell builds a small undersized 4-shard micro
// run (promotion, demotion, reclaim and the shard-fault seams all fire),
// arms every shard's own FaultInjector with seed-derived schedules
// concentrated on the focus kind, and gives every shard an auditor that
// runs the InvariantChecker at a seed-derived period while the workload
// runs. It runs to completion with the stalled-epoch watchdog on, audits
// every quiesced shard once more, and serializes the recovery state —
// per-shard counters, queue high watermarks, TPM statistics and the
// injector schedules — into one canonical string. Because every fault
// decision is a pure function of (shard seed, opportunity index) and the
// watchdog consumes only the drained message stream, that string must be
// byte-identical for any exec_threads value, which extends the
// check_determinism.py contract to faulted runs.
#ifndef SRC_HARNESS_CHAOS_H_
#define SRC_HARNESS_CHAOS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/check/invariants.h"
#include "src/harness/run.h"

namespace nomad {

// The campaign's fault dimensions. Each focuses a cell on one overload
// shape; background kinds stay quiet so a violation bisects to its cause.
enum class ChaosFocus {
  kShardStall,     // livelock: shards sit epochs out and hold reports back
  kAllocFailWave,  // bursts of fast-tier allocation failures per shard
  kPcqOverflow,    // queue pressure: PCQ behaves as if at capacity
  // The per-page migration paths: allocation failures, forced dirty-write
  // aborts, latency spikes, PCQ overflow and delayed TLB-shootdown acks,
  // each armed (or left quiet) from the shard seed. The cell's write share
  // is drawn from the seed too (0 to 0.5).
  kMigration,
};

inline constexpr ChaosFocus kChaosFocuses[] = {
    ChaosFocus::kShardStall,
    ChaosFocus::kAllocFailWave,
    ChaosFocus::kPcqOverflow,
    ChaosFocus::kMigration,
};

// Stable lower_snake_case name (CLI values and report lines).
const char* ChaosFocusName(ChaosFocus f);
// Reverse lookup; returns false for unknown names.
bool ChaosFocusFromName(const std::string& name, ChaosFocus* out);

struct ChaosCellConfig {
  uint64_t seed = 1;
  ChaosFocus focus = ChaosFocus::kShardStall;
  AccessPattern pattern = AccessPattern::kZipf;
  uint32_t exec_threads = 1;
  uint64_t total_ops = 24000;  // whole-machine ops, pre-partition
  // Frees a mapped frame behind its PTE's back early in every shard's run,
  // which the auditors must report: the proof that detection works.
  bool corrupt = false;
};

struct ChaosCellResult {
  bool ok = false;                    // no audit found a violation
  uint64_t invariant_violations = 0;  // from the per-shard quiescence audits
  uint64_t audits = 0;                // the auditors' audits during the run
  // What the auditors found during the run, across shards in shard order.
  // An auditor stops at its first failed audit.
  std::vector<InvariantViolation> audit_violations;
  uint64_t faults_injected = 0;  // across every shard injector
  uint64_t watchdog_stalls = 0;  // stall episodes the watchdog flagged
  uint64_t degradations = 0;     // graceful-degradation actions (see chaos.cc)
  uint64_t epochs = 0;
  // Canonical recovery record: campaign header + per-shard injector
  // schedule, sorted counters, queue high watermarks and TPM stats. Byte-
  // identical across exec_threads for a fixed (seed, focus, pattern).
  std::string recovery;
};

// Runs one cell to completion. When a collector is given, every shard is
// captured under "<label>.shard<k>" with a timeline (when the collector
// asks for one) and migration spans.
ChaosCellResult RunChaosCell(const ChaosCellConfig& cfg, MetricsCollector* collector = nullptr,
                             const std::string& label = "");

}  // namespace nomad

#endif  // SRC_HARNESS_CHAOS_H_
