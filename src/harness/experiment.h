// Experiment harness: wires a platform, a policy, an address space and
// workload actors into one runnable simulation, provides the paper's
// initial-placement setups, and reduces measurements into the phase
// numbers the figures report ("migration in progress" vs "stable").
#ifndef SRC_HARNESS_EXPERIMENT_H_
#define SRC_HARNESS_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/annotations.h"
#include "src/harness/timeline_sampler.h"
#include "src/mm/memory_system.h"
#include "src/obs/json.h"
#include "src/nomad/nomad_policy.h"
#include "src/policy/memtis.h"
#include "src/policy/policy.h"
#include "src/policy/tpp.h"
#include "src/workload/workload.h"
#include "src/workload/zipfian.h"

namespace nomad {

enum class PolicyKind {
  kNoMigration,
  kTpp,
  kMemtisDefault,
  kMemtisQuickCool,
  kNomad,
};

const char* PolicyKindName(PolicyKind kind);
// `nomad` configures the policy when `kind` is kNomad; other kinds ignore it.
std::unique_ptr<TieringPolicy> MakePolicy(PolicyKind kind, const NomadPolicy::Config& nomad = {});

// True when the policy can run on the platform (Memtis needs PEBS/IBS).
bool PolicySupported(PolicyKind kind, const PlatformSpec& platform);

// A fully wired simulation instance.
class NOMAD_SHARD_CONFINED Sim {
 public:
  // Installs MakePolicy(kind, nomad).
  Sim(const PlatformSpec& platform, PolicyKind kind, uint64_t as_pages,
      const NomadPolicy::Config& nomad = {});

  Engine& engine() { return engine_; }
  MemorySystem& ms() { return ms_; }
  AddressSpace& as() { return as_; }
  TieringPolicy& policy() { return *policy_; }
  const PlatformSpec& platform() const { return platform_; }
  PolicyKind kind() const { return kind_; }

  // NOMAD-specific view (nullptr for other policies).
  NomadPolicy* nomad() { return dynamic_cast<NomadPolicy*>(policy_.get()); }

  // Registers a workload actor as a simulated CPU and schedules it.
  void AddWorkload(WorkloadActor* w);

  // Turns on time-resolved telemetry (src/obs/timeline.h). Engine-driven
  // mode registers a TimelineActor sampling every config.interval cycles;
  // the sharded harness passes engine_driven=false and drives
  // SampleTimeline from lockstep epoch boundaries instead. Off by default:
  // the fixed-seed goldens are captured without a timeline.
  void EnableTimeline(const Timeline::Config& config, bool engine_driven = true);
  // The sampler, or nullptr when the timeline is off.
  TimelineSampler* timeline_sampler() { return timeline_.get(); }
  const TimelineSampler* timeline_sampler() const { return timeline_.get(); }
  // Records one sample now (external drivers only; no-op when off).
  void SampleTimeline(uint64_t shard_ops_done, uint64_t shard_epoch) {
    if (timeline_ != nullptr) {
      timeline_->SampleSharded(shard_ops_done, shard_epoch);
    }
  }

  // Runs until every registered workload finished (bounded by hard_cap
  // virtual cycles as a safety net). Returns final virtual time.
  Cycles Run(Cycles hard_cap = Cycles{1} << 42);

  // Runs until the workloads have jointly completed `ops` operations.
  // Callable repeatedly with growing targets (phase snapshots).
  Cycles RunUntilOps(uint64_t ops);

  const std::vector<WorkloadActor*>& workloads() const { return workloads_; }

 private:
  PlatformSpec platform_;
  PolicyKind kind_;
  Engine engine_;
  MemorySystem ms_;
  AddressSpace as_;
  std::unique_ptr<TieringPolicy> policy_;
  std::vector<WorkloadActor*> workloads_;
  std::unique_ptr<TimelineSampler> timeline_;
  std::unique_ptr<TimelineActor> timeline_actor_;
};

// ---------- placement helpers ----------

// Maps [start, start+n) to frames on the exact tier; falls back to the
// other tier when full. Returns pages that landed on the requested tier.
uint64_t MapRange(MemorySystem& ms, AddressSpace& as, Vpn start, uint64_t n, Tier tier);

// Silently (no counters/cycles) moves a mapped page to `tier` - the
// "customized tool to demote all memory pages" used before the Redis and
// Liblinear runs (sec. 4.2).
bool MovePageSilent(MemorySystem& ms, AddressSpace& as, Vpn vpn, Tier tier);
uint64_t DemoteAll(MemorySystem& ms, AddressSpace& as);

enum class Placement { kFrequencyOpt, kRandom };

// The micro-benchmark's initial layout (sec. 4.1): `kernel_pages` reserved,
// the cold half of the RSS filling fast memory first, then the WSS split
// with `wss_fast_pages` on fast and the rest on slow, ordered by hotness
// (Frequency-opt) or randomly.
struct MicroLayout {
  uint64_t rss_pages = 0;
  uint64_t wss_pages = 0;
  uint64_t wss_fast_pages = 0;
  Placement placement = Placement::kFrequencyOpt;
  uint64_t kernel_pages = 0;
  uint64_t seed = 7;
};

// Returns the first VPN of the WSS region.
Vpn SetupMicroLayout(Sim& sim, const MicroLayout& layout, const ScrambledZipfian& zipf);

// ---------- measurement ----------

struct PhaseReport {
  double transient_gbps = 0;  // "migration in progress"
  double stable_gbps = 0;     // "migration stable"
  double overall_gbps = 0;
  double mean_latency_cycles = 0;
  double p99_latency_cycles = 0;
  uint64_t total_ops = 0;
  Cycles total_cycles = 0;
  double ops_per_sec = 0;  // app-level ops / simulated second

  // The full instruments backing the scalars above, retained so the metrics
  // exporter can report percentiles and the per-window bandwidth series.
  LatencyHistogram latency;
  std::vector<uint64_t> window_bytes;  // merged across workload actors
  Cycles window_cycles = 0;
};

// Aggregates the workloads' series: transient = first quarter of the run's
// windows (after the first), stable = last quarter.
PhaseReport Analyze(const Sim& sim);

// ---------- machine-readable export (src/obs exporters) ----------

// Appends one run's metrics object to `jw`: identity (label, policy,
// platform), the phase report, latency percentiles, the windowed-bandwidth
// series, TPM statistics when the policy is NOMAD, every raw counter, and a
// trace summary.
void AppendRunMetrics(JsonWriter& jw, Sim& sim, const PhaseReport& report,
                      const std::string& label);

// Writes the run's event trace as a chrome://tracing JSON document, which
// records how many events the trace ring took and how many it dropped, and
// warns on stderr when it dropped any.
bool WriteTraceFile(Sim& sim, const std::string& path);

// Warns on stderr when the run's trace ring dropped events.
void WarnIfTraceDropped(Sim& sim);

// Writes the run's cycle-attribution profile as collapsed-stack text
// ("root;child cycles" per line), the input format of flamegraph tools.
bool WriteProfileFile(Sim& sim, const std::string& path);

// Writes the run's telemetry timeline as CSV (tools/timeline_report input).
// Returns false when the timeline is off or the file cannot be opened.
bool WriteTimelineFile(Sim& sim, const std::string& path);

}  // namespace nomad

#endif  // SRC_HARNESS_EXPERIMENT_H_
