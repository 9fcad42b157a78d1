// What a run of the simulated machine is configured with and what it
// reports, plus the collector that exports a binary's runs. The runner
// that consumes these is src/harness/sharded_sim.h.
#ifndef SRC_HARNESS_RUN_H_
#define SRC_HARNESS_RUN_H_

#include <string>
#include <vector>

#include "src/base/annotations.h"
#include "src/harness/experiment.h"
#include "src/harness/flags.h"
#include "src/obs/event_registry.h"

namespace nomad {

// Collects machine-readable artifacts across the runs of one bench binary:
// a metrics.json document with one entry per captured run, and one
// chrome://tracing file per run. Inactive (all methods no-ops) when both
// output paths are empty, so binaries can pass it unconditionally.
class NOMAD_SHARD_CONFINED MetricsCollector {
 public:
  MetricsCollector(std::string bench_id, std::string metrics_path, std::string trace_path,
                   std::string profile_path = "", std::string timeline_path = "")
      : bench_id_(std::move(bench_id)),
        metrics_path_(std::move(metrics_path)),
        trace_path_(std::move(trace_path)),
        profile_path_(std::move(profile_path)),
        timeline_path_(std::move(timeline_path)) {}

  // Reads --metrics_out / --trace_out / --profile_out / --timeline_out.
  // Call before Flags::UnusedKeys().
  static MetricsCollector FromFlags(const std::string& bench_id, const Flags& flags);

  bool active() const {
    return !metrics_path_.empty() || !trace_path_.empty() || !profile_path_.empty() ||
           !timeline_path_.empty();
  }
  // Whether --timeline_out was given: benches consult this to enable
  // timeline sampling on the runs they capture.
  bool timeline_requested() const { return !timeline_path_.empty(); }

  // Records one finished run. The first capture's trace goes to the exact
  // --trace_out path; later captures get the label inserted before the
  // extension (t.json -> t.tpp.json). An active collector aborts on a run
  // whose instruments were off: the runner turns them on for every run it
  // is given an active collector for, and a Sim built directly has them on.
  void Capture(const std::string& label, Sim& sim, const PhaseReport& report);

  // Writes metrics.json (idempotent; also runs from the destructor).
  void Flush();

  ~MetricsCollector() { Flush(); }
  MetricsCollector(MetricsCollector&&) = default;
  MetricsCollector(const MetricsCollector&) = delete;
  MetricsCollector& operator=(const MetricsCollector&) = delete;

 private:
  std::string bench_id_;
  std::string metrics_path_;
  std::string trace_path_;
  std::string profile_path_;  // collapsed-stack cycle profiles (flamegraph input)
  std::string timeline_path_;  // telemetry timeline CSVs (timeline_report input)
  std::vector<std::string> run_json_;  // pre-rendered run objects
  size_t captures_ = 0;
  bool flushed_ = false;
};

// What the app threads of a micro run access over the WSS: Zipfian draws
// (sec. 4.1), the block pointer chase of Fig. 10 over the WSS cut into 16
// equal blocks, or a sequential sweep.
enum class AccessPattern { kZipf, kPointerChase, kSeqScan };

inline constexpr AccessPattern kAccessPatterns[] = {
    AccessPattern::kZipf,
    AccessPattern::kPointerChase,
    AccessPattern::kSeqScan,
};

// Stable names ("zipf", "chase", "scan") and their reverse lookup, which
// returns false for an unknown name.
const char* AccessPatternName(AccessPattern p);
bool AccessPatternFromName(const std::string& name, AccessPattern* out);

// One micro-benchmark run (sec. 4.1).
struct MicroRunConfig {
  PlatformId platform = PlatformId::kA;
  uint64_t scale_denom = 64;
  PolicyKind policy = PolicyKind::kNomad;
  double rss_gb = 27.0;
  double wss_gb = 13.5;
  double wss_fast_gb = 2.5;
  double kernel_gb = 3.5;
  double fast_gb = 16.0;
  double slow_gb = 16.0;
  Placement placement = Placement::kRandom;
  double write_fraction = 0.0;
  uint64_t total_ops = 1200000;
  int threads = 2;
  uint64_t seed = 42;
  unsigned batch = 8;  // accesses per engine step (WorkloadActor batching)
  double zipf_theta = 0.99;  // skew of the Zipfian key (or chase block) choice
  AccessPattern pattern = AccessPattern::kZipf;
  // The NOMAD policy's settings; ignored unless policy is kNomad.
  NomadPolicy::Config nomad;
  // Time-resolved telemetry (src/obs/timeline.h): sampling cadence in
  // virtual cycles, 0 = off. Off by default — goldens are timeline-free.
  Cycles timeline_interval = 0;
  // Migration-lifecycle span records (mig_* trace events, trace_query
  // --span input). Off by default for the same golden-stability reason.
  bool enable_spans = false;
};

struct MicroRunResult {
  PhaseReport report;
  CounterSet counters;    // cumulative at the end
  CounterSet first_half;  // snapshot at the midpoint ("in progress" phase)
  uint64_t shadow_pages = 0;
  uint64_t tpm_commits = 0;
  uint64_t tpm_aborts = 0;
  uint64_t fast_used = 0;
  uint64_t slow_used = 0;
  // Queue pressure (NOMAD runs; 0 otherwise). The chaos campaign byte-compares
  // these across thread counts as part of the recovery record.
  uint64_t pcq_hwm = 0;
  uint64_t pending_hwm = 0;
  uint64_t pcq_overflows = 0;
  std::string injector;  // FaultInjector::Describe() when one is installed
};

// Second-half value of a counter (steady phase).
inline uint64_t SteadyCount(const MicroRunResult& r, const std::string& name) {
  return r.counters.Get(name) - r.first_half.Get(name);
}

// Total promotions/demotions a policy performed (summing the policy's own
// counter names).
inline uint64_t Promotions(const CounterSet& c) {
  return c.Get(cnt::kMigrateSyncPromote) + c.Get(cnt::kNomadTpmCommit);
}
inline uint64_t Demotions(const CounterSet& c) {
  return c.Get(cnt::kMigrateSyncDemote) + c.Get(cnt::kNomadDemoteRemap);
}

// ---------- application benchmarks (sec. 4.2) ----------

struct AppRunResult {
  double ops_per_sec = 0;   // application-level throughput
  double runtime_ms = 0;    // simulated milliseconds
  double mean_latency_cycles = 0;  // per access
  uint64_t tpm_commits = 0;
  uint64_t tpm_aborts = 0;
  uint64_t promotions = 0;
  uint64_t demotions = 0;
};

// Redis + YCSB-A (Figures 11 and 14). `demote_first` runs the paper's
// "customized tool" that pushes the whole dataset to the slow tier.
struct YcsbRunConfig {
  PlatformId platform = PlatformId::kA;
  PolicyKind policy = PolicyKind::kNomad;
  uint64_t scale_denom = 64;
  uint64_t record_count = 93750;  // scaled; ~6M paper records
  uint64_t record_size = 2048;    // 1 KB values + Redis overhead
  uint64_t total_ops = 80000;
  bool demote_first = true;
  double slow_gb = 16.0;
  double kernel_gb = 3.5;
  uint64_t seed = 42;
  // Telemetry timeline / migration spans, as in MicroRunConfig.
  Cycles timeline_interval = 0;
  bool enable_spans = false;
};

// PageRank on a synthetic uniform graph (Figures 12 and 15).
struct PageRankRunConfig {
  PlatformId platform = PlatformId::kA;
  PolicyKind policy = PolicyKind::kNomad;
  uint64_t scale_denom = 64;
  uint64_t vertices = 1 << 20;  // scaled; 2^26 paper vertices
  uint64_t iterations = 1;
  uint64_t neighbor_sample = 3;
  double slow_gb = 16.0;
  double kernel_gb = 3.5;
  uint64_t seed = 42;
};

// Liblinear-style regression (Figures 13 and 16). The dataset starts on
// the slow tier (the paper demotes it before each run).
struct LiblinearRunConfig {
  PlatformId platform = PlatformId::kA;
  PolicyKind policy = PolicyKind::kNomad;
  uint64_t scale_denom = 64;
  uint64_t samples = 81920;    // scaled; row stride 2 KB -> 10 GB paper data
  uint64_t row_lines = 32;
  uint64_t sample_lines = 8;   // column lines gathered per weight line
  uint64_t model_pages = 1024;
  uint64_t features_per_sample = 6;
  uint64_t epochs = 4;
  int threads = 4;             // multicore liblinear (shared model)
  double slow_gb = 16.0;
  double kernel_gb = 3.5;
  uint64_t seed = 42;
};

}  // namespace nomad

#endif  // SRC_HARNESS_RUN_H_
