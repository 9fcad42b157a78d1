// The repo benchmark's workloads. One call runs one repetition ("rep") of
// a workload and times it from outside the simulator: the host clock is
// read only between the benchmark's own calls into each module's public
// functions, never inside them.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_common.h"
#include "src/harness/sharded_sim.h"

namespace perfbench {

// Host nanoseconds on the steady clock.
int64_t NowNs();

// One host-time span around a call the benchmark makes. `parent` indexes
// the enclosing span in the same rep, or is -1 at the top level.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
};

// Keeps a rep's spans in memory. A disabled recorder records nothing, so
// an untraced rep runs the same calls with no span bookkeeping.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  // Opens a span under the innermost open one; returns its id, or -1 when
  // the recorder is disabled.
  int Open(const char* name);
  void Close(int id);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name)
      : recorder_(recorder), id_(recorder.Open(name)) {}
  ~ScopedSpan() { recorder_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int id_;
};

// What one rep measured and what it found wrong.
struct RepResult {
  uint64_t ops_requested = 0;
  uint64_t ops_done = 0;
  int64_t setup_ns = 0;  // build the simulated machine and lay out the data
  int64_t run_ns = 0;    // the workload's ops
  int64_t wall_ns = 0;   // setup + run + result reduction
  double sim_ops_per_s = 0;
  // FNV-1a over every simulated number the sharded run returns; equal
  // digests mean equal results.
  uint64_t digest = 0;
  std::string metrics_doc;  // nomad-metrics-v1 document of a reference rep
  // FNV-1a over the metrics document of the classic-engine run that only
  // traced reps make.
  uint64_t aux_digest = 0;
  uint64_t fast_used_frames = 0;
  uint64_t oom = 0;
  uint64_t unresolved_faults = 0;
  uint64_t violations = 0;
  uint64_t epochs = 0;    // lockstep epochs
  uint64_t messages = 0;  // cross-shard messages
  std::vector<std::string> errors;
  std::vector<Span> spans;
};

inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
uint64_t Fnv1a(std::string_view bytes, uint64_t hash = kFnvOffset);

// The benchmark's workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();
bool IsMicro(const std::string& workload);

// The Fig. 7 small-WSS read cell, with the benchmark's seed.
nomad::MicroRunConfig MicroCell(uint64_t seed);

// The cell as the benchmark times it: on the sharded runner, 4 shards on
// 4 worker threads.
nomad::ShardedRunConfig MicroConfig(uint64_t seed);

// The Fig. 14 thrashing cell, sharded, with the benchmark's seed.
nomad::ShardedYcsbConfig YcsbConfig(uint64_t seed);

// The document MetricsCollector writes for one run captured under `label`.
std::string MetricsDoc(nomad::Sim& sim, const nomad::PhaseReport& report,
                       const std::string& label);

// The cell on the classic engine: RunMicroBench's calls in RunMicroBench's
// order, then the audit and the metrics document. Returns the document;
// spans go to `rec`, and what the audit and checks find to `r`.
std::string RunMicroCell(const nomad::MicroRunConfig& config, const std::string& label,
                         SpanRecorder& rec, RepResult& r);

// One rep of a sharded workload: the set-up-only call (one op per app
// thread), then the full call. A traced rep adds the full call on one
// worker thread, then makes the classic-engine calls and audits that
// machine: the micro cell itself, or shard 0's slice of the YCSB cell.
RepResult RunMicroRep(const nomad::ShardedRunConfig& config, bool traced);
RepResult RunYcsbRep(const nomad::ShardedYcsbConfig& config, bool traced);

// The untimed reference rep: the full call on one worker thread with every
// shard's metrics exported through `metrics_path`. The micro reference
// also audits every shard.
RepResult RunMicroReference(const nomad::ShardedRunConfig& config,
                            const std::string& metrics_path);
RepResult RunYcsbReference(const nomad::ShardedYcsbConfig& config,
                           const std::string& metrics_path);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
