// Deterministic virtual-time telemetry timeline.
//
// Every exporter in the tree reports a single end-of-run aggregate, but the
// paper's headline claims are temporal: abort storms under redirtying,
// shadow reclaim kicking in as fast-tier pressure rises, admission control
// damping thrash. Timeline records the time axis those narratives need — a
// columnar ring of delta-snapshots sampled at a fixed virtual-cycle
// interval (engine-driven in single-Sim runs, epoch-driven in sharded runs,
// so samples are byte-identical across worker-thread counts).
//
// Channels are named columns. Gauge channels come from the closed tl::
// registry in src/obs/event_registry.h (NL012 lints literal names at call
// sites); counter-delta and histogram-derived channels are derived from the
// cnt:: / hist:: registries with the "cnt." / "hist." prefixes. The sampler
// that knows the simulator's object graph lives in
// src/harness/timeline_sampler.h; this class only owns storage and export.
//
// A run has a timeline only when one is asked for (Sim::EnableTimeline).
// The runner then keeps the run's instruments on, because the sampler reads
// the trace ring's counts and the histograms. Sampling only reads the
// simulation, so the simulation's metrics stay byte-identical.
#ifndef SRC_OBS_TIMELINE_H_
#define SRC_OBS_TIMELINE_H_

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/base/annotations.h"
#include "src/obs/event_registry.h"
#include "src/sim/clock.h"

namespace nomad {

class JsonWriter;

class NOMAD_SHARD_CONFINED Timeline {
 public:
  struct Config {
    // Requested sampling cadence in virtual cycles. The engine-driven
    // sampler honors it exactly; the sharded driver rounds it up to whole
    // epochs so samples stay thread-count independent.
    Cycles interval = 100000;
    // Samples retained; beyond this the oldest sample is overwritten (and
    // counted in dropped(), mirroring the TraceSink ring contract). 0 keeps
    // every sample.
    size_t capacity = 4096;
  };

  Timeline() : Timeline(Config{}) {}
  explicit Timeline(const Config& config) : config_(config) {}

  // Column handle for `name`, creating the column on first use (earlier
  // samples read as 0). Aborts on a name outside the timeline registry —
  // same closed-name-set contract as counters and histograms.
  size_t Channel(const std::string& name);

  // One sample = BeginSample(now) + any number of Set/SetDelta + EndSample.
  // Channels not Set during a sample record 0 for it.
  void BeginSample(Cycles time);
  void Set(size_t channel, uint64_t value);
  // Delta convenience for monotonic sources (counters, emit totals):
  // records `absolute - previous absolute` and remembers `absolute`.
  void SetDelta(size_t channel, uint64_t absolute);
  void EndSample();

  Cycles interval() const { return config_.interval; }
  size_t capacity() const { return config_.capacity; }
  size_t num_samples() const { return times_.size(); }
  size_t num_channels() const { return columns_.size(); }
  // Samples evicted from the ring, attributable to the run's tail.
  uint64_t dropped() const { return dropped_; }

  // The "nomad-timeline-v1" JSON object: schema/interval/samples/dropped,
  // a "time" array, and a "channels" object in column-creation order.
  void AppendJson(JsonWriter& jw) const;

  // CSV with a stable `time,<channel>,...` header, one row per sample.
  void WriteCsv(std::ostream& out) const;

 private:
  struct Column {
    std::string name;
    std::vector<uint64_t> values;  // slot-aligned with times_
    uint64_t last_abs = 0;         // SetDelta's remembered absolute
  };

  // Storage slot of the i-th retained sample, oldest first.
  size_t Slot(size_t i) const { return (head_ + i) % times_.size(); }
  size_t Newest() const { return Slot(times_.size() - 1); }

  Config config_;
  // Ring storage: grows to capacity, then each sample overwrites the
  // oldest slot, head_, and head_ moves on. Exports read from head_.
  std::vector<Cycles> times_;
  size_t head_ = 0;
  std::vector<Column> columns_;
  uint64_t dropped_ = 0;
  bool in_sample_ = false;
};

}  // namespace nomad

#endif  // SRC_OBS_TIMELINE_H_
