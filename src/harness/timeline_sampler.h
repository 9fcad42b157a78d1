// Timeline sampling: feeds a src/obs Timeline from a live Sim.
//
// The sampler snapshots every instrument the harness can reach — tier
// occupancy and watermarks, PCQ/pending/deferred depths, shadow count,
// kpromote degradation, the trace ring's emit/drop deltas, every registered
// counter (as per-window deltas) and histogram (count delta + p50/p99) —
// into the columnar ring. Two drivers exist:
//  - TimelineActor: an engine actor that samples every `interval` virtual
//    cycles (one-shard runs),
//  - the runner's lockstep epoch loop (src/harness/sharded_sim.cc), which
//    calls SampleSharded() at epoch boundaries so the sampled times are
//    identical for any --threads value.
#ifndef SRC_HARNESS_TIMELINE_SAMPLER_H_
#define SRC_HARNESS_TIMELINE_SAMPLER_H_

#include <string>

#include "src/base/annotations.h"
#include "src/obs/timeline.h"
#include "src/sim/engine.h"

namespace nomad {

class Sim;

class NOMAD_SHARD_CONFINED TimelineSampler {
 public:
  TimelineSampler(Sim* sim, const Timeline::Config& config);

  Timeline& timeline() { return timeline_; }
  const Timeline& timeline() const { return timeline_; }

  // Records one delta-snapshot stamped with the current virtual time.
  void Sample();

  // Sharded-mode variant: also records the shard's progress gauges
  // (shard.ops_done / shard.epoch), which only the epoch loop knows.
  void SampleSharded(uint64_t ops_done, uint64_t epoch);

 private:
  void SampleLocked(bool sharded, uint64_t ops_done, uint64_t epoch);

  Sim* sim_;
  Timeline timeline_;
  // Fixed gauge channels, resolved once at construction; counter and
  // histogram channels are dynamic (instruments appear as the run warms up)
  // and resolved by name per sample.
  size_t fast_free_ = 0;
  size_t fast_used_ = 0;
  size_t fast_low_wm_ = 0;
  size_t fast_below_low_ = 0;
  size_t slow_free_ = 0;
  size_t slow_used_ = 0;
  size_t pcq_depth_ = 0;
  size_t pending_depth_ = 0;
  size_t deferred_depth_ = 0;
  size_t shadow_pages_ = 0;
  size_t degraded_ = 0;
  size_t trace_capacity_ = 0;
  size_t trace_emitted_ = 0;
  size_t trace_dropped_ = 0;
  bool shard_channels_resolved_ = false;
  size_t shard_ops_ = 0;
  size_t shard_epoch_ = 0;
};

// Engine-driven periodic sampling. Register with Engine::AddActor; the
// actor samples at its scheduled time and sleeps one interval. It never
// finishes (done() stays false), which is fine: Sim::Run's stop predicate
// only consults workloads.
class NOMAD_SHARD_CONFINED TimelineActor : public Actor {
 public:
  explicit TimelineActor(TimelineSampler* sampler) : sampler_(sampler) {}

  Cycles Step(Engine& engine) override;
  std::string name() const override { return "timeline"; }

 private:
  TimelineSampler* sampler_;
};

}  // namespace nomad

#endif  // SRC_HARNESS_TIMELINE_SAMPLER_H_
