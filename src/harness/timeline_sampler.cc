#include "src/harness/timeline_sampler.h"

#include "src/harness/experiment.h"
#include "src/nomad/nomad_policy.h"
#include "src/obs/event_registry.h"

namespace nomad {

TimelineSampler::TimelineSampler(Sim* sim, const Timeline::Config& config)
    : sim_(sim), timeline_(config) {
  fast_free_ = timeline_.Channel(tl::kFastFree);
  fast_used_ = timeline_.Channel(tl::kFastUsed);
  fast_low_wm_ = timeline_.Channel(tl::kFastLowWatermark);
  fast_below_low_ = timeline_.Channel(tl::kFastBelowLowWatermark);
  slow_free_ = timeline_.Channel(tl::kSlowFree);
  slow_used_ = timeline_.Channel(tl::kSlowUsed);
  pcq_depth_ = timeline_.Channel(tl::kPcqDepth);
  pending_depth_ = timeline_.Channel(tl::kPendingDepth);
  deferred_depth_ = timeline_.Channel(tl::kDeferredDepth);
  shadow_pages_ = timeline_.Channel(tl::kShadowPages);
  degraded_ = timeline_.Channel(tl::kKpromoteDegraded);
  trace_capacity_ = timeline_.Channel(tl::kTraceCapacity);
  trace_emitted_ = timeline_.Channel(tl::kTraceEmittedDelta);
  trace_dropped_ = timeline_.Channel(tl::kTraceDroppedDelta);
}

void TimelineSampler::Sample() { SampleLocked(/*sharded=*/false, 0, 0); }

void TimelineSampler::SampleSharded(uint64_t ops_done, uint64_t epoch) {
  SampleLocked(/*sharded=*/true, ops_done, epoch);
}

void TimelineSampler::SampleLocked(bool sharded, uint64_t ops_done, uint64_t epoch) {
  MemorySystem& ms = sim_->ms();
  Timeline& t = timeline_;
  t.BeginSample(ms.Now());

  const FramePool& pool = sim_->ms().pool();
  t.Set(fast_free_, pool.FreeFrames(Tier::kFast));
  t.Set(fast_used_, pool.UsedFrames(Tier::kFast));
  t.Set(fast_low_wm_, pool.LowWatermark(Tier::kFast));
  t.Set(fast_below_low_, pool.BelowLowWatermark(Tier::kFast) ? 1 : 0);
  t.Set(slow_free_, pool.FreeFrames(Tier::kSlow));
  t.Set(slow_used_, pool.UsedFrames(Tier::kSlow));

  if (NomadPolicy* nomad = sim_->nomad()) {
    const PromotionQueues& q = nomad->queues();
    t.Set(pcq_depth_, q.pcq_size());
    t.Set(pending_depth_, q.pending_size());
    t.Set(deferred_depth_, q.deferred_size());
    t.Set(shadow_pages_, nomad->shadows().count());
    t.Set(degraded_, nomad->kpromote().degraded() ? 1 : 0);
  }

  // Trace-ring health (ring capacity plus per-window emit/drop deltas): a
  // window whose drop delta is nonzero has incomplete span/trace data.
  const TraceSink& ts = ms.trace();
  t.Set(trace_capacity_, ts.capacity());
  t.SetDelta(trace_emitted_, ts.total_emitted());
  t.SetDelta(trace_dropped_, ts.dropped());

  if (sharded) {
    // Resolved lazily so single-sim timelines carry no shard columns.
    if (!shard_channels_resolved_) {
      shard_channels_resolved_ = true;
      shard_ops_ = t.Channel(tl::kShardOpsDone);
      shard_epoch_ = t.Channel(tl::kShardEpoch);
    }
    t.Set(shard_ops_, ops_done);
    t.Set(shard_epoch_, epoch);
  }

  // Every registered counter, as a per-window delta. Iteration order is the
  // counter map's (sorted by name), so channel creation order — and with it
  // the JSON/CSV column order — is deterministic.
  for (const auto& [name, value] : ms.counters().All()) {
    t.SetDelta(t.Channel("cnt." + name), value);
  }

  // Histogram percentiles: the per-window arrival count plus p50/p99 of the
  // cumulative distribution.
  for (const auto& [name, h] : ms.hists().All()) {
    t.SetDelta(t.Channel("hist." + name + ".count_delta"), h.count());
    t.Set(t.Channel("hist." + name + ".p50"), h.Quantile(0.5));
    t.Set(t.Channel("hist." + name + ".p99"), h.Quantile(0.99));
  }

  t.EndSample();
}

Cycles TimelineActor::Step(Engine& engine) {
  sampler_->Sample();
  engine.SleepUntil(engine.now() + sampler_->timeline().interval());
  return 0;
}

}  // namespace nomad
