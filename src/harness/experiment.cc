#include "src/harness/experiment.h"

#include <algorithm>
#include <fstream>
#include <iostream>

#include "src/check/check.h"
#include "src/obs/exporters.h"

namespace nomad {

const char* PolicyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kNoMigration:
      return "no-migration";
    case PolicyKind::kTpp:
      return "tpp";
    case PolicyKind::kMemtisDefault:
      return "memtis-default";
    case PolicyKind::kMemtisQuickCool:
      return "memtis-quickcool";
    case PolicyKind::kNomad:
      return "nomad";
  }
  return "?";
}

std::unique_ptr<TieringPolicy> MakePolicy(PolicyKind kind, const NomadPolicy::Config& nomad) {
  switch (kind) {
    case PolicyKind::kNoMigration:
      return std::make_unique<NoMigrationPolicy>();
    case PolicyKind::kTpp:
      return std::make_unique<TppPolicy>();
    case PolicyKind::kMemtisDefault:
      return std::make_unique<MemtisPolicy>(MemtisPolicy::DefaultVariant());
    case PolicyKind::kMemtisQuickCool:
      return std::make_unique<MemtisPolicy>(MemtisPolicy::QuickCoolVariant());
    case PolicyKind::kNomad:
      return std::make_unique<NomadPolicy>(nomad);
  }
  return nullptr;
}

bool PolicySupported(PolicyKind kind, const PlatformSpec& platform) {
  if (kind == PolicyKind::kMemtisDefault || kind == PolicyKind::kMemtisQuickCool) {
    return platform.pebs_supported;
  }
  return true;
}

Sim::Sim(const PlatformSpec& platform, PolicyKind kind, uint64_t as_pages,
         const NomadPolicy::Config& nomad)
    : platform_(platform),
      kind_(kind),
      ms_(platform, &engine_),
      as_(as_pages),
      policy_(MakePolicy(kind, nomad)) {
  policy_->Install(ms_, engine_);
}

void Sim::EnableTimeline(const Timeline::Config& config, bool engine_driven) {
  NOMAD_CHECK(timeline_ == nullptr, "timeline already enabled");
  timeline_ = std::make_unique<TimelineSampler>(this, config);
  if (engine_driven) {
    timeline_actor_ = std::make_unique<TimelineActor>(timeline_.get());
    // First sample at t=interval: the t=0 state is all zeros/setup noise,
    // and skipping it keeps sample times aligned with the sharded driver's
    // epoch boundaries.
    engine_.AddActor(timeline_actor_.get(), config.interval);
  }
}

void Sim::AddWorkload(WorkloadActor* w) {
  const ActorId id = engine_.AddActor(w);
  w->set_actor_id(id);
  ms_.RegisterCpu(id);
  workloads_.push_back(w);
}

Cycles Sim::Run(Cycles hard_cap) {
  return engine_.RunUntil([this, hard_cap] {
    if (engine_.now() > hard_cap) {
      return true;
    }
    for (const WorkloadActor* w : workloads_) {
      if (!w->done()) {
        return false;
      }
    }
    return true;
  });
}

Cycles Sim::RunUntilOps(uint64_t ops) {
  return engine_.RunUntil([this, ops] {
    uint64_t done = 0;
    for (const WorkloadActor* w : workloads_) {
      done += w->ops_done();
    }
    return done >= ops;
  });
}

uint64_t MapRange(MemorySystem& ms, AddressSpace& as, Vpn start, uint64_t n, Tier tier) {
  uint64_t on_tier = 0;
  for (uint64_t i = 0; i < n; i++) {
    const Pfn pfn = ms.MapNewPage(as, start + i, tier);
    if (pfn != kInvalidPfn && ms.pool().TierOf(pfn) == tier) {
      on_tier++;
    }
  }
  return on_tier;
}

bool MovePageSilent(MemorySystem& ms, AddressSpace& as, Vpn vpn, Tier tier) {
  Pte* pte = ms.PteOf(as, vpn);
  if (pte == nullptr || !pte->present) {
    return false;
  }
  const Pfn old_pfn = pte->pfn;
  PageFrame old_frame = ms.pool().frame(old_pfn);
  if (old_frame.tier() == tier || old_frame.migrating() || old_frame.shadowed()) {
    return false;
  }
  const Pfn new_pfn = ms.pool().AllocOn(tier);
  if (new_pfn == kInvalidPfn) {
    return false;
  }
  ms.RepointMappingSilent(as, vpn, new_pfn);
  return true;
}

uint64_t DemoteAll(MemorySystem& ms, AddressSpace& as) {
  uint64_t moved = 0;
  for (Vpn vpn = 0; vpn < as.num_pages(); vpn++) {
    const Pte* pte = ms.PteOf(as, vpn);
    if (pte != nullptr && pte->present && ms.pool().TierOf(pte->pfn) == Tier::kFast) {
      if (MovePageSilent(ms, as, vpn, Tier::kSlow)) {
        moved++;
      }
    }
  }
  return moved;
}

Vpn SetupMicroLayout(Sim& sim, const MicroLayout& layout, const ScrambledZipfian& zipf) {
  MemorySystem& ms = sim.ms();
  AddressSpace& as = sim.as();
  NOMAD_CHECK(layout.wss_pages <= layout.rss_pages, "wss=", layout.wss_pages,
              " rss=", layout.rss_pages);
  NOMAD_CHECK(zipf.n() == layout.wss_pages, "zipf_n=", zipf.n(), " wss=", layout.wss_pages);

  ms.ReserveFastFrames(layout.kernel_pages);

  // Cold half of the RSS fills fast memory first (the pre-allocated 10 GB /
  // 13.5 GB / 16 GB of sec. 4.1).
  const uint64_t cold_pages = layout.rss_pages - layout.wss_pages;
  MapRange(ms, as, 0, cold_pages, Tier::kFast);

  // WSS placement order: hotness rank order (Frequency-opt) or shuffled.
  const Vpn wss_start = cold_pages;
  std::vector<Vpn> order(layout.wss_pages);
  if (layout.placement == Placement::kFrequencyOpt) {
    for (uint64_t r = 0; r < layout.wss_pages; r++) {
      order[r] = wss_start + zipf.ItemOfRank(r);
    }
  } else {
    for (uint64_t i = 0; i < layout.wss_pages; i++) {
      order[i] = wss_start + i;
    }
    // Salt the seed: the Zipfian scramble uses the same shuffle algorithm,
    // and an identical seed would make "random" placement reproduce the
    // hotness permutation exactly (i.e. silently become Frequency-opt).
    Rng rng(layout.seed ^ 0x9E3779B97F4A7C15ull);
    for (uint64_t i = layout.wss_pages; i > 1; i--) {
      std::swap(order[i - 1], order[rng.Below(i)]);
    }
  }
  for (uint64_t i = 0; i < layout.wss_pages; i++) {
    const Tier tier = i < layout.wss_fast_pages ? Tier::kFast : Tier::kSlow;
    Pfn pfn = ms.pool().AllocOn(tier);
    if (pfn == kInvalidPfn) {
      pfn = ms.pool().AllocOn(OtherTier(tier));
    }
    if (pfn == kInvalidPfn) {
      break;  // genuinely out of memory; the workload will demand-fault
    }
    ms.InstallMappingSilent(as, order[i], pfn, /*writable=*/true);
  }
  return wss_start;
}

PhaseReport Analyze(const Sim& sim) {
  PhaseReport r;
  const double ghz = sim.platform().ghz;
  const auto& workloads = sim.workloads();
  if (workloads.empty()) {
    return r;
  }

  // Merge the per-actor windowed series (same window size by construction).
  const Cycles window = workloads[0]->bandwidth().window_cycles();
  size_t max_windows = 0;
  for (const WorkloadActor* w : workloads) {
    max_windows = std::max(max_windows, w->bandwidth().NumWindows());
  }
  std::vector<uint64_t> merged(max_windows, 0);
  LatencyHistogram lat;
  Cycles end_time = 0;
  for (const WorkloadActor* w : workloads) {
    const auto& wins = w->bandwidth().windows();
    for (size_t i = 0; i < wins.size(); i++) {
      merged[i] += wins[i];
    }
    lat.Merge(w->latency());
    r.total_ops += w->ops_done();
    end_time = std::max(end_time, w->finish_time());
  }

  auto mean_gbps = [&](size_t first, size_t last) {
    last = std::min(last, merged.size());
    if (first >= last) {
      return 0.0;
    }
    uint64_t bytes = 0;
    for (size_t i = first; i < last; i++) {
      bytes += merged[i];
    }
    const double bpc = static_cast<double>(bytes) / static_cast<double>((last - first) * window);
    return bpc * ghz;  // bytes/cycle * GHz = GB/s
  };

  const size_t n = merged.size();
  // Transient = the first quarter of the run (skipping the cold-start
  // window); stable = the last quarter. With the paper's setups the bulk
  // migration happens well inside the first quarter.
  r.transient_gbps = mean_gbps(1, std::max<size_t>(2, n / 4));
  r.stable_gbps = mean_gbps(n - std::max<size_t>(1, n / 4), n);
  r.overall_gbps = mean_gbps(0, n);
  r.mean_latency_cycles = lat.Mean();
  r.p99_latency_cycles = static_cast<double>(lat.Quantile(0.99));
  r.total_cycles = end_time;
  const double seconds = CyclesToSeconds(end_time == 0 ? 1 : end_time, ghz);
  r.ops_per_sec = static_cast<double>(r.total_ops) / seconds;
  r.latency = lat;
  r.window_bytes = std::move(merged);
  r.window_cycles = window;
  return r;
}

void AppendRunMetrics(JsonWriter& jw, Sim& sim, const PhaseReport& report,
                      const std::string& label) {
  MemorySystem& ms = sim.ms();
  jw.BeginObject();
  jw.Field("label", std::string_view(label));
  jw.Field("policy", std::string_view(PolicyKindName(sim.kind())));
  jw.Field("platform", std::string_view(sim.platform().name));
  jw.Field("ghz", sim.platform().ghz);

  jw.Key("report").BeginObject();
  jw.Field("transient_gbps", report.transient_gbps);
  jw.Field("stable_gbps", report.stable_gbps);
  jw.Field("overall_gbps", report.overall_gbps);
  jw.Field("mean_latency_cycles", report.mean_latency_cycles);
  jw.Field("p99_latency_cycles", report.p99_latency_cycles);
  jw.Field("total_ops", report.total_ops);
  jw.Field("total_cycles", report.total_cycles);
  jw.Field("ops_per_sec", report.ops_per_sec);
  jw.EndObject();

  jw.Key("latency");
  AppendLatencyJson(jw, report.latency);
  jw.Key("bandwidth");
  AppendBandwidthJson(jw, report.window_cycles, report.window_bytes, sim.platform().ghz);

  if (NomadPolicy* nomad = sim.nomad()) {
    const KpromoteActor::Stats& tpm = nomad->tpm_stats();
    jw.Key("tpm").BeginObject();
    jw.Field("commits", tpm.commits);
    jw.Field("aborts", tpm.aborts);
    jw.Field("sync_fallbacks", tpm.sync_fallbacks);
    jw.Field("nomem_waits", tpm.nomem_waits);
    jw.Field("shadow_pages", nomad->shadows().count());
    jw.EndObject();

    // Degradation and queue-pressure telemetry (robustness additions).
    const PromotionQueues& q = nomad->queues();
    jw.Key("degradation").BeginObject();
    jw.Field("backoffs", tpm.backoffs);
    jw.Field("giveups", tpm.giveups);
    jw.Field("sync_degrades", tpm.sync_degrades);
    jw.Field("degraded_migrations", tpm.degraded_migrations);
    jw.Field("alloc_fail_streak", uint64_t{nomad->alloc_fail_streak()});
    jw.Field("pcq_hwm", q.pcq_hwm());
    jw.Field("pending_hwm", q.pending_hwm());
    jw.Field("pcq_overflows", q.overflow_count());
    jw.Field("deferred_retries", q.deferred_size());
    jw.EndObject();
  }

  jw.Key("counters");
  AppendCountersJson(jw, ms.counters());
  jw.Key("trace");
  AppendTraceSummaryJson(jw, ms.trace());
  jw.Key("profile");
  AppendProfileJson(jw, ms.prof());
  jw.Key("histograms");
  AppendHistogramsJson(jw, ms.hists());
  jw.Key("provenance");
  AppendProvenanceJson(jw, ms.provenance());
  // Only when sampling ran: the goldens are captured timeline-off and must
  // stay byte-identical.
  if (const TimelineSampler* t = sim.timeline_sampler()) {
    jw.Key("timeline");
    t->timeline().AppendJson(jw);
  }
  jw.EndObject();

  // A trace that silently overflowed its ring buffer would make every
  // downstream pairing analysis (trace_query) quietly wrong; say so.
  if (ms.trace().dropped() > 0) {
    std::cerr << "warning: trace ring buffer overflowed; dropped " << ms.trace().dropped()
              << " of " << ms.trace().total_emitted() << " events (raise TraceSink capacity or "
              << "shorten the run for complete traces)\n";
  }
}

bool WriteTraceFile(Sim& sim, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  std::vector<std::string> actor_names;
  actor_names.reserve(sim.engine().NumActors());
  for (ActorId id = 0; id < sim.engine().NumActors(); id++) {
    actor_names.push_back(sim.engine().ActorNameOf(id));
  }
  WriteChromeTrace(sim.ms().trace(), sim.platform().ghz, actor_names, out);
  return out.good();
}

bool WriteProfileFile(Sim& sim, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  WriteCollapsedStacks(sim.ms().prof(), out);
  return out.good();
}

bool WriteTimelineFile(Sim& sim, const std::string& path) {
  const TimelineSampler* t = sim.timeline_sampler();
  if (t == nullptr) {
    return false;
  }
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  t->timeline().WriteCsv(out);
  return out.good();
}

}  // namespace nomad
