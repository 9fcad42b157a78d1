#include "src/harness/sharded_sim.h"

#include <algorithm>
#include <iostream>
#include <thread>

#include "src/base/annotations.h"
#include "src/check/check.h"
#include "src/check/invariants.h"
#include "src/obs/event_registry.h"
#include "src/workload/kvstore.h"
#include "src/workload/liblinear.h"
#include "src/workload/micro.h"
#include "src/workload/pagerank.h"
#include "src/workload/pointer_chase.h"
#include "src/workload/seq_scan.h"
#include "src/workload/ycsb.h"

namespace nomad {

namespace {

uint64_t OpsDone(const Sim& sim) {
  uint64_t ops = 0;
  for (const WorkloadActor* w : sim.workloads()) {
    ops += w->ops_done();
  }
  return ops;
}

bool WorkloadsDone(const Sim& sim) {
  for (const WorkloadActor* w : sim.workloads()) {
    if (!w->done()) {
      return false;
    }
  }
  return true;
}

// A shard stops with an error after this many epochs: a safety net against
// a shard that never finishes.
constexpr uint64_t kMaxEpochs = 1 << 22;

// A run's bookkeeping. The worker that owns a shard keeps the shard's own in
// its epoch loop; the runner sums them once every worker joined.
struct Tally {
  uint64_t ops = 0;      // ops the handed-over reports carried
  uint64_t reports = 0;  // progress and done reports handed over
  uint64_t epochs = 0;   // a shard's epochs; a run's longest shard's
  uint64_t watchdog_stalls = 0;
};

// Samples a shard's timeline keeps; older samples are overwritten.
constexpr size_t kTimelineCapacity = 4096;

// The settings every run shares, whatever its workload. The default is a
// one-shard run without timeline, spans, faults or instruments.
struct Plan {
  uint32_t shards = 1;
  uint32_t exec_threads = 1;
  Cycles epoch_cycles = 0;
  uint64_t watchdog_stall_epochs = 0;
  Cycles timeline_interval = 0;
  bool enable_spans = false;
  // Trace ring, profiler, histograms and provenance (see Instrumented).
  bool instruments = false;
  std::function<void(uint32_t shard, Sim& sim)> shard_setup;
};

// The instruments are on when something reads them: an active collector
// (it exports all four), span records (they live in the trace ring) or the
// timeline sampler (it reads trace counts and histograms). Nothing in the
// simulation itself reads them back, so without these they stay off.
bool Instrumented(const Plan& plan, const MetricsCollector* collector) {
  return (collector != nullptr && collector->active()) || plan.enable_spans ||
         plan.timeline_interval > 0;
}

template <typename ShardedConfig>
Plan PlanOf(const ShardedConfig& cfg, const MetricsCollector* collector) {
  NOMAD_CHECK(cfg.shards > 0, "a run needs at least one shard");
  // A sharded run advances in epochs of epoch_cycles; zero would never
  // advance virtual time. A one-shard run has no epochs and ignores the field.
  NOMAD_CHECK(cfg.shards == 1 || cfg.epoch_cycles > 0,
              "epoch_cycles must be > 0 for a run with shards=", cfg.shards);
  Plan plan;
  plan.shards = cfg.shards;
  plan.exec_threads = cfg.exec_threads;
  plan.epoch_cycles = cfg.epoch_cycles;
  plan.timeline_interval = cfg.base.timeline_interval;
  plan.enable_spans = cfg.base.enable_spans;
  plan.instruments = Instrumented(plan, collector);
  return plan;
}

// The scale divisor of a run's config; zero would divide by zero.
Scale ScaleOf(uint64_t denom) {
  NOMAD_CHECK(denom > 0, "scale_denom must be > 0");
  return Scale{denom};
}

// A sharded run samples the timeline at epoch boundaries, so its cadence is
// the requested interval rounded up to whole epochs.
uint64_t SampleEpochs(const Plan& plan) {
  return (plan.timeline_interval + plan.epoch_cycles - 1) / plan.epoch_cycles;
}

// Everything one shard owns: its machine, the workload actors on it and the
// data they read. A worker thread builds and runs only the shards it was
// statically assigned; the calling thread reads the shards after every
// worker joined.
struct NOMAD_SHARD_CONFINED Shard {
  std::unique_ptr<Sim> sim;
  std::unique_ptr<ScrambledZipfian> zipf;  // the micro workload's key sampler
  std::unique_ptr<KvStore> store;          // YCSB's records
  std::vector<std::unique_ptr<WorkloadActor>> apps;
  uint64_t total_ops = 0;  // the shard's configured ops; first_half is at half
  bool half_snapped = false;
  CounterSet first_half;
  Tally tally;  // the shard's epoch loop bookkeeping (see RunEpochs)
};

// Builds shard s's machine with the wiring every run gets: its instruments
// switch, the run's set-up hook, span records and timeline. Runs on the
// worker thread that owns shard s, so plan.shard_setup is called from
// several threads.
Sim& BuildSim(const Plan& plan, uint32_t s, const PlatformSpec& platform, PolicyKind policy,
              uint64_t as_pages, Shard& sh, const NomadPolicy::Config& nomad = {}) {
  sh.sim = std::make_unique<Sim>(platform, policy, as_pages, nomad);
  Sim& sim = *sh.sim;
  // Set before the shard's first step and never changed after, so every
  // profiler span opens and closes under the same setting.
  sim.ms().set_instruments_enabled(plan.instruments);
  if (plan.shard_setup) {
    plan.shard_setup(s, sim);
  }
  if (plan.enable_spans) {
    sim.ms().set_span_tracing(true);
  }
  if (plan.timeline_interval > 0) {
    if (plan.shards == 1) {
      sim.EnableTimeline({plan.timeline_interval, kTimelineCapacity});
    } else {
      // The epoch loop samples instead of an engine actor (see RunShards).
      sim.EnableTimeline({SampleEpochs(plan) * plan.epoch_cycles, kTimelineCapacity},
                         /*engine_driven=*/false);
    }
  }
  return sim;
}

// The application benchmarks' machine (sec. 4.2): the platform's default
// 16 GB fast tier (a shard gets its 1/N), the kernel's reservation, and the
// dataset [0, end) pre-loaded with the default fast-first placement, then
// pushed to the slow tier when `demote`, as the paper's "customized tool"
// does before the Redis and Liblinear runs.
template <typename AppConfig>
Sim& BuildAppSim(const Plan& plan, uint32_t s, const AppConfig& c, Vpn end, bool demote,
                 Shard& sh) {
  const Scale scale = ScaleOf(c.scale_denom);
  Sim& sim = BuildSim(plan, s, MakePlatform(c.platform, scale, 16.0 / plan.shards, c.slow_gb),
                      c.policy, end + 16, sh);
  sim.ms().ReserveFastFrames(scale.Pages(c.kernel_gb));
  MapRange(sim.ms(), sim.as(), 0, end, Tier::kFast);
  if (demote) {
    DemoteAll(sim.ms(), sim.as());
  }
  return sim;
}

// One app thread of a micro run over the WSS [start, start + pages).
std::unique_ptr<WorkloadActor> MakeMicroApp(const MicroRunConfig& c, Sim& sim,
                                            const WorkloadActor::BaseConfig& base, Vpn start,
                                            uint64_t pages, const ScrambledZipfian* zipf) {
  switch (c.pattern) {
    case AccessPattern::kZipf: {
      MicroWorkload::Config w;
      w.base = base;
      w.wss_start = start;
      w.wss_pages = pages;
      w.write_fraction = c.write_fraction;
      return std::make_unique<MicroWorkload>(&sim.ms(), &sim.as(), zipf, w);
    }
    case AccessPattern::kPointerChase: {
      PointerChaseWorkload::Config w;
      w.base = base;
      w.region_start = start;
      w.num_blocks = std::min<uint64_t>(pages, 16);
      w.block_pages = pages / w.num_blocks;
      w.zipf_theta = c.zipf_theta;
      return std::make_unique<PointerChaseWorkload>(&sim.ms(), &sim.as(), w);
    }
    case AccessPattern::kSeqScan: {
      SeqScanWorkload::Config w;
      w.base = base;
      w.region_start = start;
      w.region_pages = pages;
      w.write_fraction = c.write_fraction;
      return std::make_unique<SeqScanWorkload>(&sim.ms(), &sim.as(), w);
    }
  }
  return nullptr;
}

void AddApp(Shard& sh, std::unique_ptr<WorkloadActor> app) {
  sh.sim->AddWorkload(app.get());
  sh.apps.push_back(std::move(app));
}

// Builds shard s into `sh`: its Sim, the workload actors and their data.
// It may touch nothing but `sh` and read-only inputs, because the shards
// of a sharded run are built concurrently.
using BuildShard = std::function<void(uint32_t s, Shard& sh)>;

// Runs shard s from epoch 0 to the first epoch boundary after its workloads
// finish. Everything the loop reads and writes is the shard's own, and its
// epoch schedule is fixed, so neither the worker that runs it nor the other
// shards can change a result.
void RunEpochs(const Plan& plan, uint32_t s, Shard& sh) {
  Sim& sim = *sh.sim;
  const uint64_t sample_epochs = plan.timeline_interval > 0 ? SampleEpochs(plan) : 0;
  uint64_t reported_ops = 0;  // the shard's ops as of its last report
  // Reports not handed over yet, and the ops they carry. The shard reports
  // progress in each epoch that completed ops, and done once.
  uint64_t held_reports = 0;
  uint64_t held_ops = 0;
  // Watchdog: the epoch count at the last hand-over that carried a report,
  // and a stall verdict the shard has yet to surface.
  uint64_t last_handover = 0;
  bool stall_pending = false;
  for (uint64_t epoch = 0;; epoch++) {
    NOMAD_CHECK(epoch < kMaxEpochs, "shard ", s, " exceeded kMaxEpochs=", kMaxEpochs);
    // Surface last epoch's watchdog verdict at the shard's own virtual
    // clock, into the shard's own CounterSet.
    if (stall_pending) {
      sim.ms().Trace(TraceEvent::kWatchdogStall, epoch, plan.watchdog_stall_epochs);
      sim.ms().counters().Add(cnt::kWatchdogStall, 1);
      stall_pending = false;
    }
    // Shard-aware chaos, one consult per (shard, epoch) from the shard's
    // OWN injector: the decision stream depends only on the shard's seed
    // and epoch count.
    bool stall = false;
    bool delay_reports = false;
    if (FaultInjector* fi = sim.ms().faults(); fi != nullptr) {
      if (fi->ShouldInject(FaultKind::kShardStall)) {
        stall = true;
        sim.ms().counters().Add(cnt::kFaultInjShardStall, 1);
      }
      if (fi->ShouldInject(FaultKind::kShardDelay)) {
        delay_reports = true;
        sim.ms().counters().Add(cnt::kFaultInjShardDelay, 1);
      }
      if (fi->ShouldInject(FaultKind::kAllocFailWave)) {
        // Arm a burst window of allocation failures starting at the
        // shard's NEXT alloc opportunity: a whole wave of fast-tier
        // pressure, as opposed to kAllocFail's isolated misses.
        FaultSchedule wave = fi->schedule(FaultKind::kAllocFail);
        wave.trigger_start = fi->opportunities(FaultKind::kAllocFail);
        wave.trigger_count = 64;
        fi->set_schedule(FaultKind::kAllocFail, wave);
        sim.ms().counters().Add(cnt::kFaultInjAllocFailWave, 1);
      }
    }
    // A stalled shard sits the epoch out without advancing virtual time or
    // handing over a report: the livelock shape the watchdog exists to flag.
    bool done = false;
    bool hand_over = false;
    if (!stall) {
      sim.engine().Run((epoch + 1) * plan.epoch_cycles);
      const uint64_t ops = OpsDone(sim);
      if (!sh.half_snapped && ops * 2 >= sh.total_ops) {
        // Phase snapshot at epoch granularity: deterministic because the
        // epoch schedule is fixed.
        sh.first_half = sim.ms().counters();
        sh.half_snapped = true;
      }
      if (sample_epochs > 0 && (epoch + 1) % sample_epochs == 0) {
        sim.SampleTimeline(ops, epoch + 1);
      }
      if (ops > reported_ops) {
        held_reports++;
        held_ops += ops - reported_ops;
        reported_ops = ops;
      }
      done = WorkloadsDone(sim);
      held_reports += done ? 1 : 0;
      // kShardDelay: the shard keeps its reports one more epoch, and they
      // go with its next hand-over. A finishing shard hands over at once.
      hand_over = !delay_reports || done;
    }
    if (hand_over && held_reports > 0) {
      sh.tally.reports += held_reports;
      sh.tally.ops += held_ops;
      held_reports = 0;
      held_ops = 0;
      last_handover = epoch + 1;
    }
    if (done) {
      sh.tally.epochs = epoch + 1;
      return;
    }
    // Livelock detection on the hand-overs only: a live shard is stalled
    // once its last one is watchdog_stall_epochs old. The quiet stretch
    // grows by one per epoch, so it reaches the threshold once per stall
    // episode, and the next hand-over starts a new one.
    if (plan.watchdog_stall_epochs > 0 &&
        epoch + 1 - last_handover == plan.watchdog_stall_epochs) {
      stall_pending = true;
      sh.tally.watchdog_stalls++;
    }
  }
}

// Builds every shard and runs it until its workloads finished, taking its
// first-half snapshot on the way, then sums the shards' tallies. A shard's
// content depends only on its own config and seed, and each shard has its
// own FramePool, so where and in what order shards are built and run cannot
// change any PFN or result.
Tally RunShards(const Plan& plan, std::vector<Shard>& shards, const BuildShard& build) {
  if (plan.shards == 1) {
    // The classic loop: an exact half-way snapshot, and a stop as soon as
    // the workloads finish. Epochs would keep the daemons running on to the
    // next epoch boundary, which changes the counters.
    Shard& sh = shards[0];
    build(0, sh);
    sh.sim->RunUntilOps(sh.total_ops / 2);
    sh.first_half = sh.sim->ms().counters();
    sh.half_snapped = true;
    sh.sim->Run();
    sh.tally.ops = OpsDone(*sh.sim);
  } else {
    // Each of T workers builds and runs the statically-assigned shards
    // {t, t+T, t+2T, ...} in that order and touches no other shard, so the
    // workers only fork and join. With T == 1 the calling thread runs every
    // shard in shard order.
    const uint32_t T = std::max<uint32_t>(1, std::min<uint32_t>(plan.exec_threads, plan.shards));
    const auto worker = [&](uint32_t t) {
      for (uint32_t s = t; s < plan.shards; s += T) {
        build(s, shards[s]);
        RunEpochs(plan, s, shards[s]);
      }
    };
    if (T == 1) {
      worker(0);  // run inline: no thread spawn for the common CI case
    } else {
      std::vector<std::thread> pool;
      pool.reserve(T);
      for (uint32_t t = 0; t < T; t++) {
        pool.emplace_back(worker, t);
      }
      for (std::thread& th : pool) {
        th.join();
      }
    }
  }
  // The join orders every shard's writes before this read; the fold is sums
  // and a maximum, so the shards' assignment to workers cannot change it.
  Tally run;
  for (const Shard& sh : shards) {
    run.ops += sh.tally.ops;
    run.reports += sh.tally.reports;
    run.epochs = std::max(run.epochs, sh.tally.epochs);
    run.watchdog_stalls += sh.tally.watchdog_stalls;
  }
  return run;
}

// Captures shard s under "<label>.shard<s>", or under the label itself when
// the run has one shard. The default label is the policy name.
void CaptureShard(MetricsCollector* collector, const std::string& label, uint32_t s,
                  uint32_t shards, Sim& sim, const PhaseReport& report) {
  if (collector == nullptr) {
    return;
  }
  std::string name = label.empty() ? PolicyKindName(sim.kind()) : label;
  if (shards > 1) {
    name += ".shard" + std::to_string(s);
  }
  collector->Capture(name, sim, report);
}

// Builds and runs application shards and folds each into an AppRunResult.
ShardedAppResult RunApps(const Plan& plan, const BuildShard& build, MetricsCollector* collector,
                         const std::string& label) {
  std::vector<Shard> shards(plan.shards);
  const Tally run = RunShards(plan, shards, build);
  ShardedAppResult result;
  result.total_ops = run.ops;
  result.messages = run.reports;
  result.epochs = run.epochs;
  uint64_t ops_sum = 0;
  for (uint32_t s = 0; s < plan.shards; s++) {
    Sim& sim = *shards[s].sim;
    const PhaseReport report = Analyze(sim);
    AppRunResult r;
    r.ops_per_sec = report.ops_per_sec;
    r.mean_latency_cycles = report.mean_latency_cycles;
    r.runtime_ms = CyclesToSeconds(report.total_cycles, sim.platform().ghz) * 1e3;
    r.promotions = Promotions(sim.ms().counters());
    r.demotions = Demotions(sim.ms().counters());
    if (NomadPolicy* nomad = sim.nomad()) {
      r.tpm_commits = nomad->tpm_stats().commits;
      r.tpm_aborts = nomad->tpm_stats().aborts;
    }
    result.max_virtual_time = std::max(result.max_virtual_time, sim.engine().now());
    ops_sum += OpsDone(sim);
    CaptureShard(collector, label, s, plan.shards, sim, report);
    result.per_shard.push_back(r);
  }
  // Shards run concurrently in virtual time, so the machine-level rate is
  // the whole op count over the slowest shard's runtime.
  if (result.max_virtual_time > 0) {
    result.aggregate_ops_per_sec =
        static_cast<double>(ops_sum) /
        CyclesToSeconds(result.max_virtual_time, shards[0].sim->platform().ghz);
  }
  return result;
}

}  // namespace

ShardedRunResult RunShardedMicro(const ShardedRunConfig& cfg, MetricsCollector* collector,
                                 const std::string& label) {
  NOMAD_CHECK(cfg.base.threads > 0, "threads must be > 0 for a micro run, got ",
              cfg.base.threads);
  Plan plan = PlanOf(cfg, collector);
  plan.watchdog_stall_epochs = cfg.watchdog_stall_epochs;
  plan.shard_setup = cfg.shard_setup;
  const uint32_t S = plan.shards;

  // --- partition: each shard is a 1/N machine running 1/N of the work ---
  // Each shard is built by the worker that runs it (see RunShards).
  std::vector<Shard> shards(S);
  const Tally run = RunShards(plan, shards, [&](uint32_t s, Shard& sh) {
    MicroRunConfig c = cfg.base;
    c.rss_gb /= S;
    c.wss_gb /= S;
    c.wss_fast_gb /= S;
    c.kernel_gb /= S;
    c.fast_gb /= S;
    c.slow_gb /= S;
    c.total_ops = cfg.base.total_ops / S;
    // Distinct streams per shard; 7919 keeps seeds far apart without
    // correlating with the +1000+thread offsets used inside a shard.
    c.seed = cfg.base.seed + 7919 * s;

    sh.total_ops = c.total_ops;
    const Scale scale = ScaleOf(c.scale_denom);
    Sim& sim = BuildSim(plan, s, MakePlatform(c.platform, scale, c.fast_gb, c.slow_gb),
                        c.policy, scale.Pages(c.rss_gb) + 16, sh, c.nomad);
    MicroLayout layout;
    layout.rss_pages = scale.Pages(c.rss_gb);
    layout.wss_pages = scale.Pages(c.wss_gb);
    layout.wss_fast_pages = scale.Pages(c.wss_fast_gb);
    layout.kernel_pages = scale.Pages(c.kernel_gb);
    layout.placement = c.placement;
    layout.seed = c.seed;
    sh.zipf = std::make_unique<ScrambledZipfian>(layout.wss_pages, c.zipf_theta, c.seed);
    const Vpn wss_start = SetupMicroLayout(sim, layout, *sh.zipf);
    for (int t = 0; t < c.threads; t++) {
      WorkloadActor::BaseConfig base;
      base.total_ops = c.total_ops / static_cast<uint64_t>(c.threads);
      base.seed = c.seed + 1000 + static_cast<uint64_t>(t);
      base.batch = c.batch;
      AddApp(sh, MakeMicroApp(c, sim, base, wss_start, layout.wss_pages, sh.zipf.get()));
    }
  });

  // --- merge, strictly in shard-id order ---
  ShardedRunResult result;
  result.total_ops = run.ops;
  result.messages = run.reports;
  result.epochs = run.epochs;
  result.watchdog_stalls = run.watchdog_stalls;
  for (uint32_t s = 0; s < S; s++) {
    Shard& sh = shards[s];
    Sim& sim = *sh.sim;
    MicroRunResult r;
    r.report = Analyze(sim);
    r.counters = sim.ms().counters();
    r.first_half = sh.half_snapped ? sh.first_half : r.counters;
    r.fast_used = sim.ms().pool().UsedFrames(Tier::kFast);
    r.slow_used = sim.ms().pool().UsedFrames(Tier::kSlow);
    if (NomadPolicy* nomad = sim.nomad()) {
      r.shadow_pages = nomad->shadows().count();
      r.tpm_commits = nomad->tpm_stats().commits;
      r.tpm_aborts = nomad->tpm_stats().aborts;
      r.pcq_hwm = nomad->queues().pcq_hwm();
      r.pending_hwm = nomad->queues().pending_hwm();
      r.pcq_overflows = nomad->queues().overflow_count();
    }
    result.max_virtual_time = std::max(result.max_virtual_time, sim.engine().now());
    result.aggregate_gbps += r.report.overall_gbps;
    if (const FaultInjector* fi = sim.ms().faults()) {
      r.injector = fi->Describe();
      result.faults_injected += fi->total_injected();
    }
    if (cfg.audit) {
      // Quiescence audit: with every worker joined and the shard's engine
      // drained, each shard must independently satisfy the full invariant
      // suite: no other shard's worker may have touched its owned state.
      InvariantChecker checker(&sim.ms());
      checker.AddSpace(&sim.as());
      if (NomadPolicy* nomad = sim.nomad()) {
        checker.set_shadows(&nomad->shadows());
        checker.set_queues(&nomad->queues());
      }
      for (const InvariantViolation& v : checker.Check()) {
        std::cerr << "shard " << s << " invariant [" << v.rule << "] " << v.detail << "\n";
        result.invariant_violations++;
      }
    }
    CaptureShard(collector, label, s, S, sim, r.report);
    result.per_shard.push_back(std::move(r));
  }
  return result;
}

ShardedAppResult RunShardedYcsb(const ShardedYcsbConfig& cfg, MetricsCollector* collector,
                                const std::string& label) {
  const Plan plan = PlanOf(cfg, collector);
  const uint32_t S = plan.shards;
  const auto build = [&](uint32_t s, Shard& sh) {
    YcsbRunConfig c = cfg.base;
    c.record_count = cfg.base.record_count / S;
    c.total_ops = cfg.base.total_ops / S;
    c.slow_gb /= S;
    c.kernel_gb /= S;
    c.seed = cfg.base.seed + 7919 * s;

    sh.total_ops = c.total_ops;
    KvStore::Config kcfg;
    kcfg.record_count = c.record_count;
    kcfg.record_size = c.record_size;
    sh.store = std::make_unique<KvStore>(kcfg);
    Sim& sim = BuildAppSim(plan, s, c, sh.store->Layout(0), c.demote_first, sh);
    YcsbWorkload::Config wcfg;
    wcfg.base.total_ops = c.total_ops;
    wcfg.base.seed = c.seed;
    // One database op per engine step: an op's ~35 line accesses already
    // span a TPM copy window, so stores can interleave with (and abort)
    // transactions at realistic granularity.
    wcfg.base.batch = 1;
    AddApp(sh, std::make_unique<YcsbWorkload>(&sim.ms(), &sim.as(), sh.store.get(), wcfg));
  };
  return RunApps(plan, build, collector, label);
}

MicroRunResult RunMicroBench(const MicroRunConfig& config, MetricsCollector* collector,
                             const std::string& label) {
  ShardedRunConfig cfg;
  cfg.base = config;
  cfg.shards = 1;
  return std::move(RunShardedMicro(cfg, collector, label).per_shard[0]);
}

AppRunResult RunYcsbBench(const YcsbRunConfig& config, MetricsCollector* collector,
                          const std::string& label) {
  ShardedYcsbConfig cfg;
  cfg.base = config;
  cfg.shards = 1;
  return RunShardedYcsb(cfg, collector, label).per_shard[0];
}

AppRunResult RunPageRankBench(const PageRankRunConfig& config, MetricsCollector* collector,
                              const std::string& label) {
  PageRankWorkload::Config wcfg;
  wcfg.vertices = config.vertices;
  wcfg.iterations = config.iterations;
  wcfg.neighbor_sample = config.neighbor_sample;
  wcfg.base.seed = config.seed;
  const Vpn end = PageRankWorkload::Layout(&wcfg, 0);

  // Standard placement: the graph spreads over fast then slow memory.
  Plan plan;
  plan.instruments = Instrumented(plan, collector);
  const auto build = [&](uint32_t s, Shard& sh) {
    Sim& sim = BuildAppSim(plan, s, config, end, /*demote=*/false, sh);
    AddApp(sh, std::make_unique<PageRankWorkload>(&sim.ms(), &sim.as(), wcfg));
  };
  return RunApps(plan, build, collector, label).per_shard[0];
}

AppRunResult RunPointerChaseBench(PolicyKind policy, uint64_t blocks,
                                  MetricsCollector* collector, const std::string& label) {
  // Figure 10's machine, in the fields BuildAppSim reads.
  struct ChaseApp {
    PlatformId platform = PlatformId::kC;
    PolicyKind policy;
    uint64_t scale_denom = 64;
    double slow_gb = 32.0;
    double kernel_gb = 3.5;
  };
  const ChaseApp app{.policy = policy};
  PointerChaseWorkload::Config wcfg;
  wcfg.block_pages = ScaleOf(app.scale_denom).Pages(1.0);  // 1 GB blocks (paper)
  wcfg.num_blocks = blocks;
  wcfg.base.total_ops = 1200000;
  wcfg.base.seed = 42;

  // The whole region is mapped fast-first in VPN order.
  Plan plan;
  plan.instruments = Instrumented(plan, collector);
  const auto build = [&](uint32_t s, Shard& sh) {
    Sim& sim = BuildAppSim(plan, s, app, wcfg.block_pages * wcfg.num_blocks,
                           /*demote=*/false, sh);
    AddApp(sh, std::make_unique<PointerChaseWorkload>(&sim.ms(), &sim.as(), wcfg));
  };
  return RunApps(plan, build, collector, label).per_shard[0];
}

AppRunResult RunLiblinearBench(const LiblinearRunConfig& config, MetricsCollector* collector,
                               const std::string& label) {
  // Worker threads share the model and split the samples (multicore
  // liblinear, as the paper runs it).
  std::vector<LiblinearWorkload::Config> wcfgs(config.threads);
  Vpn end = 0;
  for (int t = 0; t < config.threads; t++) {
    LiblinearWorkload::Config& wcfg = wcfgs[t];
    wcfg.samples = config.samples;
    wcfg.row_lines = config.row_lines;
    wcfg.sample_lines = config.sample_lines;
    wcfg.model_pages = config.model_pages;
    wcfg.features_per_sample = config.features_per_sample;
    wcfg.epochs = config.epochs;
    wcfg.base.seed = config.seed + t;
    wcfg.base.batch = 1;  // one sample per step: weight stores interleave
                          // with in-flight transactional copies
    wcfg.thread_index = t;
    wcfg.num_threads = config.threads;
    end = LiblinearWorkload::Layout(&wcfg, 0);
  }

  // The paper demotes all Liblinear pages to the slow tier before running.
  Plan plan;
  plan.instruments = Instrumented(plan, collector);
  const auto build = [&](uint32_t s, Shard& sh) {
    Sim& sim = BuildAppSim(plan, s, config, end, /*demote=*/true, sh);
    for (const LiblinearWorkload::Config& wcfg : wcfgs) {
      AddApp(sh, std::make_unique<LiblinearWorkload>(&sim.ms(), &sim.as(), wcfg));
    }
  };
  return RunApps(plan, build, collector, label).per_shard[0];
}

}  // namespace nomad
