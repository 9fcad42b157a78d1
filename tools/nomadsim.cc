// nomadsim: command-line driver for one-off tiered-memory experiments.
//
// Examples:
//   # the paper's medium-WSS read benchmark under every policy
//   ./nomadsim --platform=A --wss_gb=13.5 --rss_gb=27
//
//   # a single policy, write-heavy, with the thrash governor enabled
//   ./nomadsim --policy=nomad --governor --write_fraction=1
//              --wss_gb=27 --rss_gb=27 --wss_fast_gb=16
//
// Flags (defaults in brackets):
//   --platform=A|B|C|D   [A]      testbed from Table 1
//   --policy=...         [all]    no-migration|tpp|memtis-default|
//                                 memtis-quickcool|nomad
//   --scale=N            [64]     size divisor vs the paper's GB (> 0)
//   --rss_gb --wss_gb --wss_fast_gb --kernel_gb    layout (paper GB); the
//                                 WSS must give every shard >= 1 page
//   --placement=freq|random [random]
//   --write_fraction=F   [0]
//   --ops=N              [2000000] at least one per app thread
//   --threads=N          [2]      legacy mode: simulated app threads;
//                                 sharded mode: OS worker threads (> 0)
//   --seed=N             [42]
//   --governor           [off]    enable the sec. 5 thrash governor (nomad)
//   --counters           [off]    dump raw event counters after each run
//   --metrics_out=PATH   []       write machine-readable metrics.json
//   --trace_out=PATH     []       write chrome://tracing event timeline(s)
//   --timeline_out=PATH  []       write the telemetry timeline CSV(s)
//                                 (tools/timeline_report input); also adds
//                                 a "timeline" section to metrics.json
//   --timeline_interval=CYCLES [200000] sampling cadence (with more than
//                                 one shard, rounded up to whole epochs)
//   --spans              [off]    emit migration-lifecycle span records
//                                 (trace_query --span input)
//
// Sharded parallel mode (see src/harness/sharded_sim.h):
//   --shards=N           [0]      0 = legacy single-Sim run; N>0 partitions
//                                 the machine into N per-NUMA-node shards
//                                 advanced in lockstep virtual-time epochs.
//                                 Results depend on N but NOT on --threads.
//                                 --shards=1 is the legacy run itself: its
//                                 metrics equal those of --shards=0 with
//                                 --threads=<app_threads>.
//   --app_threads=N      [2]      simulated app threads per shard (> 0)
//   --epoch=CYCLES       [500000] virtual-time barrier interval (> 0)
#include <algorithm>
#include <iostream>
#include <string>

#include "bench/bench_common.h"
#include "src/harness/flags.h"
#include "src/harness/sharded_sim.h"

using namespace nomad;

namespace {

bool ParsePlatform(const std::string& s, PlatformId* out) {
  for (PlatformId id : {PlatformId::kA, PlatformId::kB, PlatformId::kC, PlatformId::kD}) {
    if (s == PlatformName(id)) {
      *out = id;
      return true;
    }
  }
  return false;
}

// A bad flag value: prints the usage line and returns the exit status.
int Usage(const std::string& flags, const std::string& why) {
  std::cerr << "usage: nomadsim " << flags << ": " << why << "\n";
  return 2;
}

bool ParsePolicy(const std::string& s, PolicyKind* out) {
  for (PolicyKind kind : {PolicyKind::kNoMigration, PolicyKind::kTpp,
                          PolicyKind::kMemtisDefault, PolicyKind::kMemtisQuickCool,
                          PolicyKind::kNomad}) {
    if (s == PolicyKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);

  MicroRunConfig cfg;
  const std::string platform_arg = flags.GetString("platform", "A");
  cfg.scale_denom = flags.GetUint("scale", 64);
  cfg.rss_gb = flags.GetDouble("rss_gb", 27.0);
  cfg.wss_gb = flags.GetDouble("wss_gb", 13.5);
  cfg.wss_fast_gb = flags.GetDouble("wss_fast_gb", 2.5);
  cfg.kernel_gb = flags.GetDouble("kernel_gb", 3.5);
  const std::string placement_arg = flags.GetString("placement", "random");
  cfg.write_fraction = flags.GetDouble("write_fraction", 0.0);
  cfg.total_ops = flags.GetUint("ops", 2000000);
  cfg.threads = static_cast<int>(flags.GetUint("threads", 2));
  cfg.seed = flags.GetUint("seed", 42);
  const uint32_t shards = static_cast<uint32_t>(flags.GetUint("shards", 0));
  const uint32_t app_threads = static_cast<uint32_t>(flags.GetUint("app_threads", 2));
  const Cycles epoch_cycles = flags.GetUint("epoch", 500000);
  const bool governor = flags.GetBool("governor", false);
  const bool dump_counters = flags.GetBool("counters", false);
  const std::string policy_arg = flags.GetString("policy", "");
  MetricsCollector collector = MetricsCollector::FromFlags("nomadsim", flags);
  // Sampling only runs when an output asked for it: goldens stay identical.
  const Cycles timeline_interval = flags.GetUint("timeline_interval", 200000);
  const bool spans = flags.GetBool("spans", false);
  cfg.timeline_interval = collector.timeline_requested() ? timeline_interval : 0;
  cfg.enable_spans = spans;

  const auto unused = flags.UnusedKeys();
  if (!unused.empty()) {
    std::cerr << "unknown flag(s):";
    for (const auto& k : unused) {
      std::cerr << " " << k;
    }
    std::cerr << "\n";
    return 2;
  }
  if (!ParsePlatform(platform_arg, &cfg.platform)) {
    return Usage("[--platform=A|B|C|D]", "unknown platform '" + platform_arg + "'");
  }
  if (placement_arg != "freq" && placement_arg != "random") {
    return Usage("[--placement=freq|random]", "unknown placement '" + placement_arg + "'");
  }
  cfg.placement = placement_arg == "freq" ? Placement::kFrequencyOpt : Placement::kRandom;
  if (cfg.scale_denom == 0) {
    return Usage("[--scale=N]", "--scale must be > 0");
  }
  // Legacy mode simulates --threads app threads, and zero would never
  // finish; sharded mode runs on that many worker threads.
  if (cfg.threads == 0) {
    return Usage("[--threads=N]", "--threads must be > 0");
  }
  if (shards > 0 && app_threads == 0) {
    return Usage("[--shards=N] [--app_threads=N]", "--app_threads must be > 0");
  }
  if (epoch_cycles == 0) {
    return Usage("[--shards=N] [--epoch=CYCLES]", "--epoch must be > 0");
  }
  // The ops split evenly over every app thread of every shard (legacy mode:
  // --threads app threads on one machine); a thread left without one would
  // end the run at 0 ops.
  const uint64_t run_app_threads =
      shards > 0 ? uint64_t{shards} * app_threads : static_cast<uint64_t>(cfg.threads);
  if (cfg.total_ops / run_app_threads == 0) {
    return Usage("[--ops=N] [--threads=N] [--shards=N] [--app_threads=N]",
                 "every app thread needs at least one op");
  }
  // Each shard samples its own WSS pages; a shard with none has nothing to
  // draw from.
  if (Scale{cfg.scale_denom}.Pages(cfg.wss_gb / std::max<uint32_t>(shards, 1)) == 0) {
    return Usage("[--wss_gb=GB] [--scale=N] [--shards=N]",
                 "every shard needs at least one WSS page");
  }

  std::vector<PolicyKind> policies;
  if (!policy_arg.empty()) {
    PolicyKind kind;
    if (!ParsePolicy(policy_arg, &kind)) {
      std::cerr << "unknown policy '" << policy_arg << "'\n";
      return 2;
    }
    policies.push_back(kind);
  } else {
    policies = PoliciesFor(cfg.platform, /*include_no_migration=*/true);
  }

  cfg.nomad.enable_governor = governor;
  // The governed NOMAD run is labelled apart from the plain one.
  auto label = [governor](PolicyKind kind) -> std::string {
    return governor && kind == PolicyKind::kNomad ? "nomad+governor" : PolicyKindName(kind);
  };

  if (shards > 0) {
    PrintHeader("nomadsim", "sharded parallel micro-benchmark run", cfg.platform,
                cfg.scale_denom);
    std::cout << "RSS " << cfg.rss_gb << " GB, WSS " << cfg.wss_gb << " GB ("
              << cfg.wss_fast_gb << " GB starting fast), " << cfg.total_ops
              << " ops across " << shards << " shard(s) x " << app_threads
              << " app thread(s), " << cfg.threads << " worker thread(s), epoch "
              << epoch_cycles << " cycles\n\n";
    TablePrinter st({"policy", "agg GB/s", "ops", "epochs", "msgs", "promos",
                     "demos", "tpm aborts"});
    for (PolicyKind kind : policies) {
      const PlatformSpec platform_spec = MakePlatform(cfg.platform);
      if (!PolicySupported(kind, platform_spec)) {
        continue;
      }
      ShardedRunConfig scfg;
      scfg.base = cfg;
      scfg.base.policy = kind;
      scfg.base.threads = static_cast<int>(app_threads);
      scfg.shards = shards;
      scfg.exec_threads = static_cast<uint32_t>(cfg.threads);
      scfg.epoch_cycles = epoch_cycles;
      const ShardedRunResult r = RunShardedMicro(scfg, &collector, label(kind));
      uint64_t promos = 0, demos = 0, aborts = 0;
      for (const MicroRunResult& shard : r.per_shard) {
        promos += Promotions(shard.counters);
        demos += Demotions(shard.counters);
        aborts += shard.tpm_aborts;
      }
      st.AddRow({label(kind), Fmt(r.aggregate_gbps), FmtCount(r.total_ops),
                 FmtCount(r.epochs), FmtCount(r.messages), FmtCount(promos),
                 FmtCount(demos), FmtCount(aborts)});
      if (dump_counters) {
        for (size_t s = 0; s < r.per_shard.size(); s++) {
          std::cout << "--- counters (" << PolicyKindName(kind) << " shard " << s
                    << ") ---\n"
                    << r.per_shard[s].counters.ToString();
        }
      }
    }
    st.Print(std::cout);
    return 0;
  }

  PrintHeader("nomadsim", "one-off micro-benchmark run", cfg.platform, cfg.scale_denom);
  std::cout << "RSS " << cfg.rss_gb << " GB, WSS " << cfg.wss_gb << " GB ("
            << cfg.wss_fast_gb << " GB starting fast), "
            << (cfg.placement == Placement::kFrequencyOpt ? "frequency-opt" : "random")
            << " placement, write fraction " << cfg.write_fraction << ", "
            << cfg.total_ops << " ops on " << cfg.threads << " thread(s)\n\n";

  TablePrinter t({"policy", "transient GB/s", "stable GB/s", "mean lat (cyc)",
                  "p99 (cyc)", "promos", "demos", "tpm aborts"});
  for (PolicyKind kind : policies) {
    const PlatformSpec platform_spec = MakePlatform(cfg.platform);
    if (!PolicySupported(kind, platform_spec)) {
      continue;
    }
    MicroRunConfig run_cfg = cfg;
    run_cfg.policy = kind;
    const MicroRunResult r = RunMicroBench(run_cfg, &collector, label(kind));
    t.AddRow({label(kind), Fmt(r.report.transient_gbps), Fmt(r.report.stable_gbps),
              Fmt(r.report.mean_latency_cycles, 0), Fmt(r.report.p99_latency_cycles, 0),
              FmtCount(Promotions(r.counters)), FmtCount(Demotions(r.counters)),
              FmtCount(r.tpm_aborts)});
    if (dump_counters) {
      std::cout << "--- counters (" << PolicyKindName(kind) << ") ---\n"
                << r.counters.ToString();
    }
  }
  t.Print(std::cout);
  return 0;
}
