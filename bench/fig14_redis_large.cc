// Figure 14: Redis with a large RSS (36.5 GB paper: 20M records) on
// platforms C and D, whose capacity tiers are big enough. Two initial
// placements: "thrashing" (everything starts on the slow tier, triggering
// intensive migration) and "normal" (fast-first allocation).
//
// Flags (defaults in brackets):
//   --scale=N            [64]    size divisor vs the paper's 20M records (> 0)
//   --full               [off]   shorthand for --scale=1: the real dataset,
//                                no 1/64 substitution (~10M simulated pages)
//   --shards=N           [0]     0 = classic single-Sim run; N>0 partitions
//                                records/capacity/ops into N shards driven
//                                by the lockstep parallel engine. --shards=1
//                                is the classic run itself, byte for byte
//   --threads=N          [1]     OS worker threads in sharded mode
//   --epoch=CYCLES       [500000] virtual-time barrier interval (sharded, > 0)
//   --ops=N              [60000] total database operations (>= 1 per shard)
//   --platform=C|D|both  [both]
//   --policy=...         [all]   restrict to one policy
//   --placement=thrashing|normal|both  [both]
//   --metrics_out=PATH   []      machine-readable metrics.json
//   --timeline_out=PATH  []      telemetry timeline CSV per run (the CI
//                                anomaly gate runs timeline_report --check
//                                on these)
//   --timeline_interval=CYCLES [500000] sampling cadence (with more than
//                                one shard, rounded up to whole epochs)
#include <algorithm>
#include <iostream>
#include <string>

#include "bench/bench_common.h"
#include "src/harness/flags.h"
#include "src/harness/sharded_sim.h"

using namespace nomad;

constexpr uint64_t kPaperRecords = 20000000;  // the paper's Redis dataset

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  uint64_t scale = flags.GetUint("scale", 64);
  if (flags.GetBool("full", false)) {
    scale = 1;
  }
  const uint32_t shards = static_cast<uint32_t>(flags.GetUint("shards", 0));
  const uint32_t threads = static_cast<uint32_t>(flags.GetUint("threads", 1));
  const Cycles epoch_cycles = flags.GetUint("epoch", 500000);
  const uint64_t total_ops = flags.GetUint("ops", 60000);
  const std::string platform_arg = flags.GetString("platform", "both");
  const std::string policy_arg = flags.GetString("policy", "");
  const std::string placement_arg = flags.GetString("placement", "both");
  MetricsCollector collector = MetricsCollector::FromFlags("fig14_redis_large", flags);
  const Cycles timeline_interval = flags.GetUint("timeline_interval", 500000);

  const auto unused = flags.UnusedKeys();
  if (!unused.empty()) {
    std::cerr << "unknown flag(s):";
    for (const auto& k : unused) {
      std::cerr << " " << k;
    }
    std::cerr << "\n";
    return 2;
  }
  if (epoch_cycles == 0) {
    std::cerr << "usage: fig14_redis_large [--shards=N] [--epoch=CYCLES]: --epoch must be > 0\n";
    return 2;
  }
  if (scale == 0) {
    std::cerr << "usage: fig14_redis_large [--scale=N]: --scale must be > 0\n";
    return 2;
  }
  // Each shard serves its own slice of the records and of the ops; a shard
  // without either has nothing to run.
  const uint64_t run_shards = std::max<uint32_t>(shards, 1);
  if (total_ops / run_shards == 0) {
    std::cerr << "usage: fig14_redis_large [--ops=N] [--shards=N]: every shard needs at least "
                 "one op\n";
    return 2;
  }
  if (kPaperRecords / scale / run_shards == 0) {
    std::cerr << "usage: fig14_redis_large [--scale=N] [--shards=N]: every shard needs at "
                 "least one record\n";
    return 2;
  }

  std::vector<PlatformId> platforms;
  if (platform_arg == "C" || platform_arg == "both") platforms.push_back(PlatformId::kC);
  if (platform_arg == "D" || platform_arg == "both") platforms.push_back(PlatformId::kD);
  if (platforms.empty()) {
    std::cerr << "unknown platform '" << platform_arg << "' (want C, D, or both)\n";
    return 2;
  }
  std::vector<bool> placements;
  if (placement_arg == "thrashing" || placement_arg == "both") placements.push_back(true);
  if (placement_arg == "normal" || placement_arg == "both") placements.push_back(false);
  if (placements.empty()) {
    std::cerr << "unknown placement '" << placement_arg
              << "' (want thrashing, normal, or both)\n";
    return 2;
  }

  std::cout << "==================================================================\n"
               "Figure 14: Redis + YCSB-A, large RSS (~36.5 GB paper), platforms C/D\n"
               "==================================================================\n";
  std::cout << "scale 1/" << scale << ", " << total_ops << " ops";
  if (shards > 0) {
    std::cout << ", " << shards << " shard(s) on " << threads << " worker thread(s)";
  }
  std::cout << "\n";

  for (PlatformId platform : platforms) {
    std::cout << "\n--- platform " << PlatformName(platform) << " ---\n";
    TablePrinter t({"placement", "policy", "K ops/s", "promotions", "demotions"});
    for (bool thrashing : placements) {
      for (PolicyKind policy : PoliciesFor(platform, /*include_no_migration=*/true)) {
        if (policy == PolicyKind::kMemtisQuickCool) {
          continue;
        }
        if (!policy_arg.empty() && policy_arg != PolicyKindName(policy)) {
          continue;
        }
        YcsbRunConfig cfg;
        cfg.platform = platform;
        cfg.policy = policy;
        cfg.scale_denom = scale;
        cfg.record_count = kPaperRecords / scale;
        cfg.demote_first = thrashing;
        cfg.slow_gb = 64.0;  // large capacity tier (256 GB-class devices)
        cfg.total_ops = total_ops;
        cfg.timeline_interval = collector.timeline_requested() ? timeline_interval : 0;

        const std::string label = std::string(PlatformName(platform)) + "." +
                                  (thrashing ? "thrashing" : "normal") + "." +
                                  PolicyKindName(policy);
        double kops = 0;
        uint64_t promos = 0, demos = 0;
        if (shards > 0) {
          ShardedYcsbConfig scfg;
          scfg.base = cfg;
          scfg.shards = shards;
          scfg.exec_threads = threads;
          scfg.epoch_cycles = epoch_cycles;
          const ShardedAppResult r = RunShardedYcsb(scfg, &collector, label);
          kops = r.aggregate_ops_per_sec / 1e3;
          for (const AppRunResult& shard : r.per_shard) {
            promos += shard.promotions;
            demos += shard.demotions;
          }
        } else {
          const AppRunResult r = RunYcsbBench(cfg, &collector, label);
          kops = r.ops_per_sec / 1e3;
          promos = r.promotions;
          demos = r.demotions;
        }
        t.AddRow({thrashing ? "thrashing" : "normal", PolicyKindName(policy),
                  Fmt(kops, 1), FmtCount(promos), FmtCount(demos)});
      }
    }
    t.Print(std::cout);
  }
  std::cout << "\nExpected shape: NOMAD degrades gracefully and beats TPP under\n"
               "thrashing but trails Memtis at this scale; initial placement barely\n"
               "changes the ranking (performance converges as migration proceeds).\n";
  return 0;
}
