// Figure 11: Redis + YCSB workload-A throughput across three cases:
//  case 1: RSS 13 GB (6M records), dataset demoted to the slow tier first,
//  case 2: RSS 24 GB (10M records), demoted first,
//  case 3: same as case 2 but *not* demoted (fast-first placement).
// Run on platforms A, C and D (B behaves like A in the paper).
#include <iostream>

#include "bench/bench_common.h"

using namespace nomad;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  MetricsCollector collector = MetricsCollector::FromFlags("fig11_redis_ycsb", flags);
  if (!AllFlagsRead(flags, "fig11_redis_ycsb [--metrics_out=PATH] [--trace_out=PATH]"
                           " [--profile_out=PATH]")) {
    return 2;
  }
  std::cout << "==================================================================\n"
               "Figure 11: Redis + YCSB-A throughput (K ops/s, simulated)\n"
               "sizes scaled 1/64; record = 1 KB value + overhead (2 KB)\n"
               "==================================================================\n";

  struct Case {
    const char* label;
    const char* id;    // metrics label stem
    uint64_t records;  // scaled
    bool demote_first;
  };
  const Case cases[] = {
      {"case 1 (13GB, demoted)", "case1", 93750, true},    // ~6M paper records
      {"case 2 (24GB, demoted)", "case2", 156250, true},   // ~10M paper records
      {"case 3 (24GB, in place)", "case3", 156250, false},
  };

  for (PlatformId platform : {PlatformId::kA, PlatformId::kC, PlatformId::kD}) {
    std::cout << "\n--- platform " << PlatformName(platform) << " ---\n";
    TablePrinter t({"case", "policy", "K ops/s", "promotions"});
    for (const Case& c : cases) {
      for (PolicyKind policy : PoliciesFor(platform, /*include_no_migration=*/true)) {
        YcsbRunConfig cfg;
        cfg.platform = platform;
        cfg.policy = policy;
        cfg.record_count = c.records;
        cfg.demote_first = c.demote_first;
        cfg.total_ops = 60000;
        const std::string label = std::string(PlatformName(platform)) + "-" + c.id + "-" +
                                  PolicyKindName(policy);
        const AppRunResult r = RunYcsbBench(cfg, &collector, label);
        t.AddRow({c.label, PolicyKindName(policy), Fmt(r.ops_per_sec / 1e3, 1),
                  FmtCount(r.promotions)});
      }
    }
    t.Print(std::cout);
  }
  std::cout << "\nExpected shape (paper sec. 4.2): NOMAD beats TPP everywhere; NOMAD\n"
               "beats Memtis in case 1 (small WSS) but falls behind as the RSS grows\n"
               "(cases 2-3); and every migrating policy trails the no-migration\n"
               "baseline, because YCSB's accesses are too random for migration to\n"
               "pay for itself.\n";
  return 0;
}
