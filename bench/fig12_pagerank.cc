// Figure 12: PageRank (synthetic uniform graph, 2^26 paper-scale vertices,
// average degree 20, RSS ~22 GB) normalized performance. The paper's
// finding: migration barely matters - CXL/PM expand capacity for this
// non-latency-sensitive workload with negligible penalty.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/bench_common.h"

using namespace nomad;

int main(int argc, char** argv) {
  if (!AllFlagsRead(Flags(argc, argv), "fig12_pagerank")) {
    return 2;
  }
  std::cout << "==================================================================\n"
               "Figure 12: PageRank performance, normalized to the slowest policy\n"
               "2^20 scaled vertices (2^26 paper), degree 20, sizes scaled 1/64\n"
               "==================================================================\n";

  for (PlatformId platform : {PlatformId::kA, PlatformId::kC, PlatformId::kD}) {
    std::cout << "\n--- platform " << PlatformName(platform) << " ---\n";
    std::vector<PolicyKind> policies = PoliciesFor(platform, /*include_no_migration=*/true);
    // Thin out the grid: QuickCool behaves like Default here.
    std::erase(policies, PolicyKind::kMemtisQuickCool);

    std::vector<double> ops;
    for (PolicyKind policy : policies) {
      PageRankRunConfig cfg;
      cfg.platform = platform;
      cfg.policy = policy;
      cfg.vertices = 1 << 20;
      const AppRunResult r = RunPageRankBench(cfg);
      ops.push_back(r.ops_per_sec);
    }
    const double slowest = *std::min_element(ops.begin(), ops.end());
    TablePrinter t({"policy", "vertices/s", "normalized"});
    for (size_t i = 0; i < policies.size(); i++) {
      t.AddRow({PolicyKindName(policies[i]), FmtCount(static_cast<uint64_t>(ops[i])),
                Fmt(ops[i] / slowest, 2)});
    }
    t.Print(std::cout);
  }
  std::cout << "\nExpected shape: negligible variance between migration policies and\n"
               "no-migration (within ~10-20%); Memtis tends to be the least efficient.\n";
  return 0;
}
