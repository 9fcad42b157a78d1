// Figure 15: PageRank at a very large scale (RSS ~45-50 GB paper) on
// platforms C and D. The 16 GB fast tier can no longer hold the working
// set, so page placement matters: NOMAD roughly doubles TPP.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/bench_common.h"

using namespace nomad;

int main(int argc, char** argv) {
  if (!AllFlagsRead(Flags(argc, argv), "fig15_pagerank_large")) {
    return 2;
  }
  std::cout << "==================================================================\n"
               "Figure 15: PageRank, large RSS (~45 GB paper), platforms C/D\n"
               "==================================================================\n";

  for (PlatformId platform : {PlatformId::kC, PlatformId::kD}) {
    std::cout << "\n--- platform " << PlatformName(platform) << " ---\n";
    std::vector<PolicyKind> policies = PoliciesFor(platform, /*include_no_migration=*/true);
    std::erase(policies, PolicyKind::kMemtisQuickCool);

    std::vector<double> ops;
    for (PolicyKind policy : policies) {
      PageRankRunConfig cfg;
      cfg.platform = platform;
      cfg.policy = policy;
      cfg.scale_denom = 128;
      cfg.vertices = 1 << 21;  // 2^28-class paper graph at 1/128 scale
      cfg.neighbor_sample = 2;
      cfg.slow_gb = 64.0;
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
  std::cout << "\nExpected shape: with the WSS far beyond DRAM, NOMAD reaches ~2x TPP\n"
               "(paper) and edges out Memtis on platform C.\n";
  return 0;
}
