// Figure 16: Liblinear with a much larger model and RSS on platforms C
// and D. TPP's synchronous migration collapses (the paper observed bursts
// of kernel CPU time); NOMAD stays consistently fast.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/bench_common.h"

using namespace nomad;

int main(int argc, char** argv) {
  if (!AllFlagsRead(Flags(argc, argv), "fig16_liblinear_large")) {
    return 2;
  }
  std::cout << "==================================================================\n"
               "Figure 16: Liblinear, large model/RSS (~40 GB paper), platforms C/D\n"
               "==================================================================\n";

  for (PlatformId platform : {PlatformId::kC, PlatformId::kD}) {
    std::cout << "\n--- platform " << PlatformName(platform) << " ---\n";
    std::vector<PolicyKind> policies = PoliciesFor(platform, /*include_no_migration=*/true);
    std::erase(policies, PolicyKind::kMemtisQuickCool);

    std::vector<double> ops;
    for (PolicyKind policy : policies) {
      LiblinearRunConfig cfg;
      cfg.platform = platform;
      cfg.policy = policy;
      cfg.scale_denom = 128;
      cfg.samples = 40960;
      cfg.model_pages = 16384;   // 8 GB-paper shared model
      cfg.features_per_sample = 12;
      cfg.epochs = 4;
      cfg.slow_gb = 64.0;
      cfg.kernel_gb = 11.0;  // large-RSS regime: DRAM far smaller than the WSS
      const AppRunResult r = RunLiblinearBench(cfg);
      ops.push_back(r.ops_per_sec);
    }
    const double slowest = *std::min_element(ops.begin(), ops.end());
    TablePrinter t({"policy", "samples/s", "normalized"});
    for (size_t i = 0; i < policies.size(); i++) {
      t.AddRow({PolicyKindName(policies[i]), FmtCount(static_cast<uint64_t>(ops[i])),
                Fmt(ops[i] / slowest, 2)});
    }
    t.Print(std::cout);
  }
  std::cout << "\nExpected shape: NOMAD consistently the fastest; TPP's synchronous\n"
               "migration degrades badly at this scale (paper: frequent kernel-time\n"
               "bursts); Memtis in between.\n";
  return 0;
}
