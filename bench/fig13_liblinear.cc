// Figure 13: Liblinear (L1-regularized logistic regression, RSS ~10 GB,
// dataset demoted to the slow tier before each run), normalized to the
// slowest policy. The hot model vector fits easily in fast memory, so
// policies that promote it promptly (NOMAD, TPP) win big.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/bench_common.h"

using namespace nomad;

int main(int argc, char** argv) {
  if (!AllFlagsRead(Flags(argc, argv), "fig13_liblinear")) {
    return 2;
  }
  std::cout << "==================================================================\n"
               "Figure 13: Liblinear performance, normalized to the slowest policy\n"
               "RSS ~10 GB paper-equivalent, dataset demoted before the run\n"
               "==================================================================\n";

  for (PlatformId platform : {PlatformId::kA, PlatformId::kC, PlatformId::kD}) {
    std::cout << "\n--- platform " << PlatformName(platform) << " ---\n";
    std::vector<PolicyKind> policies = PoliciesFor(platform, /*include_no_migration=*/true);
    std::erase(policies, PolicyKind::kMemtisQuickCool);

    std::vector<double> ops;
    for (PolicyKind policy : policies) {
      LiblinearRunConfig cfg;
      cfg.platform = platform;
      cfg.policy = policy;
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
  std::cout << "\nExpected shape: NOMAD and TPP beat no-migration and Memtis by a wide\n"
               "margin (paper: 20-150%), because they promptly promote the hot model\n"
               "pages that Memtis's sampling is slow to find.\n";
  return 0;
}
