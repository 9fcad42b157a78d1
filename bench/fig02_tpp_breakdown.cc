// Figure 2: time breakdown of the application core while TPP actively
// relocates pages - synchronous page migration and page fault handling
// consume a large share of the runtime, while the demotion core (kswapd)
// stays comparatively idle.
#include <iostream>

#include "bench/bench_common.h"

using namespace nomad;

int main(int argc, char** argv) {
  if (!AllFlagsRead(Flags(argc, argv), "fig02_tpp_breakdown")) {
    return 2;
  }
  PrintHeader("Figure 2", "runtime breakdown of TPP during migration", PlatformId::kA, 64);

  MicroRunConfig cfg = MediumWssConfig(PlatformId::kA, PolicyKind::kTpp);
  cfg.placement = Placement::kRandom;
  cfg.total_ops = 1200000;
  cfg.threads = 1;  // single app core, like the paper's per-core breakdown
  const MicroRunResult r = RunMicroBench(cfg);

  const KernelCosts costs = MakePlatform(PlatformId::kA).costs;
  const double total = static_cast<double>(r.report.total_cycles);
  const double fault_handling =
      static_cast<double>(r.counters.Get("fault.hint") * costs.page_fault);
  const double promotion = static_cast<double>(r.counters.Get("tpp.promote_cycles"));
  const double demotion_core = static_cast<double>(r.counters.Get("kswapd.cycles"));
  const double user = total - fault_handling - promotion;

  TablePrinter t({"component", "cycles", "% of app core"});
  t.AddRow({"user execution (incl. device time)", FmtCount(static_cast<uint64_t>(user)),
            Fmt(user / total * 100, 1)});
  t.AddRow({"page fault handling", FmtCount(static_cast<uint64_t>(fault_handling)),
            Fmt(fault_handling / total * 100, 1)});
  t.AddRow({"synchronous promotion (migration)", FmtCount(static_cast<uint64_t>(promotion)),
            Fmt(promotion / total * 100, 1)});
  t.Print(std::cout);

  std::cout << "\ndemotion (kswapd, on its own core, off the critical path): "
            << FmtCount(static_cast<uint64_t>(demotion_core)) << " cycles = "
            << Fmt(demotion_core / total * 100, 1) << "% of the run\n"
            << "\nExpected shape: fault handling + synchronous promotion consume a\n"
               "large share of the application core (the paper's point); demotion\n"
               "work runs on a separate core and never blocks the application.\n";
  return 0;
}
