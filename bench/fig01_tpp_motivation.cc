// Figure 1: the motivating comparison - TPP while migrating ("in
// progress"), TPP after relocation finishes ("stable"), and a baseline
// with migration disabled, across WSS sizes and initial placements.
//
// Paper shape to reproduce:
//  - "no migration" is consistently and substantially better than "TPP in
//    progress",
//  - with 10 GB WSS, "TPP stable" eventually wins big when the initial
//    placement is random (hot pages start on CXL),
//  - with 24 GB WSS (exceeding fast memory), TPP never stabilizes:
//    stable ~ in-progress, both poor.
#include <iostream>

#include "bench/bench_common.h"

using namespace nomad;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  MetricsCollector collector = MetricsCollector::FromFlags("fig01_tpp_motivation", flags);
  if (!AllFlagsRead(flags, "fig01_tpp_motivation [--metrics_out=PATH] [--trace_out=PATH]")) {
    return 2;
  }
  PrintHeader("Figure 1", "achieved bandwidth: TPP vs no-migration", PlatformId::kA, 64);

  struct Case {
    const char* label;
    double wss_gb;
    Placement placement;
  };
  const Case cases[] = {
      {"10GB WSS, Frequency-opt", 10.0, Placement::kFrequencyOpt},
      {"10GB WSS, Random", 10.0, Placement::kRandom},
      {"24GB WSS, Frequency-opt", 24.0, Placement::kFrequencyOpt},
      {"24GB WSS, Random", 24.0, Placement::kRandom},
  };

  TablePrinter t({"case", "TPP in progress GB/s", "TPP stable GB/s", "no migration GB/s"});
  for (const Case& c : cases) {
    // The benchmark pre-allocates 10 GB in fast memory to emulate existing
    // usage, then allocates the WSS (sec. 2.1).
    MicroRunConfig cfg;
    cfg.platform = PlatformId::kA;
    cfg.rss_gb = 10.0 + c.wss_gb;
    cfg.wss_gb = c.wss_gb;
    // 10 GB pre-fill + kernel leaves ~2.5 GB of the 16 GB node for the WSS.
    cfg.wss_fast_gb = 2.5;
    cfg.placement = c.placement;
    cfg.total_ops = 4800000;  // TPP needs time to finish relocating

    const std::string tag = std::to_string(static_cast<int>(c.wss_gb)) + "gb-" +
                            (c.placement == Placement::kRandom ? "random" : "freq");
    cfg.policy = PolicyKind::kTpp;
    const MicroRunResult tpp = RunMicroBench(cfg, &collector, "tpp-" + tag);
    cfg.policy = PolicyKind::kNoMigration;
    const MicroRunResult nomig = RunMicroBench(cfg, &collector, "no-migration-" + tag);

    t.AddRow({c.label, Fmt(tpp.report.transient_gbps), Fmt(tpp.report.stable_gbps),
              Fmt(nomig.report.overall_gbps)});
  }
  t.Print(std::cout);
  std::cout << "\nExpected shape: no-migration >> TPP-in-progress everywhere; TPP-stable\n"
               "recovers (and beats no-migration under random placement) only when the\n"
               "WSS fits in fast memory; at 24 GB WSS TPP thrashes and never recovers.\n";
  return 0;
}
