// Ablation: non-exclusive tiering (page shadowing) vs exclusive tiering
// inside NOMAD. With shadowing disabled, every demotion must copy the page
// back to the slow tier; with it, clean masters demote by a PTE remap.
#include <iostream>
#include <string>

#include "bench/bench_common.h"

using namespace nomad;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  MetricsCollector collector = MetricsCollector::FromFlags("ablation_shadowing", flags);
  if (!AllFlagsRead(flags, "ablation_shadowing [--metrics_out=PATH] [--trace_out=PATH]")) {
    return 2;
  }
  PrintHeader("Ablation", "page shadowing (non-exclusive) vs exclusive tiering in NOMAD",
              PlatformId::kA, 64);

  TablePrinter t({"variant", "workload", "stable GB/s", "remap demotions",
                  "copy demotions", "shadow faults"});
  for (double wf : {0.0, 0.5}) {
    const char* wl = wf > 0 ? "50% write" : "read";
    MicroRunConfig cfg = MediumWssConfig(PlatformId::kA, PolicyKind::kNomad);
    cfg.placement = Placement::kFrequencyOpt;
    cfg.write_fraction = wf;
    for (bool shadowing : {true, false}) {
      cfg.nomad.kpromote.shadowing = shadowing;
      const char* variant = shadowing ? "shadowing" : "exclusive";
      const MicroRunResult r = RunMicroBench(
          cfg, &collector, std::string(variant) + (wf > 0 ? "-write" : "-read"));
      t.AddRow({variant, wl, Fmt(r.report.stable_gbps),
                FmtCount(r.counters.Get("nomad.demote_remap")),
                FmtCount(r.counters.Get("nomad.demote_copy")),
                FmtCount(r.counters.Get("nomad.shadow_fault"))});
    }
  }
  t.Print(std::cout);
  std::cout << "\nExpected shape (paper, sec. 3.2 and the write results of sec. 4.1):\n"
               "with shadowing, a share of demotions become remaps (free) under\n"
               "read-mostly thrashing; with writes, shadow faults discard shadows and\n"
               "the benefit shrinks. This run deviates: no demotion becomes a remap\n"
               "in any row, so shadowing saves no copy and only adds shadow faults\n"
               "under writes.\n";
  return 0;
}
