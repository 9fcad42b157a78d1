// Ablation (paper sec. 5 extension): the thrash governor. Under a
// large-WSS run the paper observes that the best strategy is to disable
// migration entirely; the governor detects the balanced promotion/demotion
// signature and throttles promotions automatically, moving NOMAD toward
// the no-migration optimum while leaving fitting workloads untouched.
#include <iostream>

#include "bench/bench_common.h"

using namespace nomad;

int main(int argc, char** argv) {
  if (!AllFlagsRead(Flags(argc, argv), "ablation_governor")) {
    return 2;
  }
  PrintHeader("Ablation", "thrash governor (sec. 5 future work): throttle promotions "
              "when promotion ~ demotion", PlatformId::kA, 64);

  struct Case {
    const char* label;
    MicroRunConfig config;
  };
  const Case cases[] = {
      {"medium WSS (fits-ish)", MediumWssConfig(PlatformId::kA, PolicyKind::kNomad)},
      {"large WSS (thrashes)", LargeWssConfig(PlatformId::kA, PolicyKind::kNomad)},
  };

  TablePrinter t({"case", "variant", "overall GB/s", "stable GB/s", "promotions",
                  "throttles"});
  for (const Case& c : cases) {
    MicroRunConfig cfg = c.config;
    cfg.placement = Placement::kFrequencyOpt;
    cfg.total_ops = 2000000;
    const MicroRunResult plain = RunMicroBench(cfg);
    cfg.nomad.enable_governor = true;
    const MicroRunResult governed = RunMicroBench(cfg);
    cfg.policy = PolicyKind::kNoMigration;
    const MicroRunResult nomig = RunMicroBench(cfg);
    t.AddRow({c.label, "nomad", Fmt(plain.report.overall_gbps), Fmt(plain.report.stable_gbps),
              FmtCount(Promotions(plain.counters)), "0"});
    t.AddRow({"", "nomad + governor", Fmt(governed.report.overall_gbps),
              Fmt(governed.report.stable_gbps), FmtCount(Promotions(governed.counters)),
              FmtCount(governed.counters.Get("governor.throttle"))});
    t.AddRow({"", "no-migration", Fmt(nomig.report.overall_gbps),
              Fmt(nomig.report.stable_gbps), "0", "-"});
  }
  t.Print(std::cout);
  std::cout << "\nExpected shape: on the thrashing case the governor throttles and\n"
               "recovers part of the gap to the no-migration optimum (about a fifth\n"
               "of it in stable bandwidth); on the fitting case it stays out of the\n"
               "way (no throttle events, the same numbers as plain NOMAD).\n";
  return 0;
}
