// Table 2: page promotion/demotion counts for the read and write variants
// of the micro-benchmark, split into "migration in progress" (first half)
// and "steady" (second half) phases, for TPP / Memtis-Default / NOMAD on
// platform A.
//
// Counts scale with the run length (the paper ran minutes of wall time;
// this harness runs a fixed operation budget), so compare *ratios*: TPP
// and NOMAD migrate orders of magnitude more than Memtis, and activity
// collapses in the steady phase for small WSS but persists for large WSS.
#include <iostream>

#include "bench/bench_common.h"

using namespace nomad;

namespace {

struct PhaseCounts {
  uint64_t promo_first, demo_first, promo_steady, demo_steady;
};

PhaseCounts CountsOf(const MicroRunResult& r) {
  return {Promotions(r.first_half), Demotions(r.first_half),
          Promotions(r.counters) - Promotions(r.first_half),
          Demotions(r.counters) - Demotions(r.first_half)};
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  MetricsCollector collector = MetricsCollector::FromFlags("table2_migration_counts", flags);
  if (!AllFlagsRead(flags, "table2_migration_counts [--metrics_out=PATH] [--trace_out=PATH]")) {
    return 2;
  }
  PrintHeader("Table 2", "promotions/demotions per phase (read | write runs)",
              PlatformId::kA, 64);

  struct Row {
    const char* wss;
    const char* slug;
    MicroRunConfig (*make)(PlatformId, PolicyKind);
  };
  const Row rows[] = {
      {"Small WSS", "small", SmallWssConfig},
      {"Medium WSS", "medium", MediumWssConfig},
      {"Large WSS", "large", LargeWssConfig},
  };
  const PolicyKind policies[] = {PolicyKind::kTpp, PolicyKind::kMemtisDefault,
                                 PolicyKind::kNomad};

  TablePrinter t({"workload", "policy", "in-prog promo (r|w)", "in-prog demo (r|w)",
                  "steady promo (r|w)", "steady demo (r|w)"});
  for (const Row& row : rows) {
    for (PolicyKind policy : policies) {
      MicroRunConfig cfg_r = row.make(PlatformId::kA, policy);
      MicroRunConfig cfg_w = cfg_r;
      cfg_w.write_fraction = 1.0;
      const std::string tag =
          std::string(PolicyKindName(policy)) + "-" + row.slug;
      const PhaseCounts r = CountsOf(RunMicroBench(cfg_r, &collector, tag + "-read"));
      const PhaseCounts w = CountsOf(RunMicroBench(cfg_w, &collector, tag + "-write"));
      t.AddRow({row.wss, PolicyKindName(policy),
                FmtCount(r.promo_first) + "|" + FmtCount(w.promo_first),
                FmtCount(r.demo_first) + "|" + FmtCount(w.demo_first),
                FmtCount(r.promo_steady) + "|" + FmtCount(w.promo_steady),
                FmtCount(r.demo_steady) + "|" + FmtCount(w.demo_steady)});
    }
  }
  t.Print(std::cout);
  std::cout << "\nExpected shape: fault-driven policies (TPP, NOMAD) migrate heavily;\n"
               "Memtis migrates orders of magnitude less; steady-phase activity is\n"
               "near zero for small WSS and stays high under large-WSS thrashing.\n";
  return 0;
}
