// Ablation: the promotion candidate queue's examination pace. The PCQ's
// exam batch size sets the recency window (one full queue cycle at
// kpromote's pace). Also reports faults-per-promotion against TPP, the
// paper's headline PCQ benefit (1 vs up to 15).
#include <iostream>
#include <string>

#include "bench/bench_common.h"

using namespace nomad;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  MetricsCollector collector = MetricsCollector::FromFlags("ablation_pcq", flags);
  if (!AllFlagsRead(flags, "ablation_pcq [--metrics_out=PATH] [--trace_out=PATH]")) {
    return 2;
  }
  PrintHeader("Ablation", "PCQ examination pace + faults per promotion", PlatformId::kA, 64);

  TablePrinter t({"variant", "stable GB/s", "promotions", "hint faults",
                  "faults/promotion"});
  auto add_row = [&t](const std::string& variant, const MicroRunResult& r) {
    const uint64_t promotions = Promotions(r.counters);
    const uint64_t hint_faults = r.counters.Get("fault.hint");
    t.AddRow({variant, Fmt(r.report.stable_gbps), FmtCount(promotions), FmtCount(hint_faults),
              Fmt(promotions == 0
                      ? 0.0
                      : static_cast<double>(hint_faults) / static_cast<double>(promotions),
                  2)});
  };
  MicroRunConfig cfg = MediumWssConfig(PlatformId::kA, PolicyKind::kNomad);
  cfg.placement = Placement::kFrequencyOpt;
  cfg.threads = 1;
  cfg.total_ops = 2000000;
  for (size_t batch : {16, 64, 256}) {
    cfg.nomad.kpromote.pcq_scan_batch = batch;
    add_row("NOMAD, scan batch " + std::to_string(batch),
            RunMicroBench(cfg, &collector, "nomad-batch" + std::to_string(batch)));
  }
  cfg.policy = PolicyKind::kTpp;
  add_row("TPP (no PCQ, pagevec-gated)", RunMicroBench(cfg, &collector));
  t.Print(std::cout);
  std::cout << "\nExpected shape: at small batches NOMAD needs fewer hint faults per\n"
               "promoted page than TPP (candidacy never re-arms). Larger batches\n"
               "promote fewer pages for about the same faults, so at batch 256 NOMAD\n"
               "needs more faults per promotion than TPP; the batch size trades\n"
               "promotion count against stable bandwidth.\n";
  return 0;
}
