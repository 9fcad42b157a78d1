// Figure 10: average cache-line access latency of the block pointer-chase
// workload on platform C - the scenario crafted to *favor* PEBS tracking
// (every access misses the LLC, so Memtis can sample everything). The
// paper finds that fault-based policies (NOMAD, TPP) still place pages
// better once the WSS exceeds fast-memory capacity; this simulator does
// not reproduce that (see EXPERIMENTS.md).
#include <iostream>

#include "bench/bench_common.h"

using namespace nomad;

namespace {

double RunChase(PolicyKind policy, double wss_gb, MetricsCollector* collector) {
  const std::string label =
      std::string(PolicyKindName(policy)) + "-" + std::to_string(static_cast<int>(wss_gb)) + "gb";
  return RunPointerChaseBench(policy, static_cast<uint64_t>(wss_gb), collector, label)
      .mean_latency_cycles;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  MetricsCollector collector = MetricsCollector::FromFlags("fig10_pointer_chase", flags);
  if (!AllFlagsRead(flags, "fig10_pointer_chase [--metrics_out=PATH] [--trace_out=PATH]")) {
    return 2;
  }
  PrintHeader("Figure 10", "pointer-chase average cache-line latency vs WSS", PlatformId::kC,
              64);

  const double wss_points[] = {8, 12, 16, 20, 24, 28};
  TablePrinter t({"WSS (GB)", "no-migration (cyc)", "TPP (cyc)", "memtis-default (cyc)",
                  "NOMAD (cyc)"});
  for (double wss : wss_points) {
    t.AddRow({Fmt(wss, 0), Fmt(RunChase(PolicyKind::kNoMigration, wss, &collector), 0),
              Fmt(RunChase(PolicyKind::kTpp, wss, &collector), 0),
              Fmt(RunChase(PolicyKind::kMemtisDefault, wss, &collector), 0),
              Fmt(RunChase(PolicyKind::kNomad, wss, &collector), 0)});
  }
  t.Print(std::cout);
  std::cout << "\nReference: DRAM ~" << MakePlatform(PlatformId::kC).tiers[0].read_latency
            << " cycles, Optane PM ~" << MakePlatform(PlatformId::kC).tiers[1].read_latency
            << " cycles per dependent load.\n"
            << "Expected shape (paper): while the WSS fits (<=12 GB after the kernel's\n"
               "share), every policy approaches DRAM latency; beyond it, Memtis's latency\n"
               "climbs toward PM while the fault-based NOMAD/TPP stay much lower.\n"
               "Documented deviation (EXPERIMENTS.md): the idealized PEBS model places\n"
               "blocks nearly optimally, so Memtis stays close to no-migration and NOMAD\n"
               "beyond the fast tier, and TPP pays most for its faults at MLP 1.\n";
  return 0;
}
