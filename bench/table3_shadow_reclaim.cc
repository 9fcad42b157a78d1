// Table 3: shadow-memory footprint vs RSS on platform B (30.7 GB of
// tiered memory). As the application's RSS approaches total capacity,
// NOMAD must reclaim shadow pages to avoid OOM; the shadow footprint
// shrinks accordingly. Each RSS runs at three seeds.
#include <iostream>

#include "bench/bench_common.h"

using namespace nomad;

int main(int argc, char** argv) {
  if (!AllFlagsRead(Flags(argc, argv), "table3_shadow_reclaim")) {
    return 2;
  }
  PrintHeader("Table 3", "shadow memory size as RSS approaches capacity", PlatformId::kB, 64);

  const uint64_t seeds[] = {1, 2, 3};
  TablePrinter t({"RSS (GB)", "shadow (GB) seed 1", "seed 2", "seed 3", "OOM events"});
  for (double rss_gb : {23.0, 25.0, 27.0, 29.0}) {
    std::vector<std::string> row = {Fmt(rss_gb, 0)};
    uint64_t ooms = 0;
    for (uint64_t seed : seeds) {
      const MicroRunConfig cfg = ShadowReclaimConfig(rss_gb, seed);
      const MicroRunResult r = RunMicroBench(cfg);
      row.push_back(Fmt(Scale{cfg.scale_denom}.ToPaperGb(r.shadow_pages * kPageSize), 2));
      ooms += r.counters.Get(cnt::kOom);
    }
    row.push_back(std::to_string(ooms));
    t.AddRow(row);
  }
  t.Print(std::cout);
  std::cout << "\nExpected shape: the shadow footprint shrinks as RSS nears capacity (paper:\n"
               "3.93 / 2.68 / 2.20 / 0.58 GB at 23 / 25 / 27 / 29 GB RSS), and no OOM ever\n"
               "occurs because reclamation keeps pace. At 23 and 25 GB no shadow is\n"
               "reclaimed: the footprint equals the committed promotions, and 23 GB\n"
               "commits fewer of them, so it reads below 25 GB.\n";
  return 0;
}
