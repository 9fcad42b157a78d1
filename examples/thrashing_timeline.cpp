// Example: bandwidth timeline under memory thrashing.
//
// Runs the paper's large-WSS scenario (27 GB working set against 16 GB of
// fast memory) under TPP and NOMAD and prints the achieved bandwidth per
// time window, making the difference in *degradation behaviour* visible:
// TPP collapses while it thrashes synchronously; NOMAD degrades gracefully
// because promotion is asynchronous and demotion is mostly a remap.
//
//   $ ./thrashing_timeline
#include <iostream>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/table.h"
#include "src/workload/micro.h"

using namespace nomad;

namespace {

std::vector<double> RunTimeline(PolicyKind kind) {
  const Scale scale{64};
  const PlatformSpec platform = MakePlatform(PlatformId::kA, scale);
  Sim sim(platform, kind, scale.Pages(27.0) + 16);

  MicroLayout layout;
  layout.rss_pages = scale.Pages(27.0);
  layout.wss_pages = scale.Pages(27.0);
  layout.wss_fast_pages = scale.Pages(16.0);
  layout.kernel_pages = scale.Pages(3.5);
  ScrambledZipfian zipf(layout.wss_pages, 0.99, 11);
  const Vpn wss_start = SetupMicroLayout(sim, layout, zipf);

  MicroWorkload::Config cfg;
  cfg.base.total_ops = 1200000;
  cfg.base.bandwidth_window = 20000000;  // ~10 ms windows at 2.1 GHz
  cfg.wss_start = wss_start;
  cfg.wss_pages = layout.wss_pages;
  MicroWorkload app(&sim.ms(), &sim.as(), &zipf, cfg);
  sim.AddWorkload(&app);
  sim.Run();

  std::vector<double> series;
  const double window = static_cast<double>(app.bandwidth().window_cycles());
  for (uint64_t bytes : app.bandwidth().windows()) {
    series.push_back(static_cast<double>(bytes) / window * platform.ghz);  // GB/s
  }
  return series;
}

std::string Bar(double gbps, double max) {
  const int width = static_cast<int>(gbps / max * 40);
  return std::string(width, '#');
}

}  // namespace

int main() {
  std::cout << "Bandwidth timeline under severe thrashing (27 GB WSS vs 16 GB DRAM)\n"
            << "platform A, ~10 ms windows\n\n";
  const std::vector<double> tpp = RunTimeline(PolicyKind::kTpp);
  const std::vector<double> nomad = RunTimeline(PolicyKind::kNomad);

  const size_t n = std::min<size_t>(24, std::min(tpp.size(), nomad.size()));
  double max = 0.01;
  for (size_t i = 0; i < n; i++) {
    max = std::max({max, tpp[i], nomad[i]});
  }
  std::cout << "window |  TPP GB/s                                    | NOMAD GB/s\n";
  for (size_t i = 0; i < n; i++) {
    printf("%6zu | %5.2f %-40s | %5.2f %s\n", i, tpp[i], Bar(tpp[i], max).c_str(), nomad[i],
           Bar(nomad[i], max).c_str());
  }
  std::cout << "\nNOMAD sustains usable bandwidth throughout; TPP's synchronous\n"
               "promotions keep the application blocked while it thrashes.\n";
  return 0;
}
