// Figure 8: micro-benchmark comparison on platform C (Cascade Lake +
// Optane persistent memory; full PEBS visibility for Memtis).
#include "bench/micro_grid.h"

int main(int argc, char** argv) {
  if (!nomad::AllFlagsRead(nomad::Flags(argc, argv), "fig08_micro_platform_c")) {
    return 2;
  }
  nomad::RunMicroGrid(nomad::PlatformId::kC, "Figure 8");
  return 0;
}
