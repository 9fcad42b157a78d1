// Figure 9: micro-benchmark comparison on platform D (AMD Genoa + Micron
// CXL). Memtis is excluded: no IBS sampling backend (paper sec. 4).
#include "bench/micro_grid.h"

int main(int argc, char** argv) {
  if (!nomad::AllFlagsRead(nomad::Flags(argc, argv), "fig09_micro_platform_d")) {
    return 2;
  }
  nomad::RunMicroGrid(nomad::PlatformId::kD, "Figure 9");
  return 0;
}
