// Figure 7: micro-benchmark comparison on platform A (Sapphire Rapids +
// FPGA CXL memory).
#include "bench/micro_grid.h"

int main(int argc, char** argv) {
  if (!nomad::AllFlagsRead(nomad::Flags(argc, argv), "fig07_micro_platform_a")) {
    return 2;
  }
  nomad::RunMicroGrid(nomad::PlatformId::kA, "Figure 7");
  return 0;
}
