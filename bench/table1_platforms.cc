// Table 1: testbed configurations and memory-device characteristics.
//
// Prints the four platform presets and validates the device model against
// them by measuring the model's unloaded latency and saturated bandwidth.
#include <iostream>

#include "bench/bench_common.h"
#include "src/mem/device.h"

using namespace nomad;

namespace {

// Measures the model's saturated bandwidth in GB/s for one channel.
double MeasurePeakGbps(DeviceChannel channel, double ghz) {
  Cycles done = 0;
  constexpr int kRequests = 2000;
  for (int i = 0; i < kRequests; i++) {
    done = channel.Access(0, 4096);
  }
  return static_cast<double>(kRequests) * 4096.0 / static_cast<double>(done) * ghz;
}

}  // namespace

int main(int argc, char** argv) {
  if (!AllFlagsRead(Flags(argc, argv), "table1_platforms")) {
    return 2;
  }
  std::cout << "Table 1: the four testbeds and their memory devices\n"
            << "(model check: 'meas' columns are measured from the simulator's\n"
            << " device model and must match the preset)\n\n";

  TablePrinter t({"platform", "cpu", "tier", "device", "read lat (cyc)", "peak read GB/s",
                  "meas GB/s", "capacity"});
  for (PlatformId id :
       {PlatformId::kA, PlatformId::kB, PlatformId::kC, PlatformId::kD}) {
    const Scale scale{1};  // unscaled for the spec table
    const PlatformSpec p = MakePlatform(id, scale, 16.0,
                                        id == PlatformId::kC   ? 256.0 * 6
                                        : id == PlatformId::kD ? 256.0 * 4
                                                               : 16.0);
    for (int tier = 0; tier < kNumTiers; tier++) {
      const TierSpec& spec = p.tiers[tier];
      DeviceChannel read(spec.read_latency, spec.read_bw_single, spec.read_bw_peak);
      const double meas = MeasurePeakGbps(read, p.ghz);
      t.AddRow({tier == 0 ? p.name : "", tier == 0 ? p.cpu : "",
                tier == 0 ? "fast" : "slow", tier == 0 ? "DDR DRAM" : p.slow_device,
                std::to_string(spec.read_latency), Fmt(spec.read_bw_peak * p.ghz, 2),
                Fmt(meas, 2),
                Fmt(static_cast<double>(spec.capacity_bytes) / (1 << 30), 0) + " GB"});
    }
  }
  t.Print(std::cout);

  std::cout << "\nPEBS visibility (drives the Memtis baseline):\n";
  TablePrinter v({"platform", "pebs/ibs", "sees slow-tier read misses"});
  for (PlatformId id :
       {PlatformId::kA, PlatformId::kB, PlatformId::kC, PlatformId::kD}) {
    const PlatformSpec p = MakePlatform(id);
    v.AddRow({p.name, p.pebs_supported ? "yes" : "no",
              p.pebs_sees_slow_reads ? "yes" : "no (uncore)"});
  }
  v.Print(std::cout);
  return 0;
}
