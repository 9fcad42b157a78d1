// Virtual-time primitives shared by the whole simulator.
//
// All latencies, copy costs and device service times in the simulator are
// expressed in CPU cycles of the simulated machine. Wall-clock seconds are
// derived through the platform's clock frequency (see mem/platform.h).
#ifndef SRC_SIM_CLOCK_H_
#define SRC_SIM_CLOCK_H_

#include <cstdint>

namespace nomad {

// A point in, or a span of, simulated time, measured in CPU cycles.
using Cycles = uint64_t;

// Sentinel used by actors that have no work scheduled; the engine skips them
// until they are explicitly woken.
inline constexpr Cycles kNever = ~Cycles{0};

// Converts cycles to seconds at the given core frequency.
inline double CyclesToSeconds(Cycles c, double ghz) { return static_cast<double>(c) / (ghz * 1e9); }

}  // namespace nomad

#endif  // SRC_SIM_CLOCK_H_
