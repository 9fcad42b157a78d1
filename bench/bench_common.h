// Shared infrastructure for the figure/table reproduction binaries: the
// paper's provisioning presets, the policies each platform runs and the
// standard header. Every bench runs its simulations through the runner in
// src/harness/sharded_sim.h and prints the rows/series the paper reports;
// none builds a Sim itself.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "src/harness/flags.h"
#include "src/harness/sharded_sim.h"
#include "src/harness/table.h"
#include "src/workload/liblinear.h"
#include "src/workload/micro.h"
#include "src/workload/pagerank.h"
#include "src/workload/ycsb.h"

namespace nomad {

// The paper's three provisioning scenarios (Figure 6) at 16 GB fast memory.
MicroRunConfig SmallWssConfig(PlatformId platform, PolicyKind policy);
MicroRunConfig MediumWssConfig(PlatformId platform, PolicyKind policy);
MicroRunConfig LargeWssConfig(PlatformId platform, PolicyKind policy);

// Table 3's NOMAD run at `rss_gb` of RSS: platform B's 16 GB DRAM plus
// 14.7 GB CXL (30.7 GB, as in the paper) with a 1 GB kernel reservation,
// and the medium WSS under Frequency-opt placement.
MicroRunConfig ShadowReclaimConfig(double rss_gb, uint64_t seed);

// Policies evaluated on a platform (Memtis excluded where unsupported).
std::vector<PolicyKind> PoliciesFor(PlatformId platform, bool include_no_migration = false);

// Prints the standard bench header.
void PrintHeader(const std::string& id, const std::string& what, PlatformId platform,
                 uint64_t scale_denom);

}  // namespace nomad

#endif  // BENCH_BENCH_COMMON_H_
