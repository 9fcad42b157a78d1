#include "bench/bench_common.h"

#include <iostream>

namespace nomad {

MicroRunConfig SmallWssConfig(PlatformId platform, PolicyKind policy) {
  MicroRunConfig c;
  c.platform = platform;
  c.policy = policy;
  c.rss_gb = 20.0;
  c.wss_gb = 10.0;
  c.wss_fast_gb = 6.0;
  c.total_ops = 4000000;  // the small WSS fully converges; give it time
  return c;
}

MicroRunConfig MediumWssConfig(PlatformId platform, PolicyKind policy) {
  MicroRunConfig c;
  c.platform = platform;
  c.policy = policy;
  c.rss_gb = 27.0;
  c.wss_gb = 13.5;
  c.wss_fast_gb = 2.5;
  c.total_ops = 2400000;
  return c;
}

MicroRunConfig LargeWssConfig(PlatformId platform, PolicyKind policy) {
  MicroRunConfig c;
  c.platform = platform;
  c.policy = policy;
  c.rss_gb = 27.0;
  c.wss_gb = 27.0;
  c.wss_fast_gb = 16.0;
  c.total_ops = 1600000;  // never stabilizes; the phases look alike anyway
  return c;
}

MicroRunConfig ShadowReclaimConfig(double rss_gb, uint64_t seed) {
  MicroRunConfig c = MediumWssConfig(PlatformId::kB, PolicyKind::kNomad);
  c.rss_gb = rss_gb;
  c.slow_gb = 14.7;
  c.kernel_gb = 1.0;
  c.placement = Placement::kFrequencyOpt;
  c.seed = seed;
  return c;
}

std::vector<PolicyKind> PoliciesFor(PlatformId platform, bool include_no_migration) {
  std::vector<PolicyKind> kinds;
  if (include_no_migration) {
    kinds.push_back(PolicyKind::kNoMigration);
  }
  kinds.push_back(PolicyKind::kTpp);
  const PlatformSpec p = MakePlatform(platform);
  if (p.pebs_supported) {
    kinds.push_back(PolicyKind::kMemtisDefault);
    kinds.push_back(PolicyKind::kMemtisQuickCool);
  }
  kinds.push_back(PolicyKind::kNomad);
  return kinds;
}

void PrintHeader(const std::string& id, const std::string& what, PlatformId platform,
                 uint64_t scale_denom) {
  std::cout << "==================================================================\n"
            << id << ": " << what << "\n"
            << "platform " << PlatformName(platform) << " ("
            << MakePlatform(platform).cpu << "), sizes scaled 1/" << scale_denom
            << " (GB figures are paper-equivalent)\n"
            << "==================================================================\n";
}

}  // namespace nomad
