// Field-by-field comparison of runner results, shared by the runner tests.
// The determinism contracts are byte-level, so even doubles must match
// exactly.
#ifndef TESTS_HARNESS_RUN_COMPARE_H_
#define TESTS_HARNESS_RUN_COMPARE_H_

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/harness/sharded_sim.h"

namespace nomad {

inline void ExpectSameRun(const MicroRunResult& a, const MicroRunResult& b) {
  EXPECT_EQ(a.report.transient_gbps, b.report.transient_gbps);
  EXPECT_EQ(a.report.stable_gbps, b.report.stable_gbps);
  EXPECT_EQ(a.report.overall_gbps, b.report.overall_gbps);
  EXPECT_EQ(a.report.mean_latency_cycles, b.report.mean_latency_cycles);
  EXPECT_EQ(a.report.p99_latency_cycles, b.report.p99_latency_cycles);
  EXPECT_EQ(a.report.total_ops, b.report.total_ops);
  EXPECT_EQ(a.report.total_cycles, b.report.total_cycles);
  EXPECT_EQ(a.report.ops_per_sec, b.report.ops_per_sec);
  EXPECT_EQ(a.report.window_bytes, b.report.window_bytes);
  EXPECT_EQ(a.report.window_cycles, b.report.window_cycles);
  EXPECT_EQ(a.counters.ToString(), b.counters.ToString());
  EXPECT_EQ(a.first_half.ToString(), b.first_half.ToString());
  EXPECT_EQ(Promotions(a.counters), Promotions(b.counters));
  EXPECT_EQ(Demotions(a.counters), Demotions(b.counters));
  EXPECT_EQ(a.shadow_pages, b.shadow_pages);
  EXPECT_EQ(a.tpm_commits, b.tpm_commits);
  EXPECT_EQ(a.tpm_aborts, b.tpm_aborts);
  EXPECT_EQ(a.fast_used, b.fast_used);
  EXPECT_EQ(a.slow_used, b.slow_used);
  EXPECT_EQ(a.pcq_hwm, b.pcq_hwm);
  EXPECT_EQ(a.pending_hwm, b.pending_hwm);
  EXPECT_EQ(a.pcq_overflows, b.pcq_overflows);
  EXPECT_EQ(a.injector, b.injector);
}

inline void ExpectIdentical(const ShardedRunResult& a, const ShardedRunResult& b) {
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.max_virtual_time, b.max_virtual_time);
  EXPECT_EQ(a.aggregate_gbps, b.aggregate_gbps);
  EXPECT_EQ(a.invariant_violations, b.invariant_violations);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.watchdog_stalls, b.watchdog_stalls);
  ASSERT_EQ(a.per_shard.size(), b.per_shard.size());
  for (size_t s = 0; s < a.per_shard.size(); s++) {
    SCOPED_TRACE("shard " + std::to_string(s));
    ExpectSameRun(a.per_shard[s], b.per_shard[s]);
  }
}

// Runs `run` with a collector exporting to a temporary file named after
// `name` (unique across test binaries) and returns the metrics document it
// wrote.
template <typename Run>
std::string MetricsDoc(const std::string& name, Run run) {
  const std::string path = ::testing::TempDir() + name + ".json";
  {
    MetricsCollector collector("run_compare", path, "");
    run(&collector);
  }
  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  std::remove(path.c_str());
  return body.str();
}

}  // namespace nomad

#endif  // TESTS_HARNESS_RUN_COMPARE_H_
