// End-to-end tests for the runner: worker-thread count must never leak
// into simulation results, shards must quiesce cleanly under the full
// invariant suite, the lockstep accounting (epochs, messages, ops) must be
// internally consistent, and a one-shard run must be the classic run.
#include "src/harness/sharded_sim.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

namespace nomad {
namespace {

ShardedRunConfig SmallConfig(PolicyKind policy) {
  ShardedRunConfig cfg;
  cfg.base.policy = policy;
  cfg.base.total_ops = 40000;
  cfg.shards = 4;
  cfg.audit = true;
  return cfg;
}

// Strict equality of two runs of one machine, field for field: the
// determinism contract is byte-level, so even doubles must match exactly.
void ExpectSameRun(const MicroRunResult& a, const MicroRunResult& b) {
  EXPECT_EQ(a.report.transient_gbps, b.report.transient_gbps);
  EXPECT_EQ(a.report.stable_gbps, b.report.stable_gbps);
  EXPECT_EQ(a.report.overall_gbps, b.report.overall_gbps);
  EXPECT_EQ(a.report.mean_latency_cycles, b.report.mean_latency_cycles);
  EXPECT_EQ(a.report.p99_latency_cycles, b.report.p99_latency_cycles);
  EXPECT_EQ(a.report.total_ops, b.report.total_ops);
  EXPECT_EQ(a.report.total_cycles, b.report.total_cycles);
  EXPECT_EQ(a.report.window_bytes, b.report.window_bytes);
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
}

void ExpectIdentical(const ShardedRunResult& a, const ShardedRunResult& b) {
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.max_virtual_time, b.max_virtual_time);
  EXPECT_EQ(a.aggregate_gbps, b.aggregate_gbps);
  ASSERT_EQ(a.per_shard.size(), b.per_shard.size());
  for (size_t s = 0; s < a.per_shard.size(); s++) {
    SCOPED_TRACE("shard " + std::to_string(s));
    ExpectSameRun(a.per_shard[s], b.per_shard[s]);
  }
}

// Runs `run` with a collector exporting to a temporary file and returns the
// metrics document it wrote.
template <typename Run>
std::string MetricsDoc(const std::string& name, Run run) {
  const std::string path = ::testing::TempDir() + "sharded_sim_test_" + name + ".json";
  {
    MetricsCollector collector("sharded_sim_test", path, "");
    run(&collector);
  }
  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  std::remove(path.c_str());
  return body.str();
}

TEST(ShardedSimTest, ThreadCountDoesNotChangeResults) {
  // The tentpole contract: OS execution width is invisible to the
  // simulation. Run the same partition on 1, 2, 3, and 4 workers.
  const ShardedRunResult t1 = RunShardedMicro(SmallConfig(PolicyKind::kNomad));
  for (uint32_t threads : {2u, 3u, 4u}) {
    ShardedRunConfig cfg = SmallConfig(PolicyKind::kNomad);
    cfg.exec_threads = threads;
    const ShardedRunResult tn = RunShardedMicro(cfg);
    SCOPED_TRACE(threads);
    ExpectIdentical(t1, tn);
  }
}

TEST(ShardedSimTest, RepeatRunsAreIdentical) {
  const ShardedRunResult a = RunShardedMicro(SmallConfig(PolicyKind::kTpp));
  const ShardedRunResult b = RunShardedMicro(SmallConfig(PolicyKind::kTpp));
  ExpectIdentical(a, b);
}

TEST(ShardedSimTest, ShardsQuiesceWithoutInvariantViolations) {
  for (PolicyKind policy :
       {PolicyKind::kNoMigration, PolicyKind::kTpp, PolicyKind::kNomad}) {
    ShardedRunConfig cfg = SmallConfig(policy);
    cfg.exec_threads = 2;
    const ShardedRunResult r = RunShardedMicro(cfg);
    EXPECT_EQ(r.invariant_violations, 0u) << PolicyKindName(policy);
  }
}

TEST(ShardedSimTest, LockstepAccountingIsConsistent) {
  ShardedRunConfig cfg = SmallConfig(PolicyKind::kNomad);
  const ShardedRunResult r = RunShardedMicro(cfg);

  // Every shard finished all its ops and said so: the controller's
  // message-accumulated total must equal the configured work.
  const uint64_t per_shard_ops = cfg.base.total_ops / cfg.shards;
  EXPECT_EQ(r.total_ops, per_shard_ops * cfg.shards);
  EXPECT_EQ(r.per_shard.size(), cfg.shards);

  // One done message per shard plus at least one progress message each.
  EXPECT_GE(r.messages, 2u * cfg.shards);
  EXPECT_GT(r.epochs, 0u);
  // The run ends at the epoch after the last shard quiesces, so virtual
  // time is bounded by the epoch count.
  EXPECT_LE(r.max_virtual_time, (r.epochs + 1) * cfg.epoch_cycles);
  EXPECT_GT(r.aggregate_gbps, 0.0);
}

TEST(ShardedSimTest, ShardCountChangesPartitionButRunsClean) {
  // Different shard counts are different simulations (that is by design);
  // both must complete and audit clean.
  for (uint32_t shards : {1u, 2u, 8u}) {
    ShardedRunConfig cfg = SmallConfig(PolicyKind::kNomad);
    cfg.shards = shards;
    cfg.exec_threads = 2;
    const ShardedRunResult r = RunShardedMicro(cfg);
    EXPECT_EQ(r.invariant_violations, 0u) << shards << " shards";
    EXPECT_EQ(r.per_shard.size(), shards);
    EXPECT_EQ(r.total_ops, (cfg.base.total_ops / shards) * shards);
  }
}

TEST(ShardedSimTest, BatchReachesEveryShard) {
  // MicroRunConfig::batch (accesses per engine step) must reach every
  // shard's workload actors, not only a one-shard run's.
  ShardedRunConfig cfg = SmallConfig(PolicyKind::kNomad);
  cfg.shards = 2;
  const ShardedRunResult k8 = RunShardedMicro(cfg);
  cfg.base.batch = 1;
  const ShardedRunResult k1 = RunShardedMicro(cfg);
  ASSERT_EQ(k1.per_shard.size(), k8.per_shard.size());
  std::string counters_k1, counters_k8;
  for (size_t s = 0; s < k1.per_shard.size(); s++) {
    counters_k1 += k1.per_shard[s].counters.ToString();
    counters_k8 += k8.per_shard[s].counters.ToString();
  }
  EXPECT_NE(counters_k1, counters_k8);
}

TEST(ShardedSimTest, OneShardIsTheClassicRun) {
  // A one-shard run is the classic single-socket run: exact half-way
  // snapshot, a stop as soon as the workloads finish, and the capture
  // label without a shard suffix.
  for (PolicyKind policy : {PolicyKind::kTpp, PolicyKind::kNomad}) {
    SCOPED_TRACE(PolicyKindName(policy));
    ShardedRunConfig cfg = SmallConfig(policy);
    cfg.shards = 1;
    ShardedRunResult sharded;
    MicroRunResult classic;
    const std::string sharded_doc = MetricsDoc(
        "micro_one_shard", [&](MetricsCollector* c) { sharded = RunShardedMicro(cfg, c); });
    const std::string classic_doc = MetricsDoc(
        "micro_classic", [&](MetricsCollector* c) { classic = RunMicroBench(cfg.base, c); });
    ASSERT_EQ(sharded.per_shard.size(), 1u);
    ExpectSameRun(sharded.per_shard[0], classic);
    EXPECT_EQ(sharded.total_ops, cfg.base.total_ops);
    EXPECT_EQ(sharded.invariant_violations, 0u);
    EXPECT_FALSE(classic_doc.empty());
    EXPECT_EQ(sharded_doc, classic_doc);
  }
}

TEST(RunMicroBenchTest, NomadReportsQueueHighWaterMarks) {
  MicroRunConfig cfg;
  cfg.total_ops = 40000;
  const MicroRunResult r = RunMicroBench(cfg);
  EXPECT_GT(r.pcq_hwm, 0u);
}

ShardedYcsbConfig SmallYcsbConfig() {
  ShardedYcsbConfig cfg;
  cfg.base.policy = PolicyKind::kNomad;
  cfg.base.record_count = 20000;
  cfg.base.total_ops = 8000;
  cfg.shards = 4;
  return cfg;
}

TEST(ShardedYcsbTest, OneShardIsTheClassicRun) {
  ShardedYcsbConfig cfg = SmallYcsbConfig();
  cfg.shards = 1;
  ShardedAppResult sharded;
  AppRunResult classic;
  const std::string sharded_doc = MetricsDoc(
      "ycsb_one_shard", [&](MetricsCollector* c) { sharded = RunShardedYcsb(cfg, c); });
  const std::string classic_doc = MetricsDoc(
      "ycsb_classic", [&](MetricsCollector* c) { classic = RunYcsbBench(cfg.base, c); });
  ASSERT_EQ(sharded.per_shard.size(), 1u);
  const AppRunResult& one = sharded.per_shard[0];
  EXPECT_EQ(one.ops_per_sec, classic.ops_per_sec);
  EXPECT_EQ(one.runtime_ms, classic.runtime_ms);
  EXPECT_EQ(one.tpm_commits, classic.tpm_commits);
  EXPECT_EQ(one.tpm_aborts, classic.tpm_aborts);
  EXPECT_EQ(one.promotions, classic.promotions);
  EXPECT_EQ(one.demotions, classic.demotions);
  EXPECT_EQ(sharded.total_ops, cfg.base.total_ops);
  EXPECT_FALSE(classic_doc.empty());
  EXPECT_EQ(sharded_doc, classic_doc);
}

TEST(ShardedYcsbTest, ThreadCountDoesNotChangeResults) {
  ShardedYcsbConfig cfg = SmallYcsbConfig();
  const ShardedAppResult a = RunShardedYcsb(cfg);
  cfg.exec_threads = 4;
  const ShardedAppResult b = RunShardedYcsb(cfg);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.max_virtual_time, b.max_virtual_time);
  EXPECT_EQ(a.aggregate_ops_per_sec, b.aggregate_ops_per_sec);
  ASSERT_EQ(a.per_shard.size(), b.per_shard.size());
  for (size_t s = 0; s < a.per_shard.size(); s++) {
    EXPECT_EQ(a.per_shard[s].ops_per_sec, b.per_shard[s].ops_per_sec) << "shard " << s;
    EXPECT_EQ(a.per_shard[s].promotions, b.per_shard[s].promotions) << "shard " << s;
    EXPECT_EQ(a.per_shard[s].tpm_commits, b.per_shard[s].tpm_commits) << "shard " << s;
  }
  EXPECT_GT(a.total_ops, 0u);
}

}  // namespace
}  // namespace nomad
