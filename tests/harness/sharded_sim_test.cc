// End-to-end tests for the runner: worker-thread count must never leak
// into simulation results, shards must quiesce cleanly under the full
// invariant suite, the epoch accounting (epochs, reports, ops) must be
// internally consistent, delayed reports must arrive late and whole, and a
// one-shard run must be the classic run.
#include "src/harness/sharded_sim.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/fault/fault_injector.h"
#include "src/obs/event_registry.h"
#include "tests/harness/run_compare.h"

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

// A run's epoch count is its longest shard's, so the slowest shard's clock
// ends inside the run's last epoch.
template <typename Result>
void ExpectClockInLastEpoch(const Result& r, Cycles epoch_cycles) {
  ASSERT_GT(r.epochs, 0u);
  EXPECT_GT(r.max_virtual_time, (r.epochs - 1) * epoch_cycles);
  EXPECT_LE(r.max_virtual_time, r.epochs * epoch_cycles);
}

TEST(ShardedSimTest, EpochAccountingIsConsistent) {
  ShardedRunConfig cfg = SmallConfig(PolicyKind::kNomad);
  const ShardedRunResult r = RunShardedMicro(cfg);

  // Every shard finished all its ops and said so: the total its reports
  // carried must equal the configured work.
  const uint64_t per_shard_ops = cfg.base.total_ops / cfg.shards;
  EXPECT_EQ(r.total_ops, per_shard_ops * cfg.shards);
  EXPECT_EQ(r.per_shard.size(), cfg.shards);

  // One done report per shard plus at least one progress report each.
  EXPECT_GE(r.messages, 2u * cfg.shards);
  ExpectClockInLastEpoch(r, cfg.epoch_cycles);
  EXPECT_GT(r.aggregate_gbps, 0.0);
}

// Every counter of a shard but the two a delayed report may move.
std::string CountersBesidesDelay(const CounterSet& counters) {
  std::string rest;
  for (const auto& [name, value] : counters.All()) {
    if (name != cnt::kFaultInjShardDelay && name != cnt::kWatchdogStall) {
      rest += name + "=" + std::to_string(value) + "\n";
    }
  }
  return rest;
}

TEST(ShardedSimTest, DelayedReportsArriveLateAndWhole) {
  // kShardDelay holds a shard's reports back for each epoch of its trigger
  // window, and they go with the shard's next hand-over.
  // None is dropped or counted early: the run equals the run without the
  // window, save the delay counter and, once the window spans the watchdog
  // threshold, exactly one stall verdict.
  constexpr uint64_t kStallEpochs = 3;
  constexpr uint64_t kWindowStart = 2;
  auto run = [](uint64_t window, uint32_t threads) {
    ShardedRunConfig cfg = SmallConfig(PolicyKind::kNomad);
    cfg.exec_threads = threads;
    cfg.watchdog_stall_epochs = kStallEpochs;
    cfg.shard_setup = [window](uint32_t shard, Sim& sim) {
      auto fi = std::make_unique<FaultInjector>(7);
      if (shard == 1) {
        FaultSchedule delay;
        delay.trigger_start = kWindowStart;
        delay.trigger_count = window;
        fi->set_schedule(FaultKind::kShardDelay, delay);
      }
      sim.ms().set_fault_injector(std::move(fi));
    };
    return RunShardedMicro(cfg);
  };
  const ShardedRunResult base = run(0, 1);
  ASSERT_EQ(base.watchdog_stalls, 0u);
  for (uint64_t window : {1u, 2u, 3u, 5u}) {
    SCOPED_TRACE("window=" + std::to_string(window));
    const ShardedRunResult r = run(window, 2);
    EXPECT_EQ(r.total_ops, base.total_ops);
    EXPECT_EQ(r.messages, base.messages);
    EXPECT_EQ(r.epochs, base.epochs);
    ASSERT_EQ(r.per_shard.size(), base.per_shard.size());
    for (size_t s = 0; s < r.per_shard.size(); s++) {
      EXPECT_EQ(CountersBesidesDelay(r.per_shard[s].counters),
                CountersBesidesDelay(base.per_shard[s].counters))
          << "shard " << s;
    }
    // The whole window fired while shard 1 still ran (a finishing shard
    // hands over at once and is never consulted again).
    const uint64_t stalls = window >= kStallEpochs ? 1 : 0;
    EXPECT_EQ(r.per_shard[1].counters.Get(cnt::kFaultInjShardDelay), window);
    EXPECT_EQ(r.per_shard[1].counters.Get(cnt::kWatchdogStall), stalls);
    EXPECT_EQ(r.watchdog_stalls, stalls);
  }
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

TEST(ShardedSimTest, RunConfigReachesEveryShard) {
  // MicroRunConfig's batch (accesses per engine step), Zipf skew, access
  // pattern and NOMAD policy settings must reach every shard's workload
  // actors and policy, not only a one-shard run's.
  for (uint32_t shards : {1u, 3u}) {
    SCOPED_TRACE(shards);
    ShardedRunConfig cfg = SmallConfig(PolicyKind::kNomad);
    cfg.shards = shards;
    const ShardedRunResult base = RunShardedMicro(cfg);
    ASSERT_EQ(base.per_shard.size(), shards);
    auto expect_every_shard_changed = [&](const ShardedRunConfig& variant) {
      const ShardedRunResult r = RunShardedMicro(variant);
      ASSERT_EQ(r.per_shard.size(), shards);
      for (uint32_t s = 0; s < shards; s++) {
        EXPECT_NE(r.per_shard[s].counters.ToString(), base.per_shard[s].counters.ToString())
            << "shard " << s;
      }
    };
    ShardedRunConfig k1 = cfg;
    k1.base.batch = 1;
    expect_every_shard_changed(k1);
    ShardedRunConfig flat = cfg;
    flat.base.zipf_theta = 0.8;
    expect_every_shard_changed(flat);
    for (AccessPattern pattern : {AccessPattern::kPointerChase, AccessPattern::kSeqScan}) {
      SCOPED_TRACE(AccessPatternName(pattern));
      ShardedRunConfig other = cfg;
      other.base.pattern = pattern;
      expect_every_shard_changed(other);
    }

    ShardedRunConfig admitted = cfg;
    admitted.base.nomad.enable_admission = true;
    const ShardedRunResult a = RunShardedMicro(admitted);
    ASSERT_EQ(a.per_shard.size(), shards);
    for (uint32_t s = 0; s < shards; s++) {
      EXPECT_EQ(base.per_shard[s].counters.Get(cnt::kAdmissionAccept), 0u) << "shard " << s;
      EXPECT_GT(a.per_shard[s].counters.Get(cnt::kAdmissionAccept), 0u) << "shard " << s;
    }
  }
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
        "sharded_sim_test_micro_one_shard", [&](MetricsCollector* c) { sharded = RunShardedMicro(cfg, c); });
    const std::string classic_doc = MetricsDoc(
        "sharded_sim_test_micro_classic", [&](MetricsCollector* c) { classic = RunMicroBench(cfg.base, c); });
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
      "sharded_sim_test_ycsb_one_shard", [&](MetricsCollector* c) { sharded = RunShardedYcsb(cfg, c); });
  const std::string classic_doc = MetricsDoc(
      "sharded_sim_test_ycsb_classic", [&](MetricsCollector* c) { classic = RunYcsbBench(cfg.base, c); });
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
  ExpectClockInLastEpoch(a, cfg.epoch_cycles);
  EXPECT_EQ(a.aggregate_ops_per_sec, b.aggregate_ops_per_sec);
  ASSERT_EQ(a.per_shard.size(), b.per_shard.size());
  for (size_t s = 0; s < a.per_shard.size(); s++) {
    EXPECT_EQ(a.per_shard[s].ops_per_sec, b.per_shard[s].ops_per_sec) << "shard " << s;
    EXPECT_EQ(a.per_shard[s].promotions, b.per_shard[s].promotions) << "shard " << s;
    EXPECT_EQ(a.per_shard[s].tpm_commits, b.per_shard[s].tpm_commits) << "shard " << s;
  }
  EXPECT_GT(a.total_ops, 0u);
}

TEST(ShardedSimDeathTest, ZeroEpochIsRejectedWithMoreThanOneShard) {
  // Zero-cycle epochs never advance virtual time: the run used to spin
  // through kMaxEpochs empty epochs, or divide by zero when a timeline
  // was on. It must stop before building any shard, naming the field.
  ShardedRunConfig micro = SmallConfig(PolicyKind::kNomad);
  micro.epoch_cycles = 0;
  EXPECT_DEATH(RunShardedMicro(micro), "epoch_cycles must be > 0.*shards=4");
  micro.base.timeline_interval = 200000;
  EXPECT_DEATH(RunShardedMicro(micro), "epoch_cycles must be > 0.*shards=4");
  ShardedYcsbConfig ycsb = SmallYcsbConfig();
  ycsb.epoch_cycles = 0;
  EXPECT_DEATH(RunShardedYcsb(ycsb), "epoch_cycles must be > 0.*shards=4");
}

TEST(ShardedSimDeathTest, ZeroThreadsOrScaleIsRejected) {
  // A micro run with no app thread would wait forever for ops, and a zero
  // scale divisor divides by zero; both must stop, naming the field.
  ShardedRunConfig micro = SmallConfig(PolicyKind::kNomad);
  micro.base.threads = 0;
  EXPECT_DEATH(RunShardedMicro(micro), "threads must be > 0");
  EXPECT_DEATH(RunMicroBench(micro.base), "threads must be > 0");
  micro = SmallConfig(PolicyKind::kNomad);
  micro.base.scale_denom = 0;
  EXPECT_DEATH(RunShardedMicro(micro), "scale_denom must be > 0");
  ShardedYcsbConfig ycsb = SmallYcsbConfig();
  ycsb.base.scale_denom = 0;
  EXPECT_DEATH(RunShardedYcsb(ycsb), "scale_denom must be > 0");
}

}  // namespace
}  // namespace nomad
