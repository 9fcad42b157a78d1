// Determinism contract for the epoch-boundary timeline sampler: the
// per-shard telemetry CSVs from a fixed-seed sharded run must be
// byte-identical for any exec_threads value. Sampling happens at each
// shard's epoch boundaries (the interval is rounded up to whole epochs), so
// OS scheduling must be invisible in both the sample times and every
// channel value.
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/harness/sharded_sim.h"
#include "src/obs/trace.h"

namespace nomad {
namespace {

namespace fs = std::filesystem;

ShardedRunConfig TimelineConfig(uint32_t exec_threads) {
  ShardedRunConfig cfg;
  cfg.base.policy = PolicyKind::kNomad;
  cfg.base.total_ops = 40000;
  cfg.shards = 2;
  cfg.exec_threads = exec_threads;
  cfg.base.timeline_interval = 100000;  // rounds up to one sample per epoch
  cfg.base.enable_spans = true;
  return cfg;
}

// Runs the fixed-seed workload and returns every timeline CSV the
// collector wrote, keyed by file name (shard0 lands on the exact path,
// shard1 on the label-suffixed sibling).
std::map<std::string, std::string> RunAndCollect(uint32_t exec_threads,
                                                 const std::string& dir) {
  fs::create_directories(dir);
  {
    MetricsCollector collector("timeline_determinism_test", /*metrics_path=*/"",
                               /*trace_path=*/"", /*profile_path=*/"",
                               /*timeline_path=*/dir + "/tl.csv");
    RunShardedMicro(TimelineConfig(exec_threads), &collector);
  }
  std::map<std::string, std::string> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path());
    std::ostringstream body;
    body << in.rdbuf();
    files[entry.path().filename().string()] = body.str();
  }
  return files;
}

TEST(TimelineDeterminismTest, ThreadCountDoesNotChangeTimelines) {
  const std::string base = ::testing::TempDir() + "/nomad_timeline_det";
  fs::remove_all(base);
  const auto t1 = RunAndCollect(1, base + "/t1");
  const auto t4 = RunAndCollect(4, base + "/t4");

  // Same shard labels -> same file names in both runs.
  ASSERT_EQ(2u, t1.size());
  ASSERT_EQ(t1.size(), t4.size());
  for (const auto& [name, body] : t1) {
    const auto it = t4.find(name);
    ASSERT_NE(t4.end(), it) << "missing timeline " << name << " in 4-thread run";
    EXPECT_EQ(body, it->second) << "timeline " << name
                                << " differs between 1 and 4 worker threads";
  }

  // The CSVs must carry real samples (header + rows) with a strictly
  // increasing time axis (the shard's virtual clock at each epoch
  // boundary).
  for (const auto& [name, body] : t1) {
    std::istringstream lines(body);
    std::string line;
    ASSERT_TRUE(std::getline(lines, line)) << name;  // header
    uint64_t prev = 0;
    size_t rows = 0;
    while (std::getline(lines, line)) {
      const uint64_t time = std::stoull(line.substr(0, line.find(',')));
      EXPECT_GT(time, prev) << "timeline " << name << " time axis not increasing";
      prev = time;
      rows++;
    }
    EXPECT_GT(rows, 0u) << "timeline " << name << " has no sample rows";
  }
  fs::remove_all(base);
}

}  // namespace
}  // namespace nomad
