#include "workloads.h"

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

using namespace nomad;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream s;
  s << in.rdbuf();
  return s.str();
}

// The benchmark's micro rep must simulate exactly what the figure binaries
// simulate: same calls, same order, byte-identical metrics document.
void ExpectSameAsRunMicroBench(MicroRunConfig config) {
  config.total_ops = 200000;
  const std::string path = testing::TempDir() + "perfbench_micro_metrics.json";
  {
    MetricsCollector collector("perfbench", path, "");
    RunMicroBench(config, &collector, "cell");
  }
  SpanRecorder rec(false);
  RepResult rep;
  const std::string doc = RunMicroCell(config, "cell", rec, rep);
  const std::string expected = ReadFile(path);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(doc, expected);
  EXPECT_EQ(rep.violations, 0u);
  EXPECT_TRUE(rep.errors.empty());
}

MicroRunConfig LargeWriteConfig() {
  MicroRunConfig config = LargeWssConfig(PlatformId::kA, PolicyKind::kNomad);
  config.write_fraction = 1.0;
  config.seed = 7;
  return config;
}

TEST(MicroRep, SmallReadMatchesRunMicroBench) {
  ExpectSameAsRunMicroBench(MicroCell(42));
}

TEST(MicroRep, LargeWriteMatchesRunMicroBench) {
  ExpectSameAsRunMicroBench(LargeWriteConfig());
}

TEST(MicroRep, TimedReferenceAndTracedRunsAgree) {
  ShardedRunConfig config = MicroConfig(42);
  config.base.total_ops = 40000;
  const RepResult plain = RunMicroRep(config, /*traced=*/false);
  const RepResult traced = RunMicroRep(config, /*traced=*/true);
  EXPECT_TRUE(plain.errors.empty());
  EXPECT_TRUE(traced.errors.empty());
  EXPECT_EQ(plain.ops_done, plain.ops_requested);
  EXPECT_EQ(plain.digest, traced.digest);
  EXPECT_TRUE(plain.spans.empty());
  ASSERT_FALSE(traced.spans.empty());
  EXPECT_EQ(traced.spans[0].name, "rep");
  EXPECT_EQ(traced.spans[0].parent, -1);
  const RepResult reference =
      RunMicroReference(config, testing::TempDir() + "perfbench_micro_ref_metrics.json");
  EXPECT_TRUE(reference.errors.empty());
  EXPECT_EQ(reference.violations, 0u);
  EXPECT_EQ(reference.digest, plain.digest);
  EXPECT_NE(reference.metrics_doc.find("micro-small-read.shard3"), std::string::npos);
}

TEST(YcsbRep, TimedReferenceAndOneThreadRunsAgree) {
  ShardedYcsbConfig config = YcsbConfig(42);
  config.base.scale_denom = 512;
  config.base.record_count = 20000000 / 512;
  config.base.total_ops = 4000;
  const RepResult traced = RunYcsbRep(config, /*traced=*/true);
  EXPECT_TRUE(traced.errors.empty());
  EXPECT_EQ(traced.ops_done, traced.ops_requested);
  const RepResult reference =
      RunYcsbReference(config, testing::TempDir() + "perfbench_ycsb_metrics.json");
  EXPECT_TRUE(reference.errors.empty());
  EXPECT_EQ(reference.digest, traced.digest);
  EXPECT_NE(reference.metrics_doc.find("\"runs\""), std::string::npos);
}

TEST(SpanRecorder, NestsAndRecordsNothingWhenDisabled) {
  SpanRecorder on(true);
  {
    ScopedSpan root(on, "rep");
    { ScopedSpan a(on, "a"); }
    { ScopedSpan b(on, "b"); }
  }
  { ScopedSpan after(on, "after"); }
  ASSERT_EQ(on.spans().size(), 4u);
  EXPECT_EQ(on.spans()[1].parent, 0);
  EXPECT_EQ(on.spans()[2].parent, 0);
  EXPECT_EQ(on.spans()[3].parent, -1);
  for (const Span& s : on.spans()) {
    EXPECT_LE(s.start_ns, s.end_ns);
  }
  EXPECT_LE(on.spans()[0].start_ns, on.spans()[1].start_ns);
  EXPECT_GE(on.spans()[0].end_ns, on.spans()[2].end_ns);

  SpanRecorder off(false);
  { ScopedSpan root(off, "rep"); }
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace perfbench
