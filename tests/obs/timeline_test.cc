// Unit tests for the time-resolved telemetry ring (src/obs/timeline.h):
// channel registry validation, column backfill alignment, delta encoding,
// ring eviction accounting, and the CSV/JSON export shapes.
#include "src/obs/timeline.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/obs/event_registry.h"
#include "src/obs/json.h"
#include "src/obs/trace.h"

namespace nomad {
namespace {

Timeline::Config SmallConfig(size_t capacity = 4096) {
  Timeline::Config cfg;
  cfg.interval = 100;
  cfg.capacity = capacity;
  return cfg;
}

TEST(TimelineRegistryTest, AcceptsEveryGaugeChannel) {
  // The closed gauge list is the registry's core: each X-macro entry must
  // round-trip through the validator (a rename in one place but not the
  // other should fail here, not at a Channel() abort in a benchmark).
#define NOMAD_TL_EXPECT(id, str) \
  EXPECT_TRUE(IsRegisteredTimelineChannel(str)) << str;
  NOMAD_TIMELINE_CHANNEL_LIST(NOMAD_TL_EXPECT)
#undef NOMAD_TL_EXPECT
}

TEST(TimelineRegistryTest, CounterChannelsAreOpenKeyspace) {
  // Counter deltas mirror the CounterSet keyspace, which is open within
  // the "cnt." prefix (fault-counter slots are built at runtime).
  EXPECT_TRUE(IsRegisteredTimelineChannel("cnt.nomad.tpm_commit"));
  EXPECT_TRUE(IsRegisteredTimelineChannel("cnt.admission.downgrade_sync"));
  EXPECT_FALSE(IsRegisteredTimelineChannel("cnt."));  // empty counter name
}

TEST(TimelineRegistryTest, DerivedHistogramChannels) {
  EXPECT_TRUE(IsRegisteredTimelineChannel("hist.migration.latency.p50"));
  EXPECT_TRUE(IsRegisteredTimelineChannel("hist.tpm.retries.p99"));
  EXPECT_TRUE(IsRegisteredTimelineChannel("hist.pcq.residence.count_delta"));
  // Unregistered base histogram or unknown suffix must be rejected.
  EXPECT_FALSE(IsRegisteredTimelineChannel("hist.migration.latency.p75"));
  EXPECT_FALSE(IsRegisteredTimelineChannel("hist.not.a.histogram.p50"));
  EXPECT_FALSE(IsRegisteredTimelineChannel("hist.migration.latency"));
}

TEST(TimelineRegistryTest, RejectsUnknownNames) {
  EXPECT_FALSE(IsRegisteredTimelineChannel(""));
  EXPECT_FALSE(IsRegisteredTimelineChannel("tier.fast.bogus"));
  EXPECT_FALSE(IsRegisteredTimelineChannel("pcq_depth"));  // wrong separator
}

TEST(TimelineTest, ChannelFindOrCreateAndBackfill) {
  Timeline tl(SmallConfig());
  const size_t fast = tl.Channel(tl::kFastFree);
  EXPECT_EQ(fast, tl.Channel(tl::kFastFree));  // find, not re-create

  tl.BeginSample(100);
  tl.Set(fast, 7);
  tl.EndSample();

  // A channel created after samples exist must backfill zeros so every
  // column stays index-aligned with the time axis.
  const size_t pcq = tl.Channel(tl::kPcqDepth);
  tl.BeginSample(200);
  tl.Set(pcq, 3);
  tl.EndSample();

  ASSERT_EQ(2u, tl.num_samples());
  ASSERT_EQ(2u, tl.num_channels());
  std::ostringstream csv;
  tl.WriteCsv(csv);
  EXPECT_EQ(
      "time,tier.fast.free_frames,pcq.depth\n"
      "100,7,0\n"   // pcq.depth backfilled for the pre-creation sample
      "200,0,3\n",  // channels not Set() in a sample read as 0
      csv.str());
}

TEST(TimelineTest, SetDeltaEncodesDifferences) {
  Timeline tl(SmallConfig());
  const size_t commits = tl.Channel("cnt.nomad.tpm_commit");
  tl.BeginSample(100);
  tl.SetDelta(commits, 10);  // first observation: delta from 0
  tl.EndSample();
  tl.BeginSample(200);
  tl.SetDelta(commits, 25);
  tl.EndSample();
  tl.BeginSample(300);
  tl.SetDelta(commits, 25);  // no movement
  tl.EndSample();

  std::ostringstream csv;
  tl.WriteCsv(csv);
  EXPECT_EQ(
      "time,cnt.nomad.tpm_commit\n"
      "100,10\n"
      "200,15\n"
      "300,0\n",
      csv.str());
}

TEST(TimelineTest, RingEvictsOldestAndCountsDrops) {
  Timeline tl(SmallConfig(/*capacity=*/2));
  const size_t fast = tl.Channel(tl::kFastFree);
  for (uint64_t i = 1; i <= 5; i++) {
    tl.BeginSample(i * 100);
    tl.Set(fast, i);
    tl.EndSample();
  }
  EXPECT_EQ(2u, tl.num_samples());
  EXPECT_EQ(3u, tl.dropped());
  std::ostringstream csv;
  tl.WriteCsv(csv);
  EXPECT_EQ(
      "time,tier.fast.free_frames\n"
      "400,4\n"
      "500,5\n",
      csv.str());
}

TEST(TimelineTest, RingKeepsOrderAcrossWrapAndBackfillsLateChannels) {
  // Seven samples through a three-slot ring: the ring wraps twice, and a
  // channel first created after the wrap must read 0 for the retained
  // sample that predates it. Exports run oldest to newest from the head.
  Timeline tl(SmallConfig(/*capacity=*/3));
  const size_t fast = tl.Channel(tl::kFastFree);
  const size_t commits = tl.Channel("cnt.nomad.tpm_commit");
  for (uint64_t i = 1; i <= 5; i++) {
    tl.BeginSample(i * 100);
    tl.Set(fast, i);
    tl.SetDelta(commits, i * i);
    tl.EndSample();
  }
  const size_t pcq = tl.Channel(tl::kPcqDepth);
  for (uint64_t i = 6; i <= 7; i++) {
    tl.BeginSample(i * 100);
    tl.Set(fast, i);
    tl.SetDelta(commits, i * i);
    tl.Set(pcq, i * 10);
    tl.EndSample();
  }
  EXPECT_EQ(3u, tl.num_samples());
  EXPECT_EQ(4u, tl.dropped());
  std::ostringstream csv;
  tl.WriteCsv(csv);
  EXPECT_EQ(
      "time,tier.fast.free_frames,cnt.nomad.tpm_commit,pcq.depth\n"
      "500,5,9,0\n"  // pcq.depth did not exist yet: backfilled
      "600,6,11,60\n"
      "700,7,13,70\n",
      csv.str());
  std::ostringstream out;
  JsonWriter jw(out);
  tl.AppendJson(jw);
  const std::string json = out.str();
  EXPECT_NE(std::string::npos, json.find("\"dropped\":4"));
  EXPECT_NE(std::string::npos, json.find("\"time\":[500,600,700]"));
  EXPECT_NE(std::string::npos, json.find("\"tier.fast.free_frames\":[5,6,7]"));
  EXPECT_NE(std::string::npos, json.find("\"cnt.nomad.tpm_commit\":[9,11,13]"));
  EXPECT_NE(std::string::npos, json.find("\"pcq.depth\":[0,60,70]"));
}

TEST(TimelineTest, JsonSectionCarriesSchemaAndColumns) {
  Timeline tl(SmallConfig());
  const size_t fast = tl.Channel(tl::kFastFree);
  tl.BeginSample(100);
  tl.Set(fast, 42);
  tl.EndSample();

  std::ostringstream out;
  JsonWriter jw(out);
  tl.AppendJson(jw);
  const std::string json = out.str();
  EXPECT_NE(std::string::npos, json.find("\"schema\":\"nomad-timeline-v1\""));
  EXPECT_NE(std::string::npos, json.find("\"interval\":100"));
  EXPECT_NE(std::string::npos, json.find("\"samples\":1"));
  EXPECT_NE(std::string::npos, json.find("\"tier.fast.free_frames\":[42]"));
}

TEST(TimelineTest, EmptyTimelineExportsHeaderOnly) {
  std::ostringstream csv;
  Timeline(SmallConfig()).WriteCsv(csv);
  EXPECT_EQ("time\n", csv.str());
}

}  // namespace
}  // namespace nomad
