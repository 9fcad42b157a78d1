// TraceSink unit tests: ring wraparound, chronological snapshots, the
// runtime enable switch, and event ordering when several actors interleave
// through the engine.
#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/sim/engine.h"

namespace nomad {
namespace {

TEST(TraceSinkTest, EventNamesAreStableAndDistinct) {
  std::vector<std::string> names;
  for (int i = 0; i < static_cast<int>(TraceEvent::kNumEvents); i++) {
    names.push_back(TraceEventName(static_cast<TraceEvent>(i)));
  }
  EXPECT_EQ(names.front(), "tpm_begin");
  EXPECT_EQ(names[static_cast<int>(TraceEvent::kTpmCommit)], "tpm_commit");
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(TraceSinkTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceSink(1).capacity(), 2u);
  EXPECT_EQ(TraceSink(5).capacity(), 8u);
  EXPECT_EQ(TraceSink(64).capacity(), 64u);
}

TEST(TraceSinkTest, EmitRecordsInOrder) {
  TraceSink sink(16);
  sink.Emit(TraceEvent::kPromote, 100, 1, 42, 7);
  sink.Emit(TraceEvent::kDemote, 200, 2, 43);
  ASSERT_EQ(sink.size(), 2u);
  const auto records = sink.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].type, TraceEvent::kPromote);
  EXPECT_EQ(records[0].time, 100u);
  EXPECT_EQ(records[0].actor, 1u);
  EXPECT_EQ(records[0].arg, 42u);
  EXPECT_EQ(records[0].value, 7u);
  EXPECT_EQ(records[1].type, TraceEvent::kDemote);
  EXPECT_EQ(sink.CountOf(TraceEvent::kPromote), 1u);
  EXPECT_EQ(sink.CountOf(TraceEvent::kDemote), 1u);
  EXPECT_EQ(sink.CountOf(TraceEvent::kTpmAbort), 0u);
}

TEST(TraceSinkTest, WraparoundKeepsNewestAndCountsDropped) {
  TraceSink sink(8);
  ASSERT_EQ(sink.capacity(), 8u);
  for (uint64_t i = 0; i < 20; i++) {
    sink.Emit(TraceEvent::kHintFault, i, 0, i);
  }
  EXPECT_EQ(sink.total_emitted(), 20u);
  EXPECT_EQ(sink.size(), 8u);
  EXPECT_EQ(sink.dropped(), 12u);
  const auto records = sink.Snapshot();
  ASSERT_EQ(records.size(), 8u);
  // The retained window is the newest 8 records, oldest first.
  for (size_t i = 0; i < records.size(); i++) {
    EXPECT_EQ(records[i].arg, 12 + i);
  }
  EXPECT_EQ(sink.CountOf(TraceEvent::kHintFault), 8u);
}

TEST(TraceSinkTest, DisableStopsEmission) {
  TraceSink sink(8);
  sink.Emit(TraceEvent::kPromote, 1, 0, 1);
  sink.set_enabled(false);
  sink.Emit(TraceEvent::kPromote, 2, 0, 2);
  sink.set_enabled(true);
  sink.Emit(TraceEvent::kPromote, 3, 0, 3);
  EXPECT_EQ(sink.total_emitted(), 2u);
  const auto records = sink.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].arg, 1u);
  EXPECT_EQ(records[1].arg, 3u);
}

TEST(TraceSinkTest, ClearResets) {
  TraceSink sink(8);
  sink.Emit(TraceEvent::kPromote, 1, 0, 1);
  sink.Clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.total_emitted(), 0u);
  EXPECT_TRUE(sink.Snapshot().empty());
}

TEST(TraceSinkTest, RingIsAllocatedByFirstRecord) {
  TraceSink sink(8);
  EXPECT_EQ(sink.allocated(), 0u);
  EXPECT_TRUE(sink.Snapshot().empty());
  EXPECT_EQ(sink.CountOf(TraceEvent::kPromote), 0u);
  sink.Emit(TraceEvent::kPromote, 1, 0, 1);
  EXPECT_EQ(sink.allocated(), 8u);
  EXPECT_EQ(sink.size(), 1u);
}

TEST(TraceSinkTest, DisabledSinkRecordsAndAllocatesNothing) {
  TraceSink sink;
  sink.set_enabled(false);
  sink.Emit(TraceEvent::kPromote, 1, 0, 1);
  EXPECT_FALSE(sink.enabled());
  EXPECT_EQ(sink.capacity(), TraceSink::kDefaultCapacity);
  EXPECT_EQ(sink.allocated(), 0u);
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.total_emitted(), 0u);
}

// An actor that emits one record per step, tagged with its engine id.
class EmittingActor : public Actor {
 public:
  EmittingActor(TraceSink* sink, Cycles period, int steps)
      : sink_(sink), period_(period), steps_left_(steps) {}

  Cycles Step(Engine& engine) override {
    sink_->Emit(TraceEvent::kHintFault, engine.now(),
                static_cast<uint16_t>(engine.current()), sequence_++);
    steps_left_--;
    return period_;
  }

  std::string name() const override { return "emitter"; }
  bool done() const override { return steps_left_ <= 0; }

 private:
  TraceSink* sink_;
  Cycles period_;
  int steps_left_;
  uint64_t sequence_ = 0;
};

TEST(TraceSinkTest, InterleavedActorsEmitInVirtualTimeOrder) {
  TraceSink sink(64);
  Engine engine;
  // Different periods force interleaving: a, b, a, b, a, a, b, ...
  EmittingActor a(&sink, 30, 10);
  EmittingActor b(&sink, 70, 5);
  const ActorId a_id = engine.AddActor(&a);
  const ActorId b_id = engine.AddActor(&b);
  engine.Run(kNever);

  const auto records = sink.Snapshot();
  ASSERT_EQ(records.size(), 15u);
  // Snapshot order must be emission (virtual-time) order.
  for (size_t i = 1; i < records.size(); i++) {
    EXPECT_LE(records[i - 1].time, records[i].time);
  }
  // Both actors appear, tagged with their engine ids.
  uint64_t from_a = 0, from_b = 0;
  for (const auto& r : records) {
    if (r.actor == a_id) {
      from_a++;
    } else if (r.actor == b_id) {
      from_b++;
    }
  }
  EXPECT_EQ(from_a, 10u);
  EXPECT_EQ(from_b, 5u);
  // Per-actor sequence numbers stay monotonic after the interleave.
  uint64_t next_a = 0, next_b = 0;
  for (const auto& r : records) {
    uint64_t& next = r.actor == a_id ? next_a : next_b;
    EXPECT_EQ(r.arg, next);
    next++;
  }
}

}  // namespace
}  // namespace nomad
