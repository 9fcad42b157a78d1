// Tests for the deterministic fault injector: schedule semantics,
// per-kind stream independence, reproducibility, and trace emission.
#include "src/fault/fault_injector.h"

#include <gtest/gtest.h>

#include <vector>

namespace nomad {
namespace {

TEST(FaultInjectorTest, DefaultScheduleNeverFires) {
  FaultInjector fi(1234);
  for (int i = 0; i < 1000; i++) {
    EXPECT_FALSE(fi.ShouldInject(FaultKind::kAllocFail));
  }
  EXPECT_EQ(fi.total_injected(), 0u);
  EXPECT_EQ(fi.opportunities(FaultKind::kAllocFail), 1000u);
}

TEST(FaultInjectorTest, TriggerWindowFiresExactly) {
  FaultInjector fi(1);
  FaultSchedule s;
  s.trigger_start = 10;
  s.trigger_count = 3;
  fi.set_schedule(FaultKind::kDirtyWrite, s);
  std::vector<uint64_t> fired;
  for (uint64_t i = 0; i < 20; i++) {
    if (fi.ShouldInject(FaultKind::kDirtyWrite)) {
      fired.push_back(i);
    }
  }
  EXPECT_EQ(fired, (std::vector<uint64_t>{10, 11, 12}));
  EXPECT_EQ(fi.injected(FaultKind::kDirtyWrite), 3u);
}

TEST(FaultInjectorTest, ProbabilityIsDeterministicPerSeed) {
  FaultSchedule s;
  s.probability = 0.3;
  std::vector<bool> run1, run2;
  for (int run = 0; run < 2; run++) {
    FaultInjector fi(777);
    fi.set_schedule(FaultKind::kAllocFail, s);
    std::vector<bool>& out = run == 0 ? run1 : run2;
    for (int i = 0; i < 500; i++) {
      out.push_back(fi.ShouldInject(FaultKind::kAllocFail));
    }
  }
  EXPECT_EQ(run1, run2);
  // Sanity: roughly 30% of opportunities fire.
  size_t hits = 0;
  for (bool b : run1) {
    hits += b;
  }
  EXPECT_GT(hits, 100u);
  EXPECT_LT(hits, 200u);
}

TEST(FaultInjectorTest, StreamsAreIndependentAcrossKinds) {
  // Consulting one kind must not perturb another kind's decision sequence.
  FaultSchedule s;
  s.probability = 0.5;
  FaultInjector a(42);
  a.set_schedule(FaultKind::kLatencySpike, s);
  std::vector<bool> alone;
  for (int i = 0; i < 200; i++) {
    alone.push_back(a.ShouldInject(FaultKind::kLatencySpike));
  }

  FaultInjector b(42);
  b.set_schedule(FaultKind::kLatencySpike, s);
  b.set_schedule(FaultKind::kTlbDelay, s);
  std::vector<bool> interleaved;
  for (int i = 0; i < 200; i++) {
    b.ShouldInject(FaultKind::kTlbDelay);  // extra traffic on another kind
    interleaved.push_back(b.ShouldInject(FaultKind::kLatencySpike));
  }
  EXPECT_EQ(alone, interleaved);
}

TEST(FaultInjectorTest, EmitsTraceRecordPerInjection) {
  TraceSink sink(1024);
  FaultInjector fi(9);
  fi.Bind(&sink, nullptr);
  FaultSchedule s;
  s.trigger_start = 2;
  s.trigger_count = 1;
  fi.set_schedule(FaultKind::kPcqOverflow, s);
  for (int i = 0; i < 5; i++) {
    fi.ShouldInject(FaultKind::kPcqOverflow);
  }
  const auto recs = sink.Snapshot();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].type, TraceEvent::kFaultInject);
  EXPECT_EQ(recs[0].arg, static_cast<uint64_t>(FaultKind::kPcqOverflow));
  EXPECT_EQ(recs[0].value, 2u);  // opportunity index
}

TEST(FaultInjectorTest, LatencyForReturnsScheduledMagnitude) {
  FaultInjector fi(5);
  FaultSchedule s;
  s.probability = 1.0;
  s.latency_cycles = 12345;
  fi.set_schedule(FaultKind::kLatencySpike, s);
  EXPECT_TRUE(fi.ShouldInject(FaultKind::kLatencySpike));
  EXPECT_EQ(fi.LatencyFor(FaultKind::kLatencySpike), 12345u);
}

TEST(FaultInjectorTest, DescribeNamesArmedSchedules) {
  FaultInjector fi(31337);
  FaultSchedule s;
  s.probability = 0.01;
  fi.set_schedule(FaultKind::kAllocFail, s);
  const std::string d = fi.Describe();
  EXPECT_NE(d.find("seed=31337"), std::string::npos);
  EXPECT_NE(d.find("alloc_fail"), std::string::npos);
  // Unarmed kinds are omitted.
  EXPECT_EQ(d.find("dirty_write"), std::string::npos);
}

}  // namespace
}  // namespace nomad
