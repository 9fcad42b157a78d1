// Deterministic fault injection for the migration paths.
//
// A FaultInjector is a seeded source of adversity that the kernel-side
// mechanisms consult at well-defined *opportunity points*: a fast-tier frame
// allocation, a TPM commit's dirty check, a cross-tier page copy, a PCQ
// enqueue, a TLB shootdown. Each fault kind carries its own schedule —
// a Bernoulli probability per opportunity, an optional deterministic trigger
// window ("fire on opportunities [start, start+count)"), or both — and its
// own deterministic RNG stream, so the decision sequence for one kind does
// not depend on how often other kinds are consulted. Every injection is
// emitted to the owning MemorySystem's TraceSink as a kFaultInject event.
//
// The installed injector pointer is the switch: with none installed, each
// injection site costs one null check.
#ifndef SRC_FAULT_FAULT_INJECTOR_H_
#define SRC_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>

#include "src/base/annotations.h"
#include "src/obs/trace.h"
#include "src/sim/clock.h"
#include "src/sim/engine.h"
#include "src/sim/rng.h"

namespace nomad {

// Every injectable fault. Values are stable: they appear as the `arg` of
// kFaultInject trace records and in chaos_sim reproducer lines.
enum class FaultKind : uint8_t {
  kAllocFail = 0,   // fast-tier frame allocation transiently fails
  kDirtyWrite,      // a store lands mid-copy: forces the TPM abort path
  kLatencySpike,    // device contention: a copy or demand access slows down
  kPcqOverflow,     // queue pressure: PCQ behaves as if at capacity
  kTlbDelay,        // a shootdown ack straggles: extra initiator-side wait
  // Shard-aware kinds, consulted once per (shard, epoch) by the shard's
  // epoch loop from the shard's own injector, so decisions stay independent
  // of the worker-thread count.
  kShardDelay,      // the shard holds its reports to its next hand-over
  kShardStall,      // the shard sits the epoch out: no virtual progress
  kAllocFailWave,   // arms a burst window of kAllocFail on this shard
  kNumKinds,
};

inline constexpr size_t kNumFaultKinds = static_cast<size_t>(FaultKind::kNumKinds);

// Stable lower_snake_case name for reports and reproducer lines.
const char* FaultKindName(FaultKind k);

// Per-kind schedule. A fault fires at an opportunity when the opportunity
// index falls inside the trigger window OR the Bernoulli draw hits. The
// default schedule never fires.
struct FaultSchedule {
  double probability = 0.0;      // per-opportunity Bernoulli
  uint64_t trigger_start = 0;    // first opportunity index of the window
  uint64_t trigger_count = 0;    // window length; 0 = no window
  Cycles latency_cycles = 0;     // magnitude for kLatencySpike / kTlbDelay

  bool armed() const { return probability > 0.0 || trigger_count > 0; }
};

class NOMAD_SHARD_CONFINED FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed);

  uint64_t seed() const { return seed_; }

  void set_schedule(FaultKind k, const FaultSchedule& s);
  const FaultSchedule& schedule(FaultKind k) const {
    return streams_[static_cast<size_t>(k)].schedule;
  }

  // Binds the trace sink injections are reported to and the engine whose
  // virtual clock stamps them. Either may be null (no tracing / time 0);
  // the injector owns neither.
  void Bind(TraceSink* sink, Engine* engine) {
    trace_ = sink;
    engine_ = engine;
  }

  // One opportunity for fault kind `k`: advances the kind's opportunity
  // counter and returns whether the fault fires. The decision sequence is a
  // pure function of (seed, kind, call index).
  bool ShouldInject(FaultKind k);

  // Extra cycles to charge for a latency fault of kind `k`.
  Cycles LatencyFor(FaultKind k) const {
    return streams_[static_cast<size_t>(k)].schedule.latency_cycles;
  }

  uint64_t opportunities(FaultKind k) const {
    return streams_[static_cast<size_t>(k)].opportunities;
  }
  uint64_t injected(FaultKind k) const { return streams_[static_cast<size_t>(k)].injected; }
  uint64_t total_injected() const;

  // One-line schedule summary ("alloc_fail p=0.01 win=[100,150) ..."),
  // for chaos_sim reproducer output.
  std::string Describe() const;

 private:
  struct Stream {
    FaultSchedule schedule;
    Rng rng{0};
    uint64_t opportunities = 0;
    uint64_t injected = 0;
  };

  uint64_t seed_;
  Stream streams_[kNumFaultKinds];
  TraceSink* trace_ = nullptr;
  Engine* engine_ = nullptr;
};

}  // namespace nomad

#endif  // SRC_FAULT_FAULT_INJECTOR_H_
