// Structured event tracing for the simulator.
//
// A TraceSink is a fixed-capacity ring buffer of typed, virtual-time-stamped
// records. Hot paths emit one record per *kernel event* (a TPM transaction
// stage, a promotion, a kswapd wakeup, ...), never per memory access, so the
// enabled-path cost is one branch plus one store. The ring is allocated on
// the first record, and a disabled sink (set_enabled(false), which the
// runner applies when nothing reads the run's instruments) records nothing
// and allocates nothing.
//
// Exporters (src/obs/exporters.h) turn a sink's contents into a
// chrome://tracing timeline; the harness reducer (src/harness/experiment.h)
// folds counts into metrics.json.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/annotations.h"
#include "src/obs/event_registry.h"
#include "src/sim/clock.h"

namespace nomad {

struct TraceEventRecord {
  Cycles time = 0;     // virtual time of emission
  uint64_t arg = 0;    // event-specific subject (see table above)
  uint64_t value = 0;  // event-specific magnitude
  uint16_t actor = 0;  // engine ActorId of the emitting actor
  TraceEvent type = TraceEvent::kNumEvents;
};

class NOMAD_SHARD_CONFINED TraceSink {
 public:
  static constexpr size_t kDefaultCapacity = size_t{1} << 16;

  // Capacity is rounded up to a power of two (minimum 2). The ring itself
  // is allocated by the first Emit().
  explicit TraceSink(size_t capacity = kDefaultCapacity)
      : mask_(std::bit_ceil(capacity < 2 ? size_t{2} : capacity) - 1) {}

  void Emit(TraceEvent type, Cycles time, uint16_t actor, uint64_t arg, uint64_t value = 0) {
    if (!enabled_) {
      return;
    }
    if (records_.empty()) {
      records_.resize(mask_ + 1);
    }
    records_[emitted_ & mask_] = TraceEventRecord{time, arg, value, actor, type};
    emitted_++;
  }

  // Runtime switch; starts enabled.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  size_t capacity() const { return mask_ + 1; }
  // Records the ring has storage for: 0 until the first Emit(), then
  // capacity().
  size_t allocated() const { return records_.size(); }

  // Records currently retained (<= capacity).
  size_t size() const { return emitted_ < capacity() ? static_cast<size_t>(emitted_) : capacity(); }

  // Total records ever emitted; emitted - size were overwritten by wraparound.
  uint64_t total_emitted() const { return emitted_; }
  uint64_t dropped() const { return emitted_ - size(); }

  // Retained records in chronological order (oldest first).
  std::vector<TraceEventRecord> Snapshot() const;

  // Number of retained records of one type.
  uint64_t CountOf(TraceEvent type) const;

  void Clear() {
    emitted_ = 0;
  }

 private:
  std::vector<TraceEventRecord> records_;
  size_t mask_ = 0;
  uint64_t emitted_ = 0;
  bool enabled_ = true;
};

}  // namespace nomad

#endif  // SRC_OBS_TRACE_H_
