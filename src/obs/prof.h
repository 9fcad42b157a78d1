// Scoped span profiler: attributes simulated cycles to a tree of kernel
// subsystems (ProfNode, src/obs/event_registry.h).
//
// The simulator never measures wall time — costs are explicit Cycles values
// returned by the mechanisms — so a span does not time anything. Instead it
// establishes *attribution context*: Enter/Exit maintain a stack of nodes,
// and Charge(c) books c cycles as self time of the innermost node and total
// time of every node on the stack. The per-path self totals double as a
// collapsed-stack profile ("tpm;tpm_copy 1234") that flamegraph tools eat
// directly (see WriteCollapsedStacks in src/obs/exporters.h).
//
// Hot-path contract matches the trace sink: spans wrap *kernel events*
// (one TPM transaction, one reclaim round), never individual accesses, and
// a disabled profiler returns from every call at its first branch.
#ifndef SRC_OBS_PROF_H_
#define SRC_OBS_PROF_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/base/annotations.h"
#include "src/check/check.h"
#include "src/obs/event_registry.h"
#include "src/sim/clock.h"

namespace nomad {

class NOMAD_SHARD_CONFINED Profiler {
 public:
  // Deep enough for every real nesting (deepest today is 3: hint_fault ->
  // sync_migrate -> inner spans); the packed path key spends one byte per
  // level, which caps the depth at 8.
  static constexpr int kMaxDepth = 8;

  // Runtime switch; starts enabled. It may only flip outside every span,
  // so each Enter() meets its Exit() under the same setting.
  void set_enabled(bool on) {
    NOMAD_CHECK(depth_ == 0, "prof switched inside a span at depth ", depth_);
    enabled_ = on;
  }
  bool enabled() const { return enabled_; }

  void Enter(ProfNode n) {
    if (!enabled_) {
      return;
    }
    NOMAD_CHECK(depth_ < kMaxDepth, "prof stack overflow entering ", ProfNodeName(n));
    stack_[depth_++] = n;
  }

  void Exit() {
    if (!enabled_) {
      return;
    }
    NOMAD_CHECK(depth_ > 0, "prof Exit() with empty stack");
    depth_--;
  }

  // Books `c` cycles at the current stack: self of the innermost node,
  // total of every distinct node on the stack, and the collapsed path.
  // With an empty stack the cycles land in unattributed() instead.
  void Charge(Cycles c) {
    if (!enabled_ || c == 0) {
      return;
    }
    if (depth_ == 0) {
      unattributed_ += c;
      return;
    }
    self_[static_cast<size_t>(stack_[depth_ - 1])] += c;
    uint64_t key = 0;
    for (int i = 0; i < depth_; i++) {
      const ProfNode n = stack_[i];
      key |= static_cast<uint64_t>(static_cast<uint8_t>(n) + 1) << (8 * i);
      // A node twice on the stack (recursion) must count its total once.
      bool seen = false;
      for (int j = 0; j < i; j++) {
        seen = seen || stack_[j] == n;
      }
      if (!seen) {
        total_[static_cast<size_t>(n)] += c;
      }
    }
    // Consecutive charges overwhelmingly repeat the same stack (one tree
    // descent per distinct path, then pointer hits; std::map references
    // survive unrelated inserts, and Reset() clears the memo with the
    // map).
    if (key != memo_key_ || memo_slot_ == nullptr) {
      memo_key_ = key;
      memo_slot_ = &paths_[key];
    }
    *memo_slot_ += c;
  }

  // Enter(n) + Charge(c) + Exit(): a leaf span with no interior structure.
  void ChargeLeaf(ProfNode n, Cycles c) {
    if (!enabled_) {
      return;
    }
    Enter(n);
    Charge(c);
    Exit();
  }

  int depth() const { return depth_; }
  uint64_t self_cycles(ProfNode n) const { return self_[static_cast<size_t>(n)]; }
  uint64_t total_cycles(ProfNode n) const { return total_[static_cast<size_t>(n)]; }
  uint64_t unattributed() const { return unattributed_; }

  // Packed path -> self cycles charged while exactly that stack was active.
  // Key byte i holds stack level i's node + 1 (0 terminates), so iteration
  // order (and thus every export) is deterministic.
  const std::map<uint64_t, uint64_t>& paths() const { return paths_; }

  // Unpacks a paths() key, outermost frame first.
  static std::vector<ProfNode> DecodePath(uint64_t key);

  void Reset();

 private:
  bool enabled_ = true;
  ProfNode stack_[kMaxDepth] = {};
  int depth_ = 0;
  uint64_t self_[kNumProfNodes] = {};
  uint64_t total_[kNumProfNodes] = {};
  uint64_t unattributed_ = 0;
  std::map<uint64_t, uint64_t> paths_;
  // Last charged path and its slot; see Charge().
  uint64_t memo_key_ = 0;
  uint64_t* memo_slot_ = nullptr;
};

// RAII span; a no-op while the profiler is disabled.
class ProfScope {
 public:
  ProfScope(Profiler& prof, ProfNode n) : prof_(prof) { prof_.Enter(n); }
  ~ProfScope() { prof_.Exit(); }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Profiler& prof_;
};

}  // namespace nomad

#endif  // SRC_OBS_PROF_H_
