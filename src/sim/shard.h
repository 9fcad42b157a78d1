// The epoch barrier of the parallel simulation engine.
//
// A sharded run partitions the machine into fixed logical shards (per-NUMA-
// node or per-address-space), each owning a complete single-threaded Sim:
// its own Engine, MemorySystem, frame pool, LRUs, and shard-local daemon
// actors (kswapd, kpromote, the PCQ). As on the paper's machine, where each
// NUMA node runs its own kswapd and kpromote, shards exchange nothing. They
// advance in lockstep epochs of virtual time, and at each epoch barrier the
// controller reads one report record per shard, in shard-id order (see
// RunLockstep in src/harness/sharded_sim.cc). Because
//  - shard-local state evolves as a pure function of (config, seed) and of
//    the watchdog's verdicts on that shard, which the controller derives
//    from that shard's own reports, and
//  - the controller's fold over the records and the epoch schedule are
//    independent of how shards are assigned to OS threads,
// the simulation output is byte-identical for any --threads value,
// including 1. scripts/check_determinism.py enforces exactly this.
//
// The rule that no shard may touch another shard's owned state (page
// tables, frame pools, LRU lists) is enforced statically at two levels:
// tools/nomad_lint rule NL008 (token heuristics) and tools/nomad_analyze
// (AST ownership/escape analysis over the NOMAD_SHARD_CONFINED object
// graph). The barrier's internals carry Clang thread-safety capability
// annotations, checked by the -Wthread-safety -Werror clang CI build.
#ifndef SRC_SIM_SHARD_H_
#define SRC_SIM_SHARD_H_

#include <cstdint>
#include <functional>

#include "src/base/annotations.h"
#include "src/base/mutex.h"

namespace nomad {

// Reusable generation-counting barrier for the epoch lockstep. All
// participants must arrive before any is released; the release establishes
// the happens-before edge that makes every shard's epoch-N report readable
// by the controller, and the controller's verdicts readable in every
// shard's epoch N+1.
class ShardBarrier {
 public:
  explicit ShardBarrier(uint32_t parties) : parties_(parties) {}

  // Blocks until all `parties` threads have arrived at this generation.
  // The last thread to arrive runs `on_complete` (if given) while holding
  // the barrier mutex, before any waiter is released: everything the
  // callback reads happens-after every participant's pre-barrier writes,
  // and everything it writes happens-before every participant's
  // post-barrier reads. This is what lets a lockstep epoch read the
  // shards' reports and update the controller inside ONE barrier crossing.
  void ArriveAndWait(const std::function<void()>& on_complete = {});

 private:
  Mutex mu_;
  CondVar cv_;
  uint32_t parties_;  // immutable after construction
  uint32_t waiting_ NOMAD_GUARDED_BY(mu_) = 0;
  uint64_t generation_ NOMAD_GUARDED_BY(mu_) = 0;
};

}  // namespace nomad

#endif  // SRC_SIM_SHARD_H_
