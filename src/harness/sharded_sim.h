// The simulator's runner: every run is N logical shards, each a complete
// Sim, and a single-socket run is the one-shard case.
//
// Shard = NUMA-node-pair partition. Each shard owns 1/N of both tiers'
// capacity, its own address space, and its own shard-local daemon actors
// (kswapd per tier, kpromote, the PCQ live inside the shard's policy
// instance), exactly as a multi-socket machine partitions into per-socket
// memory nodes.
//
// One shard runs the classic engine loop: the engine stops at exactly half
// the configured ops for the first-half snapshot, the timeline (when on)
// is an engine actor sampling at the exact interval, and the run ends as
// soon as the workloads finish. More shards advance in lockstep virtual-
// time epochs on a pool of OS worker threads and communicate exclusively
// through the ShardRouter (see src/sim/shard.h for the determinism
// argument). Each worker builds the shards it owns before its first epoch.
// Worker threads are an execution detail — any --threads value
// produces byte-identical metrics, which scripts/check_determinism.py
// --threads-compare enforces.
//
// A run's instruments (trace ring, profiler, histograms, provenance ledger)
// cost nothing unless the run has a reader for them: they are on when the
// run is given an active MetricsCollector, records spans or samples a
// timeline, and off otherwise. No simulated result reads an instrument, so
// the switch never changes one.
#ifndef SRC_HARNESS_SHARDED_SIM_H_
#define SRC_HARNESS_SHARDED_SIM_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/harness/run.h"
#include "src/sim/shard.h"

namespace nomad {

struct ShardedRunConfig {
  // The full-machine workload, pre-partition. Its timeline and span
  // settings apply to every shard; with more than one shard the timeline
  // interval is rounded up to whole epochs, so the sample times are epoch
  // multiples, identical for every exec_threads value.
  MicroRunConfig base;
  uint32_t shards = 4;        // logical partition count (affects results)
  uint32_t exec_threads = 1;  // OS worker threads (must NOT affect results)
  Cycles epoch_cycles = 500000;   // virtual-time barrier interval
  uint64_t max_epochs = 1 << 22;  // safety net against stalled shards
  bool audit = false;  // run InvariantChecker on every quiesced shard
  // Chaos seam: when set, every shard gets its own FaultInjector (built
  // from the shard id, so schedules can differ per shard) installed into
  // its MemorySystem before the run. The factory is called once per shard
  // by the worker thread that builds that shard, concurrently with the
  // other shards' calls, so it must be safe to call from several threads
  // and must depend only on the shard id. The lockstep loop additionally
  // consults the shard-aware kinds (kShardStall, kShardDelay,
  // kAllocFailWave) once per (shard, epoch) from the shard's OWN injector,
  // which keeps every fault decision a pure function of (shard seed,
  // epoch) — independent of exec_threads. A one-shard run has no epochs,
  // so it never consults them.
  std::function<std::unique_ptr<FaultInjector>(uint32_t shard)> fault_factory;
  // Deterministic livelock watchdog: a live shard that reports no progress
  // for this many consecutive epochs is declared stalled — the detection
  // runs in the barrier's drain callback on the drained message stream
  // only, and the verdict is surfaced by the owning shard as a
  // kWatchdogStall trace event plus the watchdog.stall counter. 0 = off.
  uint64_t watchdog_stall_epochs = 0;
};

struct ShardedRunResult {
  std::vector<MicroRunResult> per_shard;  // in shard-id order
  uint64_t total_ops = 0;      // ops done (lockstep: the controller's count)
  uint64_t epochs = 0;         // lockstep epochs executed (0 with one shard)
  uint64_t messages = 0;       // cross-shard messages drained
  Cycles max_virtual_time = 0; // slowest shard's final clock
  double aggregate_gbps = 0;   // sum of per-shard overall bandwidth
  uint64_t invariant_violations = 0;  // only populated when cfg.audit
  uint64_t faults_injected = 0;   // sum over shard injectors (0 if none)
  uint64_t watchdog_stalls = 0;   // stall transitions the watchdog flagged
};

// Runs cfg.base partitioned across cfg.shards shards on cfg.exec_threads
// worker threads. Per-shard metrics are captured (in shard-id order) under
// labels "<label>.shard<k>" when a collector is given; a one-shard run is
// captured under "<label>" itself. The default label is the policy name.
ShardedRunResult RunShardedMicro(const ShardedRunConfig& cfg,
                                 MetricsCollector* collector = nullptr,
                                 const std::string& label = "");

// Same partitioning for the Redis/YCSB application benchmark: each shard
// owns 1/N of the records, the capacity, and the op stream — the natural
// analogue of running one Redis instance per NUMA node pair. The timeline
// and span settings come from base, as in ShardedRunConfig.
struct ShardedYcsbConfig {
  YcsbRunConfig base;
  uint32_t shards = 4;
  uint32_t exec_threads = 1;
  Cycles epoch_cycles = 500000;
  uint64_t max_epochs = 1 << 22;
};

struct ShardedAppResult {
  std::vector<AppRunResult> per_shard;  // in shard-id order
  uint64_t total_ops = 0;
  uint64_t epochs = 0;
  uint64_t messages = 0;
  Cycles max_virtual_time = 0;
  double aggregate_ops_per_sec = 0;  // total ops over the slowest shard's runtime
};

ShardedAppResult RunShardedYcsb(const ShardedYcsbConfig& cfg,
                                MetricsCollector* collector = nullptr,
                                const std::string& label = "");

// One-shard runs, as the figure binaries make them: each result is
// per_shard[0] of the runner's one-shard case. When a collector is given,
// the run is captured under `label` (default: the policy name).
MicroRunResult RunMicroBench(const MicroRunConfig& config,
                             MetricsCollector* collector = nullptr,
                             const std::string& label = "");
AppRunResult RunYcsbBench(const YcsbRunConfig& config, MetricsCollector* collector = nullptr,
                          const std::string& label = "");
AppRunResult RunPageRankBench(const PageRankRunConfig& config,
                              MetricsCollector* collector = nullptr,
                              const std::string& label = "");
AppRunResult RunLiblinearBench(const LiblinearRunConfig& config,
                               MetricsCollector* collector = nullptr,
                               const std::string& label = "");

}  // namespace nomad

#endif  // SRC_HARNESS_SHARDED_SIM_H_
