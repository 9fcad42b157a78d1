// Wall-clock simulation-throughput benchmark: how many pages the simulator
// pushes through per real second, NOT how fast the simulated machine is.
// This is the gate for the engine's own performance work (arena page
// tables, cached scheduling, the sharded parallel engine, struct-of-arrays
// frame metadata, batched access execution): simulated results are
// bit-reproducible, so the only thing allowed to change run to run is the
// wall clock, and this file measures exactly that.
//
// Each row runs a fixed workload and reports
//   pages_per_sec = simulated page accesses / wall seconds.
// For the micro workload one op is one page access, so ops double as
// pages. Every row is timed --reps times and the best (minimum-wall) rep
// is reported: throughput is noise-bounded from above, so the fastest rep
// is the best estimate of the machine-independent cost. Output goes to
// --out as schema nomad-throughput-v1, which
// scripts/check_bench_regression.py compares against
// bench/baselines/bench_throughput.json (higher is better, 20% gate).
//
// Besides the policy rows, a batch-size ablation re-times the no-migration
// row at K accesses per engine step (K = 1/8/32/128); K=8 is the workload
// default, so micro.no-migration and micro.no-migration.k8 measure the
// same configuration. The JSON also records the hot+cold frame-metadata
// footprint, bytes_of_metadata_per_simulated_page, straight from
// FrameTable::BytesPerFrame().
//
// Flags (defaults in brackets):
//   --ops=N     [2000000]  ops per row
//   --reps=N    [3]        timed repetitions per row, best rep reported
//   --quick     [off]      1/10 ops: CI smoke mode
//   --out=PATH  [BENCH_throughput.json]
#include <climits>
#include <malloc.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/harness/flags.h"
#include "src/harness/sharded_sim.h"
#include "src/mm/page.h"

using namespace nomad;

namespace {

struct Row {
  std::string label;
  uint64_t pages = 0;
  unsigned batch = 8;
  double wall_seconds = 0;
  double pages_per_sec = 0;
};

double WallSeconds(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

Row BestOf(const std::string& label, uint64_t ops, unsigned batch, unsigned reps,
           const std::function<void()>& run) {
  Row row{label, ops, batch, 0, 0};
  for (unsigned r = 0; r < reps; r++) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const double wall = WallSeconds(t0);
    if (r == 0 || wall < row.wall_seconds) {
      row.wall_seconds = wall;
    }
  }
  row.pages_per_sec = static_cast<double>(ops) / row.wall_seconds;
  return row;
}

Row TimeMicro(const std::string& label, PolicyKind policy, uint64_t ops, unsigned reps,
              unsigned batch = 8) {
  MicroRunConfig cfg;
  cfg.policy = policy;
  cfg.total_ops = ops;
  cfg.batch = batch;
  return BestOf(label, ops, batch, reps, [&] { RunMicroBench(cfg); });
}

Row TimeSharded(const std::string& label, PolicyKind policy, uint64_t ops, uint32_t shards,
                uint32_t threads, unsigned reps) {
  ShardedRunConfig cfg;
  cfg.base.policy = policy;
  cfg.base.total_ops = ops;
  cfg.shards = shards;
  cfg.exec_threads = threads;
  return BestOf(label, ops, 8, reps, [&] { RunShardedMicro(cfg); });
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  uint64_t ops = flags.GetUint("ops", 2000000);
  if (flags.GetBool("quick", false)) {
    ops /= 10;
  }
  const unsigned reps = static_cast<unsigned>(flags.GetUint("reps", 3));
  const std::string out = flags.GetString("out", "BENCH_throughput.json");
  const auto unused = flags.UnusedKeys();
  if (!unused.empty()) {
    std::cerr << "unknown flag(s):";
    for (const auto& k : unused) {
      std::cerr << " " << k;
    }
    std::cerr << "\n";
    return 2;
  }

  std::cout << "bench_throughput: wall-clock pages-simulated/sec, " << ops
            << " ops per row, best of " << reps << " rep(s)\n"
            << "frame metadata: " << FrameTable::BytesPerFrame()
            << " bytes/page (hot flags word + cold side)\n\n";

  // Keep the heap resident between rows. Each row tears down a full Sim;
  // with default glibc tuning the freed arena is handed back to the kernel
  // (trim + mmap'd chunks), so the next row refaults every page and the
  // first timed rep of each row measures the allocator, not the engine
  // (reproducibly ~20% slow vs an identically-configured later row).
#if defined(__GLIBC__)
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  mallopt(M_MMAP_MAX, 0);
#endif
  // Untimed warmup so the arena (and branch predictors / i-cache) are hot
  // before the first timed row.
  {
    MicroRunConfig warm;
    warm.policy = PolicyKind::kNoMigration;
    warm.total_ops = ops;
    RunMicroBench(warm);
  }

  std::vector<Row> rows;
  rows.push_back(TimeMicro("micro.no-migration", PolicyKind::kNoMigration, ops, reps));
  rows.push_back(TimeMicro("micro.tpp", PolicyKind::kTpp, ops, reps));
  rows.push_back(TimeMicro("micro.nomad", PolicyKind::kNomad, ops, reps));
  rows.push_back(TimeSharded("sharded.nomad.s4t1", PolicyKind::kNomad, ops, 4, 1, reps));
  // Batch-size ablation: how much of the engine's throughput comes from
  // executing K queued accesses per step through the AccessBatch fast path.
  for (unsigned k : {1u, 8u, 32u, 128u}) {
    rows.push_back(TimeMicro("micro.no-migration.k" + std::to_string(k),
                             PolicyKind::kNoMigration, ops, reps, k));
  }

  TablePrinter t({"row", "pages", "batch", "wall s", "pages/sec"});
  for (const Row& r : rows) {
    t.AddRow({r.label, FmtCount(r.pages), std::to_string(r.batch), Fmt(r.wall_seconds, 3),
              FmtCount(static_cast<uint64_t>(r.pages_per_sec))});
  }
  t.Print(std::cout);

  std::ofstream f(out);
  if (!f) {
    std::cerr << "cannot write " << out << "\n";
    return 1;
  }
  f << "{\n  \"schema\": \"nomad-throughput-v1\",\n  \"benchmark\": "
       "\"bench_throughput\",\n  \"metadata_bytes_per_page\": "
    << FrameTable::BytesPerFrame() << ",\n  \"runs\": [\n";
  for (size_t i = 0; i < rows.size(); i++) {
    const Row& r = rows[i];
    f << "    {\"label\": \"" << r.label << "\", \"pages\": " << r.pages
      << ", \"batch\": " << r.batch << ", \"wall_seconds\": " << r.wall_seconds
      << ", \"report\": {\"pages_per_sec\": " << r.pages_per_sec << "}}"
      << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
  std::cout << "\nwrote " << out << "\n";
  return 0;
}
