// Tests for the workload actors: address-range discipline, op accounting,
// and characteristic access patterns.
#include <gtest/gtest.h>

#include <set>

#include "src/workload/liblinear.h"
#include "src/workload/micro.h"
#include "src/workload/pagerank.h"
#include "src/workload/pointer_chase.h"
#include "src/workload/seq_scan.h"
#include "src/workload/ycsb.h"

namespace nomad {
namespace {

PlatformSpec TestPlatform() {
  PlatformSpec p = MakePlatform(PlatformId::kA);
  p.tiers[0].capacity_bytes = 4096 * kPageSize;
  p.tiers[1].capacity_bytes = 4096 * kPageSize;
  p.llc_bytes = 64 * 1024;
  return p;
}

class WorkloadsTest : public ::testing::Test {
 protected:
  WorkloadsTest() : ms_(TestPlatform(), &engine_), as_(8192) {}

  // Runs the actor to completion and returns the page-touch footprint.
  std::pair<Vpn, Vpn> RunAndTrackRange(WorkloadActor* w) {
    Vpn lo = ~Vpn{0}, hi = 0;
    ms_.add_access_observer(
        [&](ActorId, AddressSpace&, Vpn vpn, uint64_t, bool, bool, bool, Tier) {
          lo = std::min(lo, vpn);
          hi = std::max(hi, vpn);
        });
    const ActorId id = engine_.AddActor(w);
    w->set_actor_id(id);
    ms_.RegisterCpu(id);
    engine_.RunUntil([&] { return w->done(); });
    return {lo, hi};
  }

  Engine engine_;
  MemorySystem ms_;
  AddressSpace as_;
};

TEST_F(WorkloadsTest, MicroStaysInWss) {
  MicroWorkload::Config cfg;
  cfg.base.total_ops = 5000;
  cfg.wss_start = 100;
  cfg.wss_pages = 50;
  ScrambledZipfian zipf(50, 0.99, 1);
  MicroWorkload w(&ms_, &as_, &zipf, cfg);
  const auto [lo, hi] = RunAndTrackRange(&w);
  EXPECT_GE(lo, 100u);
  EXPECT_LT(hi, 150u);
  EXPECT_EQ(w.ops_done(), 5000u);
  EXPECT_GT(w.latency().count(), 0u);
  EXPECT_GT(w.finish_time(), 0u);
}

TEST_F(WorkloadsTest, MicroWriteFractionProducesWrites) {
  MicroWorkload::Config cfg;
  cfg.base.total_ops = 2000;
  cfg.wss_start = 0;
  cfg.wss_pages = 10;
  cfg.write_fraction = 1.0;
  ScrambledZipfian zipf(10, 0.99, 1);
  MicroWorkload w(&ms_, &as_, &zipf, cfg);
  uint64_t writes = 0;
  ms_.add_access_observer(
      [&](ActorId, AddressSpace&, Vpn, uint64_t, bool is_write, bool, bool, Tier) { writes += is_write; });
  RunAndTrackRange(&w);
  EXPECT_EQ(writes, 2000u);
}

TEST_F(WorkloadsTest, PointerChaseUsesMlpOne) {
  PointerChaseWorkload::Config cfg;
  cfg.base.total_ops = 3000;
  cfg.region_start = 0;
  cfg.block_pages = 32;
  cfg.num_blocks = 8;
  PointerChaseWorkload w(&ms_, &as_, cfg);
  const auto [lo, hi] = RunAndTrackRange(&w);
  EXPECT_LT(hi, 32u * 8u);
  (void)lo;
  // Dependent loads: latency must reflect full (undivided) device latency.
  // Slow-tier pages would be ~854 cycles; everything here is fast-tier
  // (~316) + walk, so the mean must exceed 200 cycles.
  EXPECT_GT(w.latency().Mean(), 200.0);
}

TEST_F(WorkloadsTest, PointerChaseVisitsAllBlocks) {
  PointerChaseWorkload::Config cfg;
  cfg.base.total_ops = 300 * 256;  // many block hops (run length 256)
  cfg.region_start = 0;
  cfg.block_pages = 16;
  cfg.num_blocks = 4;
  PointerChaseWorkload w(&ms_, &as_, cfg);
  std::set<uint64_t> blocks;
  ms_.add_access_observer([&](ActorId, AddressSpace&, Vpn vpn, uint64_t, bool, bool, bool, Tier) {
    blocks.insert(vpn / 16);
  });
  RunAndTrackRange(&w);
  EXPECT_EQ(blocks.size(), 4u);
}

TEST_F(WorkloadsTest, SeqScanSweepsSequentiallyAndWraps) {
  SeqScanWorkload::Config cfg;
  cfg.base.total_ops = 4 * 25;  // four lines per page -> 25 pages
  cfg.region_start = 10;
  cfg.region_pages = 20;  // wraps after 20 pages
  SeqScanWorkload w(&ms_, &as_, cfg);
  std::vector<Vpn> order;
  ms_.add_access_observer([&](ActorId, AddressSpace&, Vpn vpn, uint64_t, bool, bool, bool, Tier) {
    if (order.empty() || order.back() != vpn) {
      order.push_back(vpn);
    }
  });
  RunAndTrackRange(&w);
  ASSERT_GE(order.size(), 25u);
  EXPECT_EQ(order[0], 10u);
  EXPECT_EQ(order[1], 11u);
  EXPECT_EQ(order[19], 29u);
  EXPECT_EQ(order[20], 10u);  // wrapped
}

TEST_F(WorkloadsTest, PageRankLayoutAndFootprint) {
  PageRankWorkload::Config cfg;
  cfg.vertices = 4096;
  cfg.degree = 20;
  cfg.neighbor_sample = 4;
  cfg.iterations = 2;
  cfg.base.total_ops = 0;  // set by Layout
  const Vpn end = PageRankWorkload::Layout(&cfg, 100);
  EXPECT_EQ(cfg.base.total_ops, 4096u * 2u);
  // 4096 vertices: ranks 8 pages x2, edges 160 pages.
  EXPECT_EQ(end, 100u + 8u + 8u + 160u);

  PageRankWorkload w(&ms_, &as_, cfg);
  const auto [lo, hi] = RunAndTrackRange(&w);
  EXPECT_GE(lo, 100u);
  EXPECT_LT(hi, end);
  EXPECT_EQ(w.ops_done(), 4096u * 2u);
}

TEST_F(WorkloadsTest, PageRankWritesOnlyToRankRegions) {
  PageRankWorkload::Config cfg;
  cfg.vertices = 1024;
  cfg.iterations = 1;
  const Vpn end = PageRankWorkload::Layout(&cfg, 0);
  (void)end;
  const Vpn edges_start = 2 * PageRankWorkload::RankPages(cfg);
  PageRankWorkload w(&ms_, &as_, cfg);
  bool wrote_to_edges = false;
  ms_.add_access_observer([&](ActorId, AddressSpace&, Vpn vpn, uint64_t, bool is_write, bool, bool, Tier) {
    if (is_write && vpn >= edges_start) {
      wrote_to_edges = true;
    }
  });
  RunAndTrackRange(&w);
  EXPECT_FALSE(wrote_to_edges);
}

TEST_F(WorkloadsTest, LiblinearTouchesModelAndData) {
  LiblinearWorkload::Config cfg;
  cfg.samples = 500;
  cfg.epochs = 2;
  cfg.model_pages = 16;
  const Vpn end = LiblinearWorkload::Layout(&cfg, 50);
  // Parallel-SGD mode: one op per sample per epoch.
  EXPECT_EQ(cfg.base.total_ops, 500u * 2u);

  LiblinearWorkload w(&ms_, &as_, cfg);
  uint64_t model_writes = 0, data_reads = 0, data_writes = 0;
  ms_.add_access_observer([&](ActorId, AddressSpace&, Vpn vpn, uint64_t, bool is_write, bool, bool, Tier) {
    if (vpn < 50 + 16) {
      model_writes += is_write;
    } else {
      data_reads += !is_write;
      data_writes += is_write;
    }
  });
  const auto [lo, hi] = RunAndTrackRange(&w);
  EXPECT_GE(lo, 50u);
  EXPECT_LT(hi, end);
  EXPECT_GT(model_writes, 0u);   // weight updates
  EXPECT_GT(data_reads, 0u);     // feature streaming
  EXPECT_EQ(data_writes, 0u);    // the matrix is read-only
}

TEST_F(WorkloadsTest, LiblinearEpochsRevisitSameData) {
  LiblinearWorkload::Config cfg;
  cfg.samples = 100;
  cfg.epochs = 2;
  cfg.model_pages = 4;
  LiblinearWorkload::Layout(&cfg, 0);
  LiblinearWorkload w(&ms_, &as_, cfg);
  std::vector<Vpn> epoch1, epoch2;
  uint64_t ops_seen = 0;
  // One epoch = 100 samples x (8 row lines + 6 features x 2 touches).
  ms_.add_access_observer([&](ActorId, AddressSpace&, Vpn vpn, uint64_t, bool, bool, bool, Tier) {
    (ops_seen < 100 * 20 ? epoch1 : epoch2).push_back(vpn);
    ops_seen++;
  });
  RunAndTrackRange(&w);
  ASSERT_EQ(epoch1.size(), epoch2.size());
  EXPECT_EQ(epoch1, epoch2);  // deterministic revisit
}

TEST_F(WorkloadsTest, LiblinearCoordinateDescentSweepsModel) {
  LiblinearWorkload::Config cfg;
  cfg.mode = LiblinearWorkload::Mode::kCoordinateDescent;
  cfg.samples = 100;
  cfg.epochs = 1;
  cfg.model_pages = 4;
  LiblinearWorkload::Layout(&cfg, 0);
  EXPECT_EQ(cfg.base.total_ops, 4u * 64u);
  LiblinearWorkload w(&ms_, &as_, cfg);
  // The write stream must sweep model lines in order.
  std::vector<uint64_t> write_lines;
  ms_.add_access_observer([&](ActorId, AddressSpace&, Vpn vpn, uint64_t, bool is_write, bool, bool, Tier) {
    if (is_write && vpn < 4) {
      write_lines.push_back(vpn * 64);
    }
  });
  RunAndTrackRange(&w);
  ASSERT_EQ(write_lines.size(), 4u * 64u);
  EXPECT_EQ(write_lines[0], 0u);
  EXPECT_EQ(write_lines[64], 64u);
}

TEST_F(WorkloadsTest, LiblinearThreadsSliceSamplesDisjointly) {
  // Two workers must stream disjoint data rows but share the model.
  LiblinearWorkload::Config c0, c1;
  for (auto* c : {&c0, &c1}) {
    c->samples = 100;
    c->epochs = 1;
    c->model_pages = 4;
    c->row_lines = 64;  // one page per row: row page = sample id
    c->num_threads = 2;
  }
  c0.thread_index = 0;
  c1.thread_index = 1;
  LiblinearWorkload::Layout(&c0, 0);
  LiblinearWorkload::Layout(&c1, 0);
  std::set<Vpn> rows0, rows1;
  std::set<Vpn>* current = &rows0;
  ms_.add_access_observer([&](ActorId, AddressSpace&, Vpn vpn, uint64_t, bool, bool, bool, Tier) {
    if (vpn >= 4) {
      current->insert(vpn);
    }
  });
  LiblinearWorkload w0(&ms_, &as_, c0);
  RunAndTrackRange(&w0);
  current = &rows1;
  LiblinearWorkload w1(&ms_, &as_, c1);
  RunAndTrackRange(&w1);
  for (Vpn v : rows0) {
    EXPECT_EQ(rows1.count(v), 0u) << "row page " << v << " visited by both";
  }
  EXPECT_EQ(rows0.size() + rows1.size(), 100u);
}

TEST_F(WorkloadsTest, YcsbMixesReadsAndWrites) {
  KvStore::Config kcfg;
  kcfg.record_count = 200;
  KvStore store(kcfg);
  store.Layout(0);
  YcsbWorkload::Config cfg;
  cfg.base.total_ops = 500;
  YcsbWorkload w(&ms_, &as_, &store, cfg);
  uint64_t reads = 0, writes = 0;
  ms_.add_access_observer([&](ActorId, AddressSpace&, Vpn, uint64_t, bool is_write, bool, bool, Tier) {
    (is_write ? writes : reads)++;
  });
  RunAndTrackRange(&w);
  EXPECT_GT(reads, 0u);
  EXPECT_GT(writes, 0u);
  // Workload A is 50/50 over ops; record lines dominate, so read and write
  // line counts are roughly balanced (index probes skew toward reads).
  EXPECT_NEAR(static_cast<double>(writes) / static_cast<double>(reads + writes), 0.45, 0.15);
}

TEST_F(WorkloadsTest, BatchRespondsToDoneMidStep) {
  MicroWorkload::Config cfg;
  cfg.base.total_ops = 13;  // not a multiple of the batch size
  cfg.base.batch = 8;
  cfg.wss_start = 0;
  cfg.wss_pages = 4;
  ScrambledZipfian zipf(4, 0.99, 1);
  MicroWorkload w(&ms_, &as_, &zipf, cfg);
  RunAndTrackRange(&w);
  EXPECT_EQ(w.ops_done(), 13u);
}

}  // namespace
}  // namespace nomad
