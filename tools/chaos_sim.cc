// chaos_sim: randomized fault-injection campaign for the NOMAD migration
// paths, with continuous invariant auditing.
//
// For every (seed, workload) pair the driver builds a deliberately
// undersized two-tier platform, arms the deterministic FaultInjector with
// schedules derived from the seed (alloc failures, forced dirty-write
// aborts, latency spikes, PCQ overflow pressure, delayed TLB shootdown
// acks), runs the workload to completion while an InvariantCheckActor
// audits the page tables / frame pool / LRU lists / shadow index, and
// finishes with one last full audit. Any violation prints a one-line
// reproducer (the seed fully determines the run) and exits nonzero.
//
// A second mode, --soak, runs the *sharded* campaign: every (seed, fault
// focus) cell is a 4-shard lockstep run with per-shard injectors driving
// the shard-aware fault kinds (barrier stalls, delivery delays, alloc-fail
// waves) plus the stalled-epoch watchdog, a post-run quiescence audit on
// every shard, and a byte-compare of the recovery record across
// exec_threads=1 and =4 (src/harness/chaos.h). A cell fails on any
// invariant violation, on a thread-count-dependent recovery record, or
// when the faults produced no observable degradation at all.
//
// Examples:
//   ./chaos_sim --seeds=50                       # CI campaign
//   ./chaos_sim --seed=1337 --workloads=micro    # replay one reproducer
//   ./chaos_sim --selftest                       # prove detection works
//   ./chaos_sim --soak --soak_seeds=32           # sharded soak campaign
//   ./chaos_sim --soak --seed=7 --focus=shard_stall --threads=4
//
// Flags (defaults in brackets):
//   --seeds=N          [50]     seeds 1..N (ignored when --seed given)
//   --seed=N           []       run exactly one seed
//   --ops=N            [30000]  workload ops per run
//   --workloads=a,b    [micro,chase,scan]
//   --selftest         [off]    corrupt state mid-run; succeed iff caught
//   --verbose          [off]    per-run summary lines
//   --timeline_out=path []      telemetry timeline CSV per run (campaign
//                               runs get .seed<N>.<workload> inserted);
//                               tools/timeline_report reads these
//   --timeline_interval=N [50000] timeline sampling cadence (cycles)
//   --spans            [off]    emit migration-lifecycle span records
//   --trace_out=path   []       chrome://tracing dump per run (with --spans
//                               this is trace_query --span input)
// Soak-mode flags:
//   --soak             [off]    run the sharded soak campaign
//   --soak_seeds=N     [32]     seeds soak_seed_start..+N-1 (ignored w/ --seed)
//   --soak_seed_start=N [1]     first seed (CI shards the range)
//   --soak_ops=N       [24000]  whole-machine ops per cell
//   --focus=a,b        [all]    shard_stall,alloc_fail_wave,pcq_overflow
//   --threads=N        [0]      0: run threads=1 and =4, byte-compare the
//                               recovery records; else run exactly N
//   --metrics_out=path []       append one summary line per cell
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/check/invariants.h"
#include "src/fault/fault_injector.h"
#include "src/harness/chaos.h"
#include "src/harness/experiment.h"
#include "src/harness/flags.h"
#include "src/workload/micro.h"
#include "src/workload/pointer_chase.h"
#include "src/workload/seq_scan.h"

using namespace nomad;

namespace {

// Small enough that every run finishes in milliseconds, tight enough that
// the fast tier cannot hold the working set (so promotion, demotion, shadow
// reclaim and alloc-failure paths all fire).
constexpr uint64_t kFastPages = 128;
constexpr uint64_t kSlowPages = 384;
constexpr uint64_t kRegionPages = 224;  // > fast tier
constexpr uint64_t kAsPages = 512;

PlatformSpec ChaosPlatform() {
  PlatformSpec p = MakePlatform(PlatformId::kA);
  p.tiers[0].capacity_bytes = kFastPages * kPageSize;
  p.tiers[1].capacity_bytes = kSlowPages * kPageSize;
  p.llc_bytes = 64 * 1024;
  return p;
}

double UnitDouble(Rng& rng) {
  return static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
}

// Seed-derived fault schedules. Each kind is independently armed with a
// random probability (and magnitude where applicable); occasionally a
// deterministic trigger window is used instead, which exercises the exact
// "Nth opportunity" replay mode.
void ArmFaults(FaultInjector* fi, uint64_t seed) {
  Rng rng(seed ^ 0xC4A05C4A05ull);
  struct KindRange {
    FaultKind kind;
    double max_probability;
    Cycles max_latency;
  };
  const KindRange kinds[] = {
      {FaultKind::kAllocFail, 0.30, 0},
      {FaultKind::kDirtyWrite, 0.40, 0},
      {FaultKind::kLatencySpike, 0.10, 50000},
      {FaultKind::kPcqOverflow, 0.20, 0},
      {FaultKind::kTlbDelay, 0.10, 20000},
  };
  for (const KindRange& k : kinds) {
    FaultSchedule s;
    const double mode = UnitDouble(rng);
    if (mode < 0.2) {
      // Unarmed: this kind stays quiet for the whole run.
    } else if (mode < 0.35) {
      s.trigger_start = rng.Below(200);
      s.trigger_count = 1 + rng.Below(16);
    } else {
      s.probability = UnitDouble(rng) * k.max_probability;
    }
    if (k.max_latency > 0) {
      s.latency_cycles = 1000 + rng.Below(k.max_latency);
    }
    fi->set_schedule(k.kind, s);
  }
}

struct RunResult {
  bool ok = true;
  std::vector<InvariantViolation> violations;
  std::string injector;  // FaultInjector::Describe() at end of run
  uint64_t audits = 0;
  uint64_t injections = 0;
  Cycles end_time = 0;
};

// Observability outputs for one run (all optional; empty paths = off).
struct ObsConfig {
  Cycles timeline_interval = 50000;
  bool spans = false;
  std::string timeline_out;
  std::string trace_out;
};

// p.csv + "seed7.micro" -> p.seed7.micro.csv (campaign runs must not
// clobber each other's artifacts).
std::string PathWithTag(const std::string& path, const std::string& tag) {
  const size_t slash = path.find_last_of('/');
  const size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + "." + tag;
  }
  return path.substr(0, dot) + "." + tag + path.substr(dot);
}

// Deliberate mid-run corruption for --selftest: frees a mapped frame
// behind the PTE's back, which a correct checker must flag as
// pte.frame_identity (at least).
class CorruptorActor : public Actor {
 public:
  CorruptorActor(MemorySystem* ms, AddressSpace* as, Cycles when)
      : ms_(ms), as_(as), when_(when) {}

  Cycles Step(Engine& engine) override {
    if (fired_) {
      engine.SleepUntil(kNever);
      return 0;
    }
    if (engine.now() < when_) {
      engine.SleepUntil(when_);
      return 0;
    }
    for (Vpn v = 0; v < kAsPages; v++) {
      const Pte* pte = ms_->PteOf(*as_, v);
      if (pte != nullptr && pte->present &&
          !ms_->pool().frame(pte->pfn).migrating()) {
        ms_->lru(ms_->pool().TierOf(pte->pfn)).Remove(pte->pfn);
        ms_->pool().Free(pte->pfn);
        fired_ = true;
        break;
      }
    }
    engine.SleepUntil(kNever);
    return 1;
  }

  std::string name() const override { return "corruptor"; }
  bool fired() const { return fired_; }

 private:
  MemorySystem* ms_;
  AddressSpace* as_;
  Cycles when_;
  bool fired_ = false;
};

RunResult RunOne(uint64_t seed, const std::string& workload, uint64_t ops,
                 bool corrupt, const ObsConfig& obs = ObsConfig{},
                 const std::string& tag = "") {
  Sim sim(ChaosPlatform(), PolicyKind::kNomad, kAsPages);
  NomadPolicy* nomad = sim.nomad();
  if (obs.spans) {
    sim.ms().set_span_tracing(true);
  }
  if (!obs.timeline_out.empty()) {
    sim.EnableTimeline({obs.timeline_interval, /*capacity=*/4096});
  }

  auto fi = std::make_unique<FaultInjector>(seed);
  ArmFaults(fi.get(), seed);
  sim.ms().set_fault_injector(std::move(fi));

  InvariantChecker checker(&sim.ms());
  checker.AddSpace(&sim.as());
  checker.set_shadows(&nomad->shadows());
  checker.set_queues(&nomad->queues());

  InvariantCheckActor::Config audit_cfg;
  Rng rng(seed ^ 0xAD17ull);
  audit_cfg.period = 50000 + rng.Below(350000);
  audit_cfg.die_on_violation = false;
  InvariantCheckActor auditor(&checker, audit_cfg);
  sim.engine().AddActor(&auditor);

  CorruptorActor corruptor(&sim.ms(), &sim.as(), 2000000);
  if (corrupt) {
    sim.engine().AddActor(&corruptor);
  }

  // The region starts entirely on the slow tier (promotion pressure); a
  // fast-tier filler keeps free fast frames scarce so allocation failures
  // and kswapd reclaim are routine rather than exceptional.
  MapRange(sim.ms(), sim.as(), 0, kRegionPages, Tier::kSlow);
  MapRange(sim.ms(), sim.as(), kRegionPages, kFastPages * 3 / 4, Tier::kFast);

  WorkloadActor::BaseConfig base;
  base.total_ops = ops;
  base.seed = seed;
  std::unique_ptr<WorkloadActor> actor;
  std::unique_ptr<ScrambledZipfian> zipf;
  if (workload == "micro") {
    MicroWorkload::Config cfg;
    cfg.base = base;
    cfg.wss_start = 0;
    cfg.wss_pages = kRegionPages;
    cfg.write_fraction = UnitDouble(rng) * 0.5;
    zipf = std::make_unique<ScrambledZipfian>(kRegionPages, 0.99, seed);
    actor = std::make_unique<MicroWorkload>(&sim.ms(), &sim.as(), zipf.get(), cfg);
  } else if (workload == "chase") {
    PointerChaseWorkload::Config cfg;
    cfg.base = base;
    cfg.region_start = 0;
    cfg.block_pages = 16;
    cfg.num_blocks = kRegionPages / 16;
    actor = std::make_unique<PointerChaseWorkload>(&sim.ms(), &sim.as(), cfg);
  } else if (workload == "scan") {
    SeqScanWorkload::Config cfg;
    cfg.base = base;
    cfg.region_start = 0;
    cfg.region_pages = kRegionPages;
    cfg.write_fraction = UnitDouble(rng) * 0.5;
    actor = std::make_unique<SeqScanWorkload>(&sim.ms(), &sim.as(), cfg);
  } else {
    std::cerr << "unknown workload: " << workload << "\n";
    std::exit(2);
  }
  sim.AddWorkload(actor.get());

  RunResult r;
  r.end_time = sim.Run(Cycles{1} << 38);

  r.violations = auditor.violations();
  if (r.violations.empty()) {
    r.violations = checker.Check();  // final end-of-run audit
  }
  r.ok = r.violations.empty();
  r.injector = sim.ms().faults()->Describe();
  r.audits = auditor.audits();
  r.injections = sim.ms().faults()->total_injected();
  if (corrupt && !corruptor.fired()) {
    std::cerr << "selftest: corruptor never fired (run too short?)\n";
    r.ok = true;  // nothing to detect; caller treats this as failure
  }
  if (!obs.timeline_out.empty()) {
    const std::string path =
        tag.empty() ? obs.timeline_out : PathWithTag(obs.timeline_out, tag);
    if (!WriteTimelineFile(sim, path)) {
      std::cerr << "warning: could not write timeline to " << path << "\n";
    }
  }
  if (!obs.trace_out.empty()) {
    const std::string path =
        tag.empty() ? obs.trace_out : PathWithTag(obs.trace_out, tag);
    if (!WriteTraceFile(sim, path)) {
      std::cerr << "warning: could not write trace to " << path << "\n";
    }
  }
  return r;
}

void PrintViolation(uint64_t seed, const std::string& workload, uint64_t ops,
                    const RunResult& r) {
  std::cerr << "INVARIANT VIOLATION  seed=" << seed << " workload=" << workload
            << " ops=" << ops << " t=" << r.end_time << "\n";
  std::cerr << "  injector: " << r.injector << "\n";
  for (const InvariantViolation& v : r.violations) {
    std::cerr << "  " << v.rule << ": " << v.detail << "\n";
  }
  std::cerr << "reproduce: chaos_sim --seed=" << seed << " --workloads=" << workload
            << " --ops=" << ops << "\n";
}

std::vector<std::string> SplitList(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      out.push_back(item);
    }
  }
  return out;
}

// The sharded soak campaign (--soak). Returns the process exit code.
int RunSoak(const Flags& flags, uint64_t one_seed, bool verbose) {
  const uint64_t seeds = flags.GetUint("soak_seeds", 32);
  const uint64_t seed_start = flags.GetUint("soak_seed_start", 1);
  const uint64_t ops = flags.GetUint("soak_ops", 24000);
  const uint64_t threads = flags.GetUint("threads", 0);
  const std::string focus_arg = flags.GetString("focus", "");
  const std::string metrics_out = flags.GetString("metrics_out", "");

  std::vector<ChaosFocus> focuses;
  if (focus_arg.empty()) {
    focuses.assign(std::begin(kChaosFocuses), std::end(kChaosFocuses));
  } else {
    for (const std::string& name : SplitList(focus_arg)) {
      ChaosFocus f;
      if (!ChaosFocusFromName(name, &f)) {
        std::cerr << "unknown --focus value: " << name << "\n";
        return 2;
      }
      focuses.push_back(f);
    }
  }

  const auto unused = flags.UnusedKeys();
  if (!unused.empty()) {
    std::cerr << "unknown flag(s):";
    for (const auto& k : unused) {
      std::cerr << " --" << k;
    }
    std::cerr << "\n";
    return 2;
  }

  std::vector<uint64_t> seed_list;
  if (one_seed != 0) {
    seed_list.push_back(one_seed);
  } else {
    for (uint64_t s = 0; s < seeds; s++) {
      seed_list.push_back(seed_start + s);
    }
  }

  std::ofstream metrics;
  if (!metrics_out.empty()) {
    metrics.open(metrics_out, std::ios::app);
    if (!metrics) {
      std::cerr << "cannot open --metrics_out=" << metrics_out << "\n";
      return 2;
    }
  }

  uint64_t cells = 0, failures = 0, total_faults = 0, total_stalls = 0,
           total_degradations = 0;
  for (const uint64_t seed : seed_list) {
    for (const ChaosFocus focus : focuses) {
      ChaosCellConfig cfg;
      cfg.seed = seed;
      cfg.focus = focus;
      cfg.total_ops = ops;
      cells++;

      bool ok = true;
      std::string why;
      ChaosCellResult r;
      if (threads != 0) {
        cfg.exec_threads = static_cast<uint32_t>(threads);
        r = RunChaosCell(cfg);
        ok = r.ok;
        if (!ok) {
          why = "invariant violation";
        }
      } else {
        std::string diff;
        if (!ChaosCellDeterministic(cfg, &diff)) {
          ok = false;
          why = "recovery record differs across exec_threads";
          std::cerr << diff;
        }
        cfg.exec_threads = 1;
        r = RunChaosCell(cfg);
        if (ok && !r.ok) {
          ok = false;
          why = "invariant violation";
        }
      }
      if (ok && r.degradations == 0) {
        // The cell's faults left no trace in any degradation counter: the
        // schedules are not reaching the resilience paths.
        ok = false;
        why = "no degradation observed";
      }
      total_faults += r.faults_injected;
      total_stalls += r.watchdog_stalls;
      total_degradations += r.degradations;
      if (!ok) {
        failures++;
        std::cerr << "SOAK FAILURE seed=" << seed
                  << " focus=" << ChaosFocusName(focus) << ": " << why << "\n";
        std::cerr << "reproduce: chaos_sim --soak --seed=" << seed
                  << " --focus=" << ChaosFocusName(focus) << " --soak_ops=" << ops
                  << "\n";
      } else if (verbose) {
        std::cout << "ok seed=" << seed << " focus=" << ChaosFocusName(focus)
                  << " epochs=" << r.epochs << " faults=" << r.faults_injected
                  << " stalls=" << r.watchdog_stalls
                  << " degradations=" << r.degradations << "\n";
      }
      if (metrics) {
        metrics << "seed=" << seed << " focus=" << ChaosFocusName(focus)
                << " ok=" << (ok ? 1 : 0) << " epochs=" << r.epochs
                << " faults=" << r.faults_injected << " stalls=" << r.watchdog_stalls
                << " degradations=" << r.degradations
                << " violations=" << r.invariant_violations << "\n";
      }
    }
  }

  std::cout << "chaos_sim --soak: " << cells << " cells, " << total_faults
            << " faults injected, " << total_stalls << " watchdog stalls, "
            << total_degradations << " degradations, " << failures << " failures\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t seeds = flags.GetUint("seeds", 50);
  const uint64_t one_seed = flags.GetUint("seed", 0);
  const uint64_t ops = flags.GetUint("ops", 30000);
  const std::vector<std::string> workloads =
      SplitList(flags.GetString("workloads", "micro,chase,scan"));
  const bool selftest = flags.GetBool("selftest", false);
  const bool verbose = flags.GetBool("verbose", false);
  ObsConfig obs;
  obs.timeline_out = flags.GetString("timeline_out", "");
  obs.timeline_interval = flags.GetUint("timeline_interval", 50000);
  obs.spans = flags.GetBool("spans", false);
  obs.trace_out = flags.GetString("trace_out", "");

  if (flags.GetBool("soak", false)) {
    return RunSoak(flags, one_seed, verbose);
  }

  const auto unused = flags.UnusedKeys();
  if (!unused.empty()) {
    std::cerr << "unknown flag(s):";
    for (const auto& k : unused) {
      std::cerr << " --" << k;
    }
    std::cerr << "\n";
    return 2;
  }

  if (selftest) {
    // The campaign is only trustworthy if a real corruption is caught.
    const uint64_t seed = one_seed != 0 ? one_seed : 7;
    const RunResult r = RunOne(seed, workloads.front(), ops, /*corrupt=*/true, obs);
    if (r.ok) {
      std::cerr << "selftest FAILED: deliberate corruption was not detected\n";
      return 1;
    }
    std::cout << "selftest passed: corruption detected by rule '"
              << r.violations.front().rule << "' after " << r.audits
              << " audits\n";
    return 0;
  }

  std::vector<uint64_t> seed_list;
  if (one_seed != 0) {
    seed_list.push_back(one_seed);
  } else {
    for (uint64_t s = 1; s <= seeds; s++) {
      seed_list.push_back(s);
    }
  }

  const bool single_run = seed_list.size() == 1 && workloads.size() == 1;
  uint64_t runs = 0, failures = 0, total_injections = 0, total_audits = 0;
  for (const uint64_t seed : seed_list) {
    for (const std::string& w : workloads) {
      const std::string tag =
          single_run ? "" : "seed" + std::to_string(seed) + "." + w;
      const RunResult r = RunOne(seed, w, ops, /*corrupt=*/false, obs, tag);
      runs++;
      total_injections += r.injections;
      total_audits += r.audits;
      if (!r.ok) {
        failures++;
        PrintViolation(seed, w, ops, r);
      } else if (verbose) {
        std::cout << "ok seed=" << seed << " workload=" << w
                  << " t=" << r.end_time << " audits=" << r.audits
                  << " injections=" << r.injections << "\n";
        std::cout << "   " << r.injector << "\n";
      }
    }
  }

  std::cout << "chaos_sim: " << runs << " runs, " << total_injections
            << " faults injected, " << total_audits << " audits, " << failures
            << " violations\n";
  return failures == 0 ? 0 : 1;
}
