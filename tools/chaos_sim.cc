// chaos_sim: seeded fault-injection campaign over the NOMAD migration paths
// and the sharded engine, with invariant audits during and after each run.
//
// The campaign runs one chaos cell (src/harness/chaos.h) per (seed, fault
// focus, workload): a 4-shard lockstep run whose per-shard injectors are
// armed from the seed — barrier stalls, delivery delays and alloc-fail
// waves, PCQ overflow, or the five per-page migration faults — with an
// auditor stepping in every shard, the stalled-epoch watchdog, a
// quiescence audit of every shard, and a byte-compare of the recovery
// record across exec_threads=1 and =4. A cell fails on any invariant
// violation, on a thread-count-dependent recovery record, or when the
// faults produced no observable degradation at all; it then prints a
// one-line reproducer (the seed fully determines the cell).
//
// Examples:
//   ./chaos_sim --seeds=32                          # the whole campaign
//   ./chaos_sim --seed=17 --seeds=16                # seeds 17..32 (CI blocks)
//   ./chaos_sim --seed=7 --seeds=1 --focus=migration --workloads=chase
//   ./chaos_sim --selftest                          # prove detection works
//
// Flags (defaults in brackets):
//   --seed=N           [1]      first seed
//   --seeds=N          [16]     seeds seed..seed+N-1
//   --ops=N            [120000] whole-machine ops per cell; each of the 4
//                               shards runs a quarter of them
//   --focus=a,b        [all]    shard_stall,alloc_fail_wave,pcq_overflow,migration
//   --workloads=a,b    [all]    zipf,chase,scan (the app threads' access pattern)
//   --threads=N        [0]      0: run threads=1 and =4, byte-compare the
//                               recovery records; else run exactly N
//   --selftest         [off]    corrupt the first cell mid-run; succeed iff
//                               the auditors report it
//   --verbose          [off]    per-cell summary lines
//   --metrics_out=path []       append one summary line per cell
//   --timeline_out=path []      per-shard telemetry timeline CSVs, sampled
//                               once per epoch (tools/timeline_report input);
//                               the first cell's shard 0 gets the exact path
//   --trace_out=path   []       per-shard chrome://tracing dumps with
//                               migration spans (trace_query --span input)
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/chaos.h"
#include "src/harness/flags.h"

using namespace nomad;

namespace {

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

// Parses a comma list of names into `out`, or every value of `all` when the
// list is empty. Returns false after naming the first unknown value.
template <typename T, size_t N>
bool ParseList(const std::string& flag, const std::string& arg, const T (&all)[N],
               bool (*from_name)(const std::string&, T*), std::vector<T>* out) {
  if (arg.empty()) {
    out->assign(std::begin(all), std::end(all));
    return true;
  }
  for (const std::string& name : SplitList(arg)) {
    T value;
    if (!from_name(name, &value)) {
      std::cerr << "unknown --" << flag << " value: " << name << "\n";
      return false;
    }
    out->push_back(value);
  }
  if (out->empty()) {
    std::cerr << "--" << flag << " names no value\n";
    return false;
  }
  return true;
}

std::string CellName(const ChaosCellConfig& cfg) {
  return "seed=" + std::to_string(cfg.seed) + " focus=" + ChaosFocusName(cfg.focus) +
         " workload=" + AccessPatternName(cfg.pattern);
}

void PrintAuditViolations(const ChaosCellResult& r) {
  for (const InvariantViolation& v : r.audit_violations) {
    std::cerr << "  audit " << v.rule << ": " << v.detail << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t first_seed = flags.GetUint("seed", 1);
  const uint64_t seeds = flags.GetUint("seeds", 16);
  const uint64_t ops = flags.GetUint("ops", 120000);
  const uint64_t threads = flags.GetUint("threads", 0);
  const bool selftest = flags.GetBool("selftest", false);
  const bool verbose = flags.GetBool("verbose", false);
  const std::string metrics_out = flags.GetString("metrics_out", "");
  MetricsCollector collector("chaos_sim", "", flags.GetString("trace_out", ""), "",
                             flags.GetString("timeline_out", ""));
  std::vector<ChaosFocus> focuses;
  std::vector<AccessPattern> workloads;
  if (!ParseList("focus", flags.GetString("focus", ""), kChaosFocuses, ChaosFocusFromName,
                 &focuses) ||
      !ParseList("workloads", flags.GetString("workloads", ""), kAccessPatterns,
                 AccessPatternFromName, &workloads)) {
    return 2;
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

  ChaosCellConfig cfg;
  cfg.total_ops = ops;
  cfg.exec_threads = threads == 0 ? 1 : static_cast<uint32_t>(threads);

  if (selftest) {
    // The campaign is only trustworthy if a real corruption is caught.
    cfg.seed = first_seed;
    cfg.focus = focuses.front();
    cfg.pattern = workloads.front();
    cfg.corrupt = true;
    const ChaosCellResult r = RunChaosCell(cfg);
    if (r.audit_violations.empty()) {
      std::cerr << "selftest FAILED: the auditors reported no corruption (" << CellName(cfg)
                << "; the frame is freed at 1M cycles, so a shorter run is never corrupted)\n";
      return 1;
    }
    std::cout << "selftest passed: corruption detected by rule '"
              << r.audit_violations.front().rule << "' after " << r.audits << " audits\n";
    return 0;
  }

  std::ofstream metrics;
  if (!metrics_out.empty()) {
    metrics.open(metrics_out, std::ios::app);
    if (!metrics) {
      std::cerr << "cannot open --metrics_out=" << metrics_out << "\n";
      return 2;
    }
  }

  uint64_t cells = 0, failures = 0, total_faults = 0, total_audits = 0, total_stalls = 0,
           total_degradations = 0;
  for (uint64_t seed = first_seed; seed < first_seed + seeds; seed++) {
    for (const ChaosFocus focus : focuses) {
      for (const AccessPattern workload : workloads) {
        cfg.seed = seed;
        cfg.focus = focus;
        cfg.pattern = workload;
        cells++;
        const std::string label = "seed" + std::to_string(seed) + "." + ChaosFocusName(focus) +
                                  "." + AccessPatternName(workload);
        const ChaosCellResult r = RunChaosCell(cfg, &collector, label);
        std::string why;
        if (!r.ok) {
          why = "invariant violation";
        } else if (threads == 0) {
          ChaosCellConfig wide = cfg;
          wide.exec_threads = 4;
          const ChaosCellResult w = RunChaosCell(wide);
          if (w.recovery != r.recovery) {
            why = "recovery record differs across exec_threads";
            std::cerr << "--- threads=1 ---\n" << r.recovery << "--- threads=4 ---\n"
                      << w.recovery;
          }
        }
        if (why.empty() && r.degradations == 0) {
          // The cell's faults left no trace in any degradation counter: the
          // schedules are not reaching the resilience paths.
          why = "no degradation observed";
        }
        total_faults += r.faults_injected;
        total_audits += r.audits;
        total_stalls += r.watchdog_stalls;
        total_degradations += r.degradations;
        if (!why.empty()) {
          failures++;
          std::cerr << "CHAOS FAILURE " << CellName(cfg) << ": " << why << "\n";
          PrintAuditViolations(r);
          std::cerr << "reproduce: chaos_sim --seed=" << seed << " --seeds=1 --focus="
                    << ChaosFocusName(focus) << " --workloads=" << AccessPatternName(workload)
                    << " --ops=" << ops << "\n";
        } else if (verbose) {
          std::cout << "ok " << CellName(cfg) << " epochs=" << r.epochs
                    << " faults=" << r.faults_injected << " audits=" << r.audits
                    << " stalls=" << r.watchdog_stalls << " degradations=" << r.degradations
                    << "\n";
        }
        if (metrics) {
          metrics << CellName(cfg) << " ok=" << (why.empty() ? 1 : 0) << " epochs=" << r.epochs
                  << " faults=" << r.faults_injected << " audits=" << r.audits
                  << " stalls=" << r.watchdog_stalls << " degradations=" << r.degradations
                  << " violations=" << r.invariant_violations + r.audit_violations.size()
                  << "\n";
        }
      }
    }
  }

  std::cout << "chaos_sim: " << cells << " cells, " << total_faults << " faults injected, "
            << total_audits << " audits, " << total_stalls << " watchdog stalls, "
            << total_degradations << " degradations, " << failures << " failures\n";
  return failures == 0 ? 0 : 1;
}
