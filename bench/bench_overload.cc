// Overload benchmark for the migration control plane: a thrashing
// workload (working set ~2x the fast tier, flat-ish Zipf, random initial
// placement) drives sustained promotion pressure, then the same offered
// load runs with admission control off and on. Without admission every
// hot-looking page competes for migration bandwidth and the churn taxes
// demand traffic; with a token-bucket budget + backlog cap the control
// plane sheds migration work instead, trading pages-migrated for demand
// latency. The gate: admission-on must show a no-worse p99 and a bounded
// pending-queue high watermark versus admission-off, with both variants'
// metrics recorded for scripts/check_bench_regression.py (baseline
// bench/baselines/bench_overload.json, 20% threshold).
#include <iostream>

#include "bench/bench_common.h"

using namespace nomad;

namespace {

constexpr uint64_t kScaleDenom = 64;

MicroRunResult RunVariant(bool admission, MetricsCollector* collector) {
  MicroRunConfig cfg;
  cfg.scale_denom = kScaleDenom;
  // The fast tier shrinks to half the working set: promotion can never
  // settle, so kpromote stays saturated for the whole run.
  cfg.fast_gb = 4.0;
  cfg.rss_gb = 12.0;
  cfg.wss_gb = 8.0;
  cfg.wss_fast_gb = 1.0;
  cfg.kernel_gb = 1.0;
  cfg.placement = Placement::kRandom;
  // Theta 0.8: flat enough that the "hot" set never fits, so promotions
  // keep displacing each other (the overload the admission plane is for).
  cfg.zipf_theta = 0.8;
  cfg.write_fraction = 0.3;
  cfg.threads = 1;
  cfg.total_ops = 1500000;
  cfg.nomad.enable_admission = admission;
  if (admission) {
    // A deliberately tight budget: the bucket sustains far fewer
    // promotions than the thrash offers, the backlog cap keeps the
    // pending queue shallow, and storming pages fall back to sync
    // migration instead of aborting over and over.
    AdmissionController::Config& ac = cfg.nomad.admission;
    ac.promote_cycles_per_page = 60000;
    ac.promote_burst_pages = 16;
    ac.demote_cycles_per_page = 30000;
    ac.demote_burst_pages = 16;
    ac.max_pending_backlog = 32;
    ac.downgrade_abort_threshold = 3;
    ac.downgrade_decay = 4000000;
  }
  return RunMicroBench(cfg, collector, admission ? "admission-on" : "admission-off");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  MetricsCollector collector = MetricsCollector::FromFlags("bench_overload", flags);
  if (!AllFlagsRead(flags, "bench_overload [--metrics_out=PATH] [--trace_out=PATH]")) {
    return 2;
  }
  PrintHeader("Overload", "admission control under a thrashing working set",
              PlatformId::kA, kScaleDenom);

  const MicroRunResult off = RunVariant(false, &collector);
  const MicroRunResult on = RunVariant(true, &collector);

  TablePrinter t({"variant", "stable GB/s", "p99 (cyc)", "pages migrated", "sync migr",
                  "pending hwm", "pcq hwm"});
  auto add_row = [&t](const char* variant, const MicroRunResult& r) {
    t.AddRow({variant, Fmt(r.report.stable_gbps),
              FmtCount(static_cast<uint64_t>(r.report.p99_latency_cycles)),
              FmtCount(r.tpm_commits), FmtCount(r.counters.Get(cnt::kNomadDegradedSyncMigration)),
              FmtCount(r.pending_hwm), FmtCount(r.pcq_hwm)});
  };
  add_row("admission off", off);
  add_row("admission on", on);
  t.Print(std::cout);
  // AdmissionController::RecordVerdict keeps these counters equal to the
  // controller's own stats.
  std::cout << "\nadmission-on verdicts: rejects=" << on.counters.Get(cnt::kAdmissionReject)
            << " defers=" << on.counters.Get(cnt::kAdmissionDefer)
            << " downgrades=" << on.counters.Get(cnt::kAdmissionDowngradeSync) << "\n";
  std::cout << "Expected shape: admission-on migrates a fraction of the pages, keeps\n"
               "the pending queue at its cap (bounded hwm), and converts the saved\n"
               "migration bandwidth into lower demand-traffic tail latency.\n";

  // The bench is its own acceptance check so CI fails loudly rather than
  // silently committing a baseline where admission hurts.
  bool ok = true;
  if (on.report.p99_latency_cycles > off.report.p99_latency_cycles) {
    std::cout << "FAIL: admission-on p99 (" << on.report.p99_latency_cycles
              << ") worse than admission-off (" << off.report.p99_latency_cycles << ")\n";
    ok = false;
  }
  if (on.pending_hwm > 32 + 1) {
    std::cout << "FAIL: admission-on pending hwm " << on.pending_hwm
              << " exceeds the backlog cap\n";
    ok = false;
  }
  if (on.tpm_commits >= off.tpm_commits) {
    std::cout << "FAIL: admission-on migrated no fewer pages (" << on.tpm_commits << " vs "
              << off.tpm_commits << ")\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
