// Ablation: transactional/asynchronous page migration vs the same policy
// with kpromote forced onto the synchronous unmap-copy-remap path.
// Isolates the contribution of TPM (sec. 3.1) from the rest of NOMAD.
#include <iostream>

#include "bench/bench_common.h"

using namespace nomad;

int main(int argc, char** argv) {
  if (!AllFlagsRead(Flags(argc, argv), "ablation_async")) {
    return 2;
  }
  PrintHeader("Ablation",
              "where NOMAD's win comes from: asynchrony vs transactionality",
              PlatformId::kA, 64);

  TablePrinter t({"variant", "workload", "transient GB/s", "stable GB/s",
                  "migration blocks"});
  auto add_row = [&t](const char* variant, const char* wl, const MicroRunResult& r) {
    t.AddRow({variant, wl, Fmt(r.report.transient_gbps), Fmt(r.report.stable_gbps),
              FmtCount(r.counters.Get("fault.migration_block"))});
  };
  for (double wf : {0.0, 1.0}) {
    const char* wl = wf > 0 ? "write" : "read";
    MicroRunConfig cfg = MediumWssConfig(PlatformId::kA, PolicyKind::kNomad);
    cfg.placement = Placement::kFrequencyOpt;
    cfg.write_fraction = wf;
    add_row("NOMAD, TPM (async + transactional)", wl, RunMicroBench(cfg));
    cfg.nomad.kpromote.transactional = false;
    add_row("NOMAD, locking copy (async only)", wl, RunMicroBench(cfg));
    // TPP = synchronous migration ON the faulting thread (the critical
    // path), for reference.
    cfg.policy = PolicyKind::kTpp;
    add_row("TPP (sync, on the critical path)", wl, RunMicroBench(cfg));
  }
  t.Print(std::cout);
  std::cout << "\nExpected shape: moving migration OFF the critical path (either NOMAD\n"
               "variant vs TPP) is the dominant win. Transactionality then removes the\n"
               "page-lock windows concurrent accessors block on (fewer migration\n"
               "blocks), at the price of aborted copies on write-heavy pages - the\n"
               "trade the paper describes in sec. 3.1.\n";
  return 0;
}
