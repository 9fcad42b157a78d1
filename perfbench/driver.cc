// Runs one rep of one benchmark workload and prints what it measured as a
// single JSON line. perfbench/run.py starts one process per rep, so each
// process's peak RSS belongs to that rep alone.
//
//   perfbench_driver --workload=NAME [--seed=42] [--traced]
//                    [--reference --metrics_tmp=PATH]
//
// --traced records spans around the benchmark's calls into each module.
// --reference marks the untimed first rep of a run: it exports every
// shard's nomad-metrics-v1 document through --metrics_tmp and prints it, so
// run.py can read counters and digest it.
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "src/harness/flags.h"
#include "workloads.h"

using namespace perfbench;

namespace {

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

void Print(const std::string& workload, uint64_t seed, bool traced, const RepResult& r) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::ostringstream os;
  nomad::JsonWriter jw(os);
  jw.BeginObject();
  jw.Field("workload", std::string_view(workload));
  jw.Field("seed", seed);
  jw.Field("traced", traced);
  jw.Field("ops_requested", r.ops_requested);
  jw.Field("ops_done", r.ops_done);
  jw.Key("setup_ns").Int(r.setup_ns);
  jw.Key("run_ns").Int(r.run_ns);
  jw.Key("wall_ns").Int(r.wall_ns);
  jw.Field("peak_rss_kb", static_cast<uint64_t>(usage.ru_maxrss));
  jw.Field("sim_ops_per_s", r.sim_ops_per_s);
  jw.Field("digest", std::string_view(Hex(r.digest)));
  jw.Field("aux_digest", std::string_view(Hex(r.aux_digest)));
  jw.Field("fast_used_frames", r.fast_used_frames);
  jw.Field("oom", r.oom);
  jw.Field("unresolved_faults", r.unresolved_faults);
  jw.Field("violations", r.violations);
  jw.Field("epochs", r.epochs);
  jw.Field("messages", r.messages);
  jw.Key("errors").BeginArray();
  for (const std::string& e : r.errors) {
    jw.String(e);
  }
  jw.EndArray();
  jw.Key("spans").BeginArray();
  for (const Span& s : r.spans) {
    jw.BeginObject();
    jw.Field("name", std::string_view(s.name));
    jw.Key("start_ns").Int(s.start_ns);
    jw.Key("end_ns").Int(s.end_ns);
    jw.Key("parent").Int(s.parent);
    jw.EndObject();
  }
  jw.EndArray();
  if (r.metrics_doc.empty()) {
    jw.Key("metrics").Null();
  } else {
    jw.Field("doc_digest", std::string_view(Hex(Fnv1a(r.metrics_doc))));
    std::string_view doc = r.metrics_doc;
    while (!doc.empty() && doc.back() == '\n') {
      doc.remove_suffix(1);
    }
    jw.Key("metrics").Raw(doc);
  }
  jw.EndObject();
  std::cout << os.str() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  nomad::Flags flags(argc, argv);
  const std::string workload = flags.GetString("workload", "");
  const uint64_t seed = flags.GetUint("seed", 42);
  const bool traced = flags.GetBool("traced", false);
  const bool reference = flags.GetBool("reference", false);
  const std::string metrics_tmp = flags.GetString("metrics_tmp", "");
  const auto unused = flags.UnusedKeys();
  bool known = false;
  for (const std::string& name : WorkloadNames()) {
    known |= name == workload;
  }
  if (!unused.empty() || !known || (reference && metrics_tmp.empty())) {
    std::cerr << "usage: perfbench_driver --workload=<micro-small-read|ycsb-thrash-sharded> "
                 "[--seed=N] [--traced] [--reference --metrics_tmp=PATH]\n";
    return 2;
  }

  RepResult r;
  if (IsMicro(workload)) {
    r = reference ? RunMicroReference(MicroConfig(seed), metrics_tmp)
                  : RunMicroRep(MicroConfig(seed), traced);
  } else if (reference) {
    r = RunYcsbReference(YcsbConfig(seed), metrics_tmp);
  } else {
    r = RunYcsbRep(YcsbConfig(seed), traced);
  }
  Print(workload, seed, traced, r);
  return 0;
}
