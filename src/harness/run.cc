#include "src/harness/run.h"

#include <fstream>
#include <iostream>
#include <sstream>

#include "src/check/check.h"

namespace nomad {

namespace {

// t.json + "tpp" -> t.tpp.json; labels are sanitized to [-a-zA-Z0-9_].
std::string PathWithLabel(const std::string& path, const std::string& label) {
  std::string safe;
  for (const char c : label) {
    safe.push_back(std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_' ? c
                                                                                       : '-');
  }
  const size_t slash = path.find_last_of('/');
  const size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + "." + safe;
  }
  return path.substr(0, dot) + "." + safe + path.substr(dot);
}

}  // namespace

MetricsCollector MetricsCollector::FromFlags(const std::string& bench_id, const Flags& flags) {
  return MetricsCollector(bench_id, flags.GetString("metrics_out", ""),
                          flags.GetString("trace_out", ""),
                          flags.GetString("profile_out", ""),
                          flags.GetString("timeline_out", ""));
}

void MetricsCollector::Capture(const std::string& label, Sim& sim, const PhaseReport& report) {
  if (!active()) {
    return;
  }
  // Exporting a run whose instruments were off would write empty trace,
  // profile, histogram and provenance sections without a word.
  NOMAD_CHECK(sim.ms().instruments_enabled(), "captured run '", label,
              "' had its instruments off");
  if (!metrics_path_.empty()) {
    std::ostringstream os;
    JsonWriter jw(os);
    AppendRunMetrics(jw, sim, report, label);
    run_json_.push_back(os.str());
  }
  if (!trace_path_.empty()) {
    const std::string path =
        captures_ == 0 ? trace_path_ : PathWithLabel(trace_path_, label);
    if (!WriteTraceFile(sim, path)) {
      std::cerr << "warning: could not write trace to " << path << "\n";
    }
  }
  if (!profile_path_.empty()) {
    const std::string path =
        captures_ == 0 ? profile_path_ : PathWithLabel(profile_path_, label);
    if (!WriteProfileFile(sim, path)) {
      std::cerr << "warning: could not write profile to " << path << "\n";
    }
  }
  // Only runs that actually sampled a timeline write one; the collector
  // cannot enable sampling retroactively.
  if (!timeline_path_.empty() && sim.timeline_sampler() != nullptr) {
    const std::string path =
        captures_ == 0 ? timeline_path_ : PathWithLabel(timeline_path_, label);
    if (!WriteTimelineFile(sim, path)) {
      std::cerr << "warning: could not write timeline to " << path << "\n";
    }
  }
  captures_++;
}

void MetricsCollector::Flush() {
  if (flushed_ || metrics_path_.empty()) {
    return;
  }
  flushed_ = true;
  std::ofstream out(metrics_path_);
  if (!out) {
    std::cerr << "warning: could not write metrics to " << metrics_path_ << "\n";
    return;
  }
  JsonWriter jw(out);
  jw.BeginObject();
  jw.Field("schema", std::string_view("nomad-metrics-v1"));
  jw.Field("benchmark", std::string_view(bench_id_));
  jw.Key("runs").BeginArray();
  for (const std::string& run : run_json_) {
    jw.Raw(run);
  }
  jw.EndArray();
  jw.EndObject();
  out << "\n";
}

}  // namespace nomad
