#include "src/obs/exporters.h"

#include <algorithm>
#include <map>

namespace nomad {

namespace {

// Cycles -> microseconds for the trace "ts" field.
double CyclesToUs(Cycles c, double ghz) { return static_cast<double>(c) / (ghz * 1e3); }

void EmitEventArgs(JsonWriter& jw, const TraceEventRecord& r) {
  jw.Key("args").BeginObject();
  jw.Field("arg", r.arg);
  jw.Field("value", r.value);
  jw.EndObject();
}

}  // namespace

void WriteChromeTrace(const TraceSink& sink, double ghz,
                      const std::vector<std::string>& actor_names, std::ostream& out) {
  JsonWriter jw(out);
  jw.BeginObject();
  jw.Field("displayTimeUnit", std::string_view("ms"));
  // The ring keeps only its newest records, so say how many it took and
  // how many of those are gone: a reader can tell a truncated trace.
  jw.Key("otherData").BeginObject();
  jw.Field("emitted", sink.total_emitted());
  jw.Field("dropped", sink.dropped());
  jw.EndObject();
  jw.Key("traceEvents").BeginArray();

  const std::vector<TraceEventRecord> records = sink.Snapshot();

  // Thread-name metadata for every tid that appears (plus known names).
  std::map<uint16_t, std::string> tids;
  for (const TraceEventRecord& r : records) {
    if (tids.count(r.actor) == 0) {
      tids[r.actor] = r.actor < actor_names.size()
                          ? actor_names[r.actor]
                          : "actor-" + std::to_string(r.actor);
    }
  }
  for (const auto& [tid, name] : tids) {
    jw.BeginObject();
    jw.Field("name", std::string_view("thread_name"));
    jw.Field("ph", std::string_view("M"));
    jw.Field("pid", uint64_t{0});
    jw.Field("tid", static_cast<uint64_t>(tid));
    jw.Key("args").BeginObject().Field("name", std::string_view(name)).EndObject();
    jw.EndObject();
  }

  // TPM begin/commit/abort become duration slices; ring wraparound can strip
  // a begin, so an end with no open begin degrades to an instant.
  std::map<uint16_t, uint64_t> open_tpm;
  for (const TraceEventRecord& r : records) {
    const bool is_end = r.type == TraceEvent::kTpmCommit || r.type == TraceEvent::kTpmAbort;
    if (r.type == TraceEvent::kTpmBegin) {
      jw.BeginObject();
      jw.Field("name", std::string_view("tpm"));
      jw.Field("ph", std::string_view("B"));
      jw.Field("ts", CyclesToUs(r.time, ghz));
      jw.Field("pid", uint64_t{0});
      jw.Field("tid", static_cast<uint64_t>(r.actor));
      EmitEventArgs(jw, r);
      jw.EndObject();
      open_tpm[r.actor]++;
      continue;
    }
    if (is_end && open_tpm[r.actor] > 0) {
      open_tpm[r.actor]--;
      jw.BeginObject();
      jw.Field("name", std::string_view("tpm"));
      jw.Field("ph", std::string_view("E"));
      jw.Field("ts", CyclesToUs(r.time, ghz));
      jw.Field("pid", uint64_t{0});
      jw.Field("tid", static_cast<uint64_t>(r.actor));
      jw.Key("args")
          .BeginObject()
          .Field("outcome", std::string_view(TraceEventName(r.type)))
          .Field("arg", r.arg)
          .EndObject();
      jw.EndObject();
      continue;
    }
    jw.BeginObject();
    jw.Field("name", std::string_view(TraceEventName(r.type)));
    jw.Field("ph", std::string_view("i"));
    jw.Field("s", std::string_view("t"));
    jw.Field("ts", CyclesToUs(r.time, ghz));
    jw.Field("pid", uint64_t{0});
    jw.Field("tid", static_cast<uint64_t>(r.actor));
    EmitEventArgs(jw, r);
    jw.EndObject();
  }

  // Close any transaction left in flight at the end of the run, so every
  // "B" has a matching "E" and the document loads cleanly.
  Cycles last_time = records.empty() ? 0 : records.back().time;
  for (const auto& [tid, depth] : open_tpm) {
    for (uint64_t i = 0; i < depth; i++) {
      jw.BeginObject();
      jw.Field("name", std::string_view("tpm"));
      jw.Field("ph", std::string_view("E"));
      jw.Field("ts", CyclesToUs(last_time, ghz));
      jw.Field("pid", uint64_t{0});
      jw.Field("tid", static_cast<uint64_t>(tid));
      jw.Key("args")
          .BeginObject()
          .Field("outcome", std::string_view("in_flight_at_exit"))
          .EndObject();
      jw.EndObject();
    }
  }

  jw.EndArray();
  jw.EndObject();
  out << "\n";
}

void AppendCountersJson(JsonWriter& jw, const CounterSet& counters) {
  jw.BeginObject();
  for (const auto& [name, value] : counters.All()) {
    jw.Field(name, value);
  }
  jw.EndObject();
}

void AppendLatencyJson(JsonWriter& jw, const LatencyHistogram& hist) {
  jw.BeginObject();
  jw.Field("count", hist.count());
  jw.Field("mean", hist.Mean());
  jw.Field("p50", hist.Quantile(0.50));
  jw.Field("p90", hist.Quantile(0.90));
  jw.Field("p99", hist.Quantile(0.99));
  jw.Field("p999", hist.Quantile(0.999));
  jw.Field("max", hist.Max());
  jw.EndObject();
}

void AppendBandwidthJson(JsonWriter& jw, Cycles window_cycles,
                         const std::vector<uint64_t>& window_bytes, double ghz) {
  jw.BeginObject();
  jw.Field("window_cycles", window_cycles);
  jw.Field("windows", static_cast<uint64_t>(window_bytes.size()));
  jw.Key("gbps").BeginArray();
  for (const uint64_t bytes : window_bytes) {
    const double bpc =
        window_cycles == 0 ? 0.0
                           : static_cast<double>(bytes) / static_cast<double>(window_cycles);
    jw.Double(bpc * ghz);
  }
  jw.EndArray();
  jw.EndObject();
}

void AppendProfileJson(JsonWriter& jw, const Profiler& prof) {
  jw.BeginObject();
  jw.Field("unattributed", prof.unattributed());
  jw.Key("nodes").BeginObject();
  for (uint8_t i = 0; i < kNumProfNodes; i++) {
    const ProfNode n = static_cast<ProfNode>(i);
    if (prof.total_cycles(n) == 0 && prof.self_cycles(n) == 0) {
      continue;
    }
    jw.Key(ProfNodeName(n)).BeginObject();
    jw.Field("self", prof.self_cycles(n));
    jw.Field("total", prof.total_cycles(n));
    jw.EndObject();
  }
  jw.EndObject();
  jw.EndObject();
}

void WriteCollapsedStacks(const Profiler& prof, std::ostream& out) {
  for (const auto& [key, cycles] : prof.paths()) {
    bool first = true;
    for (const ProfNode n : Profiler::DecodePath(key)) {
      out << (first ? "" : ";") << ProfNodeName(n);
      first = false;
    }
    out << " " << cycles << "\n";
  }
  if (prof.unattributed() > 0) {
    out << "(unattributed) " << prof.unattributed() << "\n";
  }
}

void AppendHistogramsJson(JsonWriter& jw, const HistogramSet& hists) {
  jw.BeginObject();
  for (const auto& [name, h] : hists.All()) {
    jw.Key(name).BeginObject();
    jw.Field("count", h.count());
    jw.Field("mean", h.Mean());
    jw.Field("p50", h.Quantile(0.50));
    jw.Field("p90", h.Quantile(0.90));
    jw.Field("p99", h.Quantile(0.99));
    jw.Field("max", h.Max());
    jw.EndObject();
  }
  jw.EndObject();
}

void AppendProvenanceJson(JsonWriter& jw, const ProvenanceLedger& ledger, size_t top_n) {
  jw.BeginObject();
  jw.Field("tracked", static_cast<uint64_t>(ledger.tracked()));
  jw.Field("dropped", ledger.dropped());
  jw.Field("promotions", ledger.promotions());
  jw.Field("demotions", ledger.demotions());
  jw.Field("aborts", ledger.aborts());
  jw.Field("redirty_events", ledger.redirty_events());
  jw.Field("shadow_frees", ledger.shadow_frees());
  jw.Field("ping_pong_events", ledger.ping_pong_events());
  jw.Field("ping_pong_pages", ledger.ping_pong_pages());
  jw.Field("redirty_rate", ledger.RedirtyRate());
  jw.Key("top_thrashers").BeginArray();
  for (const ProvenanceLedger::Thrasher& t : ledger.TopThrashers(top_n)) {
    jw.BeginObject();
    jw.Field("vpn", t.vpn);
    jw.Field("score", t.score);
    jw.Field("promotions", uint64_t{t.rec.promotions});
    jw.Field("demotions", uint64_t{t.rec.demotions});
    jw.Field("aborts", uint64_t{t.rec.aborts});
    jw.Field("redirties", uint64_t{t.rec.redirties});
    jw.Field("ping_pongs", uint64_t{t.rec.ping_pongs});
    jw.EndObject();
  }
  jw.EndArray();
  jw.EndObject();
}

void AppendTraceSummaryJson(JsonWriter& jw, const TraceSink& sink) {
  jw.BeginObject();
  jw.Field("enabled", sink.enabled());
  jw.Field("emitted", sink.total_emitted());
  jw.Field("retained", static_cast<uint64_t>(sink.size()));
  jw.Field("dropped", sink.dropped());
  jw.Key("events").BeginObject();
  uint64_t per_type[static_cast<size_t>(TraceEvent::kNumEvents)] = {};
  for (const TraceEventRecord& r : sink.Snapshot()) {
    per_type[static_cast<size_t>(r.type)]++;
  }
  for (size_t i = 0; i < static_cast<size_t>(TraceEvent::kNumEvents); i++) {
    if (per_type[i] > 0) {
      jw.Field(TraceEventName(static_cast<TraceEvent>(i)), per_type[i]);
    }
  }
  jw.EndObject();
  jw.EndObject();
}

}  // namespace nomad
