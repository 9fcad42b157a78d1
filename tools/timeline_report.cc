// timeline_report: offline analysis over --timeline_out CSVs.
//
// Consumes the columnar telemetry timelines the simulator samples in virtual
// time (src/obs/timeline.h) and turns the raw channel matrix into the views
// the paper's temporal narratives need:
//
//   --in=A[,B,...]   summary + phase breakdown + anomaly scan per file;
//                    with several files, per-shard skew is checked across
//                    their final shard.ops_done gauges
//   --diff=A,B       compare two timelines channel-by-channel (bench
//                    trajectory comparison / determinism gate)
//   --check          exit 1 if any anomaly fires (clean-run gate), or, with
//                    --diff, if the two timelines differ anywhere
//   --expect=RULES   comma list of anomaly rules that MUST fire (abort-storm
//                    reproduction gate); with --expect, other anomalies are
//                    reported but do not fail --check
//   --selftest       run the embedded checks on canned CSVs
//
// Anomaly rules are deterministic window arithmetic — no wall-clock, no
// randomness — so a fixed-seed run either always trips a rule or never does:
//
//   abort_storm       tpm-abort delta >= kAbortStormMin in one window, or
//                     the kpromote degraded-mode gauge turning on
//   watermark_breach  fast tier below its low watermark for
//                     >= kBreachWindows consecutive windows; the run-
//                     initial fill transient (a breach beginning in the very
//                     first window, before kswapd ever ran) is exempt
//   verdict_flapping  the majority admission verdict flipping
//                     >= kFlapMin times within kFlapSpan active windows
//   queue_runaway     pending+deferred promotion backlog growing
//                     >= kRunawayRatio x across some kRunawayWindows-
//                     window span and ending >= kRunawayMin entries; slow
//                     steady accumulation (a bandwidth-bound PCQ filling
//                     over hundreds of windows) is deliberately not flagged
//   shard_skew        max/min final shard.ops_done across input files
//                     > kSkewRatio
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/flags.h"
#include "src/obs/event_registry.h"
#include "src/obs/timeline.h"

namespace nomad {
namespace {

// ---------------------------------------------------------------------------
// CSV model. One column per channel; all values are unsigned 64-bit, matching
// Timeline::WriteCsv.
// ---------------------------------------------------------------------------

struct TimelineCsv {
  std::string path;
  std::vector<uint64_t> time;
  std::vector<std::string> channels;
  std::vector<std::vector<uint64_t>> cols;  // [channel][row]

  const std::vector<uint64_t>* Col(const std::string& name) const {
    for (size_t i = 0; i < channels.size(); i++) {
      if (channels[i] == name) {
        return &cols[i];
      }
    }
    return nullptr;
  }
};

bool SplitRow(const std::string& line, std::vector<std::string>* out) {
  out->clear();
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, ',')) {
    out->push_back(field);
  }
  return !out->empty();
}

bool LoadTimelineCsv(std::istream& in, const std::string& path, TimelineCsv* t,
                     std::string* error) {
  t->path = path;
  std::string line;
  if (!std::getline(in, line)) {
    *error = path + ": empty file";
    return false;
  }
  std::vector<std::string> fields;
  SplitRow(line, &fields);
  if (fields.empty() || fields[0] != "time") {
    *error = path + ": header must start with 'time'";
    return false;
  }
  for (size_t i = 1; i < fields.size(); i++) {
    // The writer only emits registry-checked channels; rejecting anything
    // else catches corrupt or foreign CSVs before the rules run on garbage.
    if (!IsRegisteredTimelineChannel(fields[i].c_str())) {
      *error = path + ": unregistered channel '" + fields[i] + "'";
      return false;
    }
    t->channels.push_back(fields[i]);
  }
  t->cols.assign(t->channels.size(), {});
  size_t row = 1;
  while (std::getline(in, line)) {
    row++;
    if (line.empty()) {
      continue;
    }
    SplitRow(line, &fields);
    if (fields.size() != t->channels.size() + 1) {
      *error = path + ": row " + std::to_string(row) + " has " +
               std::to_string(fields.size()) + " fields, want " +
               std::to_string(t->channels.size() + 1);
      return false;
    }
    for (size_t i = 0; i < fields.size(); i++) {
      uint64_t v = 0;
      try {
        v = std::stoull(fields[i]);
      } catch (...) {
        *error = path + ": row " + std::to_string(row) + ": bad number '" + fields[i] + "'";
        return false;
      }
      if (i == 0) {
        t->time.push_back(v);
      } else {
        t->cols[i - 1].push_back(v);
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Derived per-window series.
// ---------------------------------------------------------------------------

// Sums the named counter-delta channels per window; absent channels (the
// counter never fired, so its column never appeared) contribute zero.
std::vector<uint64_t> SumChannels(const TimelineCsv& t,
                                  const std::vector<std::string>& names) {
  std::vector<uint64_t> out(t.time.size(), 0);
  for (const std::string& name : names) {
    if (const std::vector<uint64_t>* col = t.Col(name)) {
      for (size_t i = 0; i < out.size(); i++) {
        out[i] += (*col)[i];
      }
    }
  }
  return out;
}

std::string CntChannel(const char* counter) { return std::string("cnt.") + counter; }

// Migration activity per window: every page that moved between tiers, by any
// mechanism. Drives the phase breakdown.
std::vector<uint64_t> MigrationActivity(const TimelineCsv& t) {
  return SumChannels(t, {CntChannel(cnt::kNomadTpmCommit), CntChannel(cnt::kMigrateSyncPromote),
                         CntChannel(cnt::kMigrateSyncDemote), CntChannel(cnt::kNomadDemoteCopy)});
}

// ---------------------------------------------------------------------------
// Phase breakdown: contiguous runs of migration-active/quiescent windows.
// ---------------------------------------------------------------------------

struct Phase {
  bool migrating = false;
  size_t first = 0;  // window index range [first, last]
  size_t last = 0;
  uint64_t moved_pages = 0;
};

std::vector<Phase> BreakPhases(const TimelineCsv& t) {
  std::vector<Phase> phases;
  const std::vector<uint64_t> activity = MigrationActivity(t);
  for (size_t i = 0; i < activity.size(); i++) {
    const bool migrating = activity[i] > 0;
    if (phases.empty() || phases.back().migrating != migrating) {
      phases.push_back(Phase{migrating, i, i, 0});
    }
    phases.back().last = i;
    phases.back().moved_pages += activity[i];
  }
  return phases;
}

// ---------------------------------------------------------------------------
// Anomaly rules.
// ---------------------------------------------------------------------------

struct Anomaly {
  std::string rule;
  uint64_t onset_time = 0;
  std::string detail;
};

constexpr uint64_t kAbortStormMin = 8;  // aborts in one window

void DetectAbortStorm(const TimelineCsv& t, std::vector<Anomaly>* out) {
  const std::vector<uint64_t>* aborts = t.Col(CntChannel(cnt::kNomadTpmAbort));
  const std::vector<uint64_t>* degraded = t.Col(tl::kKpromoteDegraded);
  for (size_t i = 0; i < t.time.size(); i++) {
    const bool storm = aborts != nullptr && (*aborts)[i] >= kAbortStormMin;
    const bool tripped =
        degraded != nullptr && (*degraded)[i] > 0 && (i == 0 || (*degraded)[i - 1] == 0);
    if (storm || tripped) {
      std::string detail;
      if (storm) {
        detail = std::to_string((*aborts)[i]) + " aborts in one window";
      }
      if (tripped) {
        detail += (detail.empty() ? "" : "; ") + std::string("kpromote entered degraded mode");
      }
      out->push_back(Anomaly{"abort_storm", t.time[i], detail});
      return;  // onset only; one storm per timeline is enough signal
    }
  }
}

constexpr size_t kBreachWindows = 3;  // consecutive below-low-watermark windows

void DetectWatermarkBreach(const TimelineCsv& t, std::vector<Anomaly>* out) {
  const std::vector<uint64_t>* below = t.Col(tl::kFastBelowLowWatermark);
  if (below == nullptr) {
    return;
  }
  size_t run = 0;
  for (size_t i = 0; i < below->size(); i++) {
    run = (*below)[i] > 0 ? run + 1 : 0;
    if (run == kBreachWindows) {
      if (i + 1 == run) {
        continue;  // breach began in window 0: the initial fill transient
      }
      out->push_back(Anomaly{"watermark_breach", t.time[i + 1 - run],
                             std::to_string(kBreachWindows) +
                                 "+ consecutive windows below the fast-tier low watermark"});
      return;
    }
  }
}

constexpr size_t kFlapMin = 4;    // majority-verdict flips ...
constexpr size_t kFlapSpan = 12;  // ... within this many active windows

void DetectVerdictFlapping(const TimelineCsv& t, std::vector<Anomaly>* out) {
  const std::vector<const char*> verdict_counters = {
      cnt::kAdmissionAccept, cnt::kAdmissionDefer, cnt::kAdmissionReject,
      cnt::kAdmissionDowngradeSync};
  // Majority verdict per active window (ties break toward the earlier,
  // more-permissive verdict, deterministically).
  std::vector<size_t> majority;
  std::vector<uint64_t> when;
  for (size_t i = 0; i < t.time.size(); i++) {
    size_t best = 0;
    uint64_t best_count = 0, total = 0;
    for (size_t v = 0; v < verdict_counters.size(); v++) {
      const std::vector<uint64_t>* col = t.Col(CntChannel(verdict_counters[v]));
      const uint64_t c = col != nullptr ? (*col)[i] : 0;
      total += c;
      if (c > best_count) {
        best_count = c;
        best = v;
      }
    }
    if (total == 0) {
      continue;  // no verdicts this window: not evidence of stability
    }
    majority.push_back(best);
    when.push_back(t.time[i]);
  }
  // Flips between consecutive active windows, inside a sliding span.
  std::vector<size_t> flips;  // indices (into majority) where it changed
  for (size_t i = 1; i < majority.size(); i++) {
    if (majority[i] != majority[i - 1]) {
      flips.push_back(i);
    }
  }
  for (size_t i = 0; i + kFlapMin <= flips.size(); i++) {
    if (flips[i + kFlapMin - 1] - flips[i] < kFlapSpan) {
      out->push_back(Anomaly{"verdict_flapping", when[flips[i + kFlapMin - 1]],
                             std::to_string(kFlapMin) + " majority-verdict flips within " +
                                 std::to_string(kFlapSpan) + " active windows"});
      return;
    }
  }
}

constexpr size_t kRunawayWindows = 6;   // span the backlog growth is measured over
constexpr double kRunawayRatio = 4.0;   // end/start backlog growth across the span
constexpr uint64_t kRunawayMin = 64;    // absolute backlog floor for a runaway

void DetectQueueRunaway(const TimelineCsv& t, std::vector<Anomaly>* out) {
  if (t.Col(tl::kPendingDepth) == nullptr) {
    return;
  }
  const std::vector<uint64_t> backlog =
      SumChannels(t, {tl::kPendingDepth, tl::kDeferredDepth});
  for (size_t i = 0; i + kRunawayWindows < backlog.size(); i++) {
    const uint64_t end = backlog[i + kRunawayWindows];
    if (end >= kRunawayMin &&
        static_cast<double>(end) >=
            kRunawayRatio * static_cast<double>(std::max<uint64_t>(backlog[i], 1))) {
      out->push_back(Anomaly{"queue_runaway", t.time[i],
                             "promotion backlog grew " + std::to_string(backlog[i]) +
                                 " -> " + std::to_string(end) + " over " +
                                 std::to_string(kRunawayWindows) + " windows"});
      return;
    }
  }
}

std::vector<Anomaly> DetectAnomalies(const TimelineCsv& t) {
  std::vector<Anomaly> out;
  DetectAbortStorm(t, &out);
  DetectWatermarkBreach(t, &out);
  DetectVerdictFlapping(t, &out);
  DetectQueueRunaway(t, &out);
  return out;
}

// Cross-file rule: final per-shard progress must stay balanced.
constexpr double kSkewRatio = 1.5;  // max/min final shard ops across files

void DetectShardSkew(const std::vector<TimelineCsv>& files, std::vector<Anomaly>* out) {
  uint64_t min_ops = 0, max_ops = 0;
  std::string min_file, max_file;
  size_t seen = 0;
  for (const TimelineCsv& t : files) {
    const std::vector<uint64_t>* ops = t.Col(tl::kShardOpsDone);
    if (ops == nullptr || ops->empty()) {
      continue;
    }
    const uint64_t last = ops->back();
    if (seen == 0 || last < min_ops) {
      min_ops = last;
      min_file = t.path;
    }
    if (seen == 0 || last > max_ops) {
      max_ops = last;
      max_file = t.path;
    }
    seen++;
  }
  if (seen >= 2 && static_cast<double>(max_ops) >
                       kSkewRatio * static_cast<double>(std::max<uint64_t>(min_ops, 1))) {
    out->push_back(Anomaly{"shard_skew", 0,
                           max_file + " finished " + std::to_string(max_ops) + " ops vs " +
                               std::to_string(min_ops) + " in " + min_file});
  }
}

// ---------------------------------------------------------------------------
// Diff: channel-by-channel comparison of two timelines.
// ---------------------------------------------------------------------------

struct DiffReport {
  std::vector<std::string> only_a, only_b;
  uint64_t differing_cells = 0;
  bool time_mismatch = false;
  // Per common channel: rows differing, max |a-b|, first differing time.
  struct ChannelDiff {
    std::string name;
    uint64_t rows = 0;
    uint64_t max_abs = 0;
    uint64_t first_time = 0;
  };
  std::vector<ChannelDiff> channels;

  bool identical() const {
    return only_a.empty() && only_b.empty() && differing_cells == 0 && !time_mismatch;
  }
};

DiffReport DiffTimelines(const TimelineCsv& a, const TimelineCsv& b) {
  DiffReport d;
  for (const std::string& c : a.channels) {
    if (b.Col(c) == nullptr) {
      d.only_a.push_back(c);
    }
  }
  for (const std::string& c : b.channels) {
    if (a.Col(c) == nullptr) {
      d.only_b.push_back(c);
    }
  }
  d.time_mismatch = a.time != b.time;
  const size_t rows = std::min(a.time.size(), b.time.size());
  for (const std::string& c : a.channels) {
    const std::vector<uint64_t>* ca = a.Col(c);
    const std::vector<uint64_t>* cb = b.Col(c);
    if (cb == nullptr) {
      continue;
    }
    DiffReport::ChannelDiff cd;
    cd.name = c;
    for (size_t i = 0; i < rows; i++) {
      if ((*ca)[i] == (*cb)[i]) {
        continue;
      }
      const uint64_t delta =
          (*ca)[i] > (*cb)[i] ? (*ca)[i] - (*cb)[i] : (*cb)[i] - (*ca)[i];
      if (cd.rows == 0) {
        cd.first_time = a.time[i];
      }
      cd.rows++;
      cd.max_abs = std::max(cd.max_abs, delta);
    }
    if (cd.rows > 0) {
      d.differing_cells += cd.rows;
      d.channels.push_back(cd);
    }
  }
  std::sort(d.channels.begin(), d.channels.end(),
            [](const DiffReport::ChannelDiff& x, const DiffReport::ChannelDiff& y) {
              if (x.max_abs != y.max_abs) {
                return x.max_abs > y.max_abs;
              }
              return x.name < y.name;
            });
  return d;
}

// ---------------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------------

void PrintReport(const TimelineCsv& t, const std::vector<Anomaly>& anomalies) {
  std::cout << "== " << t.path << " ==\n";
  std::cout << "windows: " << t.time.size() << "  channels: " << t.channels.size();
  if (!t.time.empty()) {
    std::cout << "  span: [" << t.time.front() << " .. " << t.time.back() << "] cycles";
  }
  std::cout << "\n";
  const std::vector<Phase> phases = BreakPhases(t);
  std::cout << "phases:\n";
  constexpr size_t kMaxPhases = 16;
  for (size_t i = 0; i < phases.size() && i < kMaxPhases; i++) {
    const Phase& p = phases[i];
    std::cout << "  [" << t.time[p.first] << " .. " << t.time[p.last] << "] "
              << (p.migrating ? "migrating" : "quiescent") << " ("
              << (p.last - p.first + 1) << " windows";
    if (p.migrating) {
      std::cout << ", " << p.moved_pages << " pages moved";
    }
    std::cout << ")\n";
  }
  if (phases.size() > kMaxPhases) {
    std::cout << "  ... and " << (phases.size() - kMaxPhases) << " more\n";
  }
  if (anomalies.empty()) {
    std::cout << "anomalies: none\n";
  } else {
    std::cout << "anomalies:\n";
    for (const Anomaly& a : anomalies) {
      std::cout << "  " << a.rule << " @ " << a.onset_time << ": " << a.detail << "\n";
    }
  }
}

void PrintDiff(const DiffReport& d, const std::string& a, const std::string& b) {
  std::cout << "diff " << a << " vs " << b << ":\n";
  if (d.identical()) {
    std::cout << "  timelines are identical\n";
    return;
  }
  if (d.time_mismatch) {
    std::cout << "  sample times differ\n";
  }
  for (const std::string& c : d.only_a) {
    std::cout << "  only in " << a << ": " << c << "\n";
  }
  for (const std::string& c : d.only_b) {
    std::cout << "  only in " << b << ": " << c << "\n";
  }
  constexpr size_t kMaxChannels = 10;
  for (size_t i = 0; i < d.channels.size() && i < kMaxChannels; i++) {
    const DiffReport::ChannelDiff& cd = d.channels[i];
    std::cout << "  " << cd.name << ": " << cd.rows << " row(s) differ, max |delta|="
              << cd.max_abs << ", first at t=" << cd.first_time << "\n";
  }
  if (d.channels.size() > kMaxChannels) {
    std::cout << "  ... and " << (d.channels.size() - kMaxChannels)
              << " more channel(s)\n";
  }
  std::cout << "  " << d.differing_cells << " differing cell(s) total\n";
}

// ---------------------------------------------------------------------------
// Selftest: canned CSVs exercising loader, every rule, and the differ.
// ---------------------------------------------------------------------------

int g_checks = 0;
int g_failures = 0;

void Check(bool ok, const std::string& what) {
  g_checks++;
  if (!ok) {
    g_failures++;
    std::cerr << "selftest FAIL: " << what << "\n";
  }
}

TimelineCsv MustLoad(const std::string& text, const std::string& label) {
  TimelineCsv t;
  std::string error;
  std::istringstream in(text);
  Check(LoadTimelineCsv(in, label, &t, &error), label + " loads: " + error);
  return t;
}

// A clean run: brief migration burst, watermark fine, no aborts.
const char* const kCleanCsv =
    "time,tier.fast.free_frames,tier.fast.below_low_wm,pcq.pending,pcq.deferred,"
    "cnt.nomad.tpm_commit,cnt.nomad.tpm_abort,kpromote.degraded\n"
    "100,50,0,4,0,3,0,0\n"
    "200,48,0,3,0,5,1,0\n"
    "300,47,0,2,0,4,0,0\n"
    "400,47,0,0,0,0,0,0\n"
    "500,47,0,0,0,0,0,0\n";

// An abort storm: 9 aborts in window 3 and the degraded gauge turning on.
const char* const kStormCsv =
    "time,cnt.nomad.tpm_commit,cnt.nomad.tpm_abort,kpromote.degraded\n"
    "100,3,1,0\n"
    "200,2,4,0\n"
    "300,1,9,1\n"
    "400,0,2,1\n";

// Fast tier pinned under its low watermark from t=200 on.
const char* const kBreachCsv =
    "time,tier.fast.below_low_wm,cnt.nomad.tpm_commit\n"
    "100,0,1\n"
    "200,1,1\n"
    "300,1,0\n"
    "400,1,0\n"
    "500,1,0\n";

// Majority admission verdict flips accept->defer->accept->defer->accept.
const char* const kFlapCsv =
    "time,cnt.admission.accept,cnt.admission.defer\n"
    "100,5,1\n"
    "200,1,5\n"
    "300,5,1\n"
    "400,1,5\n"
    "500,5,1\n";

// Fast tier below its watermark only across the initial fill: exempt.
const char* const kStartupBreachCsv =
    "time,tier.fast.below_low_wm,cnt.nomad.tpm_commit\n"
    "100,1,1\n"
    "200,1,1\n"
    "300,1,0\n"
    "400,1,0\n"
    "500,0,0\n";

// Backlog explodes 10 -> 150 across a six-window span (>= 4x and >= 64).
const char* const kRunawayCsv =
    "time,pcq.pending,pcq.deferred\n"
    "100,10,0\n"
    "200,18,2\n"
    "300,30,5\n"
    "400,45,10\n"
    "500,62,18\n"
    "600,85,25\n"
    "700,115,35\n";

// Backlog creeps up slowly forever (bandwidth-bound PCQ fill): not flagged.
const char* const kCreepCsv =
    "time,pcq.pending,pcq.deferred\n"
    "100,60,0\n"
    "200,70,0\n"
    "300,80,0\n"
    "400,90,0\n"
    "500,100,0\n"
    "600,110,0\n"
    "700,120,0\n"
    "800,130,0\n";

// Sharded progress for the skew rule.
const char* const kShardFastCsv = "time,shard.ops_done,shard.epoch\n100,900,1\n200,2000,2\n";
const char* const kShardSlowCsv = "time,shard.ops_done,shard.epoch\n100,400,1\n200,1000,2\n";

bool HasRule(const std::vector<Anomaly>& as, const std::string& rule) {
  for (const Anomaly& a : as) {
    if (a.rule == rule) {
      return true;
    }
  }
  return false;
}

void RunSelftest() {
  {
    TimelineCsv t;
    std::string error;
    std::istringstream in("time,not.a.channel\n1,2\n");
    Check(!LoadTimelineCsv(in, "bad", &t, &error) &&
              error.find("unregistered") != std::string::npos,
          "loader rejects unregistered channels");
    std::istringstream in2("time,pcq.pending\n1,2,3\n");
    Check(!LoadTimelineCsv(in2, "ragged", &t, &error), "loader rejects ragged rows");
  }

  const TimelineCsv clean = MustLoad(kCleanCsv, "clean");
  {
    Check(clean.time.size() == 5 && clean.channels.size() == 7, "clean CSV shape");
    const std::vector<Anomaly> as = DetectAnomalies(clean);
    Check(as.empty(), "clean run reports zero anomalies");
    const std::vector<Phase> phases = BreakPhases(clean);
    Check(phases.size() == 2 && phases[0].migrating && !phases[1].migrating,
          "phase breakdown splits migrating/quiescent");
    Check(phases[0].moved_pages == 12, "phase aggregates moved pages");
  }
  {
    const std::vector<Anomaly> as = DetectAnomalies(MustLoad(kStormCsv, "storm"));
    Check(HasRule(as, "abort_storm"), "abort storm detected");
    Check(as.size() == 1 && as[0].onset_time == 300, "storm onset at the right window");
  }
  {
    const std::vector<Anomaly> as = DetectAnomalies(MustLoad(kBreachCsv, "breach"));
    Check(HasRule(as, "watermark_breach"), "watermark breach detected");
    Check(as.size() == 1 && as[0].onset_time == 200, "breach onset at first bad window");
    const std::vector<Anomaly> startup =
        DetectAnomalies(MustLoad(kStartupBreachCsv, "startup"));
    Check(startup.empty(), "initial fill transient is exempt from breach rule");
  }
  {
    const std::vector<Anomaly> as = DetectAnomalies(MustLoad(kFlapCsv, "flap"));
    Check(HasRule(as, "verdict_flapping"), "verdict flapping detected");
  }
  {
    const std::vector<Anomaly> as = DetectAnomalies(MustLoad(kRunawayCsv, "runaway"));
    Check(HasRule(as, "queue_runaway"), "queue runaway detected");
    Check(as.size() == 1 && as[0].onset_time == 100, "runaway onset at growth start");
    const std::vector<Anomaly> creep = DetectAnomalies(MustLoad(kCreepCsv, "creep"));
    Check(creep.empty(), "slow steady backlog accumulation is not a runaway");
  }
  {
    std::vector<TimelineCsv> shards;
    shards.push_back(MustLoad(kShardFastCsv, "shard0"));
    shards.push_back(MustLoad(kShardSlowCsv, "shard1"));
    std::vector<Anomaly> as;
    DetectShardSkew(shards, &as);
    Check(HasRule(as, "shard_skew"), "shard skew detected across files");
    std::vector<TimelineCsv> balanced;
    balanced.push_back(MustLoad(kShardFastCsv, "shard0"));
    balanced.push_back(MustLoad(kShardFastCsv, "shard0b"));
    as.clear();
    DetectShardSkew(balanced, &as);
    Check(as.empty(), "balanced shards report no skew");
  }
  {
    const DiffReport same = DiffTimelines(clean, clean);
    Check(same.identical(), "self-diff is identical");
    const TimelineCsv storm = MustLoad(kStormCsv, "storm");
    const DiffReport d = DiffTimelines(clean, storm);
    Check(!d.identical() && d.time_mismatch, "diff flags shape mismatch");
    Check(!d.only_a.empty(), "diff lists channels missing from one side");
  }
}

int Usage() {
  std::cerr << "usage: timeline_report --in=FILE[,FILE...] [--check] [--expect=RULES]\n"
               "                       [--diff=A,B] [--selftest]\n";
  return 2;
}

std::vector<std::string> SplitList(const std::string& s) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(s);
  while (std::getline(in, item, ',')) {
    if (!item.empty()) {
      out.push_back(item);
    }
  }
  return out;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool selftest = flags.GetBool("selftest");
  const std::vector<std::string> inputs = SplitList(flags.GetString("in"));
  const std::vector<std::string> diff_paths = SplitList(flags.GetString("diff"));
  const bool check = flags.GetBool("check");
  const std::vector<std::string> expect = SplitList(flags.GetString("expect"));
  if (!flags.UnusedKeys().empty()) {
    return Usage();
  }
  if (selftest) {
    RunSelftest();
    std::cout << "timeline_report selftest: " << (g_checks - g_failures) << "/" << g_checks
              << " checks passed\n";
    return g_failures == 0 ? 0 : 1;
  }

  if (!diff_paths.empty()) {
    if (diff_paths.size() != 2) {
      std::cerr << "error: --diff wants exactly two comma-separated files\n";
      return 2;
    }
    std::vector<TimelineCsv> sides;
    for (const std::string& path : diff_paths) {
      std::ifstream in(path);
      TimelineCsv t;
      std::string error;
      if (!in || !LoadTimelineCsv(in, path, &t, &error)) {
        std::cerr << "error: " << (in ? error : "cannot open " + path) << "\n";
        return 1;
      }
      sides.push_back(std::move(t));
    }
    const DiffReport d = DiffTimelines(sides[0], sides[1]);
    PrintDiff(d, diff_paths[0], diff_paths[1]);
    return check && !d.identical() ? 1 : 0;
  }

  if (inputs.empty()) {
    return Usage();
  }
  std::vector<TimelineCsv> files;
  for (const std::string& path : inputs) {
    std::ifstream in(path);
    TimelineCsv t;
    std::string error;
    if (!in || !LoadTimelineCsv(in, path, &t, &error)) {
      std::cerr << "error: " << (in ? error : "cannot open " + path) << "\n";
      return 1;
    }
    files.push_back(std::move(t));
  }

  std::vector<Anomaly> all;
  for (const TimelineCsv& t : files) {
    const std::vector<Anomaly> as = DetectAnomalies(t);
    PrintReport(t, as);
    all.insert(all.end(), as.begin(), as.end());
  }
  std::vector<Anomaly> cross;
  DetectShardSkew(files, &cross);
  for (const Anomaly& a : cross) {
    std::cout << "cross-file anomaly: " << a.rule << ": " << a.detail << "\n";
  }
  all.insert(all.end(), cross.begin(), cross.end());

  int rc = 0;
  for (const std::string& rule : expect) {
    bool found = false;
    for (const Anomaly& a : all) {
      found = found || a.rule == rule;
    }
    if (!found) {
      std::cerr << "error: expected anomaly '" << rule << "' did not fire\n";
      rc = 1;
    }
  }
  if (check && expect.empty() && !all.empty()) {
    std::cerr << "error: --check: " << all.size() << " anomaly(ies) detected\n";
    rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace nomad

int main(int argc, char** argv) { return nomad::Main(argc, argv); }
