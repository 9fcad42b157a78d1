// trace_query: offline analysis over the simulator's exported artifacts.
//
// Consumes the chrome://tracing JSON written by --trace_out and/or the
// metrics.json written by --metrics_out, with no external dependencies (a
// small recursive-descent JSON reader lives in this file). Core jobs:
//
//   summary              (default with --trace) event counts per name/actor
//   --event= / --actor=  filter the summary to one event type / one actor
//   --from_us/--to_us    restrict every query to a time window
//   --pair=tpm           pair tpm B/E slices into per-transaction latencies,
//                        bucket them with the same HDR histogram the
//                        simulator uses, and print p50/p90/p99 — committed
//                        transactions only, so the numbers are directly
//                        comparable to the "migration.latency" histogram in
//                        metrics.json (--check enforces agreement to within
//                        one histogram bucket)
//   --hist=NAME          print a named histogram from metrics.json runs
//   --top=N              reconstruct per-page thrash scores (ping-pongs,
//                        re-dirties, aborts) from promote/demote/
//                        shadow_fault/tpm_abort instants and rank pages
//   --span               reconstruct per-migration lifecycle spans from the
//                        mig_* span-link events (--spans runs): per-span
//                        waterfalls, where-time-goes attribution across the
//                        whole run, and the abort-chain listing; --check
//                        fails if more spans are mid-transaction than there
//                        are kpromote actors to carry them
//   --span_id=N          print one migration's full waterfall
//   --selftest           run the embedded checks on canned documents
//
// A trace whose ring dropped events says so in its otherData block; every
// --pair, --span and --top result from it is followed by a truncation
// warning, since migrations that began before the cut are missing.
//
// Cycle conversion: trace timestamps are microseconds (ts = cycles/(ghz*1e3)),
// so --ghz (or the "ghz" field of the first metrics run) recovers cycles.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/flags.h"
#include "src/obs/event_registry.h"
#include "src/obs/hist.h"

namespace nomad {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader. Numbers are doubles: every value the simulator
// exports (timestamps, vpns, counts) fits a double's 53-bit mantissa at the
// scales the sim runs at.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;  // preserves order

  const JsonValue* Get(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
  double Num(const std::string& key, double def = 0) const {
    const JsonValue* v = Get(key);
    return v != nullptr && v->kind == Kind::kNumber ? v->number : def;
  }
  std::string Str(const std::string& key, const std::string& def = "") const {
    const JsonValue* v = Get(key);
    return v != nullptr && v->kind == Kind::kString ? v->str : def;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  bool Parse(JsonValue* out) {
    *out = Value();
    SkipWs();
    return ok_ && pos_ == text_.size();
  }

  std::string error() const { return error_; }

 private:
  void Fail(const std::string& why) {
    if (ok_) {
      ok_ = false;
      error_ = why + " at offset " + std::to_string(pos_);
    }
  }

  void SkipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      pos_++;
    }
  }

  bool Eat(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      pos_++;
      return true;
    }
    return false;
  }

  bool Literal(const char* word) {
    const size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  JsonValue Value() {
    SkipWs();
    if (!ok_ || pos_ >= text_.size()) {
      Fail("unexpected end of input");
      return JsonValue{};
    }
    const char c = text_[pos_];
    JsonValue v;
    if (c == '{') {
      return Object();
    }
    if (c == '[') {
      return Array();
    }
    if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.str = String();
      return v;
    }
    if (Literal("true")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (Literal("false")) {
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    if (Literal("null")) {
      return v;
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      return Number();
    }
    Fail(std::string("unexpected character '") + c + "'");
    return v;
  }

  JsonValue Object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    Eat('{');
    if (Eat('}')) {
      return v;
    }
    while (ok_) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        Fail("expected object key");
        return v;
      }
      std::string key = String();
      if (!Eat(':')) {
        Fail("expected ':'");
        return v;
      }
      v.obj.emplace_back(std::move(key), Value());
      if (Eat(',')) {
        continue;
      }
      if (!Eat('}')) {
        Fail("expected ',' or '}'");
      }
      return v;
    }
    return v;
  }

  JsonValue Array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    Eat('[');
    if (Eat(']')) {
      return v;
    }
    while (ok_) {
      v.arr.push_back(Value());
      if (Eat(',')) {
        continue;
      }
      if (!Eat(']')) {
        Fail("expected ',' or ']'");
      }
      return v;
    }
    return v;
  }

  std::string String() {
    std::string s;
    pos_++;  // opening quote
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        s.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case 'n': s.push_back('\n'); break;
        case 't': s.push_back('\t'); break;
        case 'r': s.push_back('\r'); break;
        case 'b': s.push_back('\b'); break;
        case 'f': s.push_back('\f'); break;
        case 'u': {
          // The exporter only escapes control characters; decode the
          // code point as a single byte (sufficient for ASCII range).
          if (pos_ + 4 <= text_.size()) {
            const unsigned long cp = std::stoul(text_.substr(pos_, 4), nullptr, 16);
            s.push_back(static_cast<char>(cp & 0x7f));
            pos_ += 4;
          }
          break;
        }
        default: s.push_back(esc); break;
      }
    }
    if (pos_ >= text_.size()) {
      Fail("unterminated string");
      return s;
    }
    pos_++;  // closing quote
    return s;
  }

  JsonValue Number() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      pos_++;
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::stod(text_.substr(start, pos_ - start));
    return v;
  }

  const std::string text_;
  size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

// ---------------------------------------------------------------------------
// Trace model: the flattened event list plus the tid -> actor-name map.
// ---------------------------------------------------------------------------

struct TraceEvt {
  std::string name;
  std::string ph;       // "B", "E", "i" (metadata rows are not kept)
  std::string outcome;  // E-events: args.outcome
  double ts_us = 0;
  uint64_t tid = 0;
  double arg = 0;    // args.arg (vpn for page events)
  double value = 0;  // args.value (migration id for mig_* span events)
};

struct TraceDoc {
  std::vector<TraceEvt> events;
  std::map<uint64_t, std::string> actor_names;
  // The simulator's ring accounting (otherData), 0 in documents without it.
  uint64_t emitted = 0;
  uint64_t dropped = 0;
};

// A warning line for results built from a trace whose ring dropped events
// (the oldest ones: pairings and spans that began before the cut are
// missing or partial), or "" for a complete trace.
std::string TruncationNote(const TraceDoc& doc) {
  if (doc.dropped == 0) {
    return "";
  }
  return "warning: truncated trace: the ring dropped the oldest " + std::to_string(doc.dropped) +
         " of " + std::to_string(doc.emitted) + " events, so these results miss every " +
         "migration that began before the cut\n";
}

bool LoadTrace(const JsonValue& root, TraceDoc* doc, std::string* error) {
  const JsonValue* events = root.Get("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    *error = "document has no traceEvents array";
    return false;
  }
  if (const JsonValue* other = root.Get("otherData")) {
    doc->emitted = static_cast<uint64_t>(other->Num("emitted"));
    doc->dropped = static_cast<uint64_t>(other->Num("dropped"));
  }
  for (const JsonValue& e : events->arr) {
    const std::string ph = e.Str("ph");
    const uint64_t tid = static_cast<uint64_t>(e.Num("tid"));
    if (ph == "M") {
      if (e.Str("name") == "thread_name") {
        const JsonValue* a = e.Get("args");
        doc->actor_names[tid] = a != nullptr ? a->Str("name") : "";
      }
      continue;
    }
    TraceEvt evt;
    evt.name = e.Str("name");
    evt.ph = ph;
    evt.ts_us = e.Num("ts");
    evt.tid = tid;
    if (const JsonValue* a = e.Get("args")) {
      evt.arg = a->Num("arg");
      evt.value = a->Num("value");
      evt.outcome = a->Str("outcome");
    }
    doc->events.push_back(std::move(evt));
  }
  return true;
}

struct Filter {
  std::string event;   // empty = all
  std::string actor;   // empty = all
  double from_us = -1;
  double to_us = -1;   // negative = unbounded

  bool Matches(const TraceEvt& e, const TraceDoc& doc) const {
    if (!event.empty() && e.name != event) {
      return false;
    }
    if (!actor.empty()) {
      const auto it = doc.actor_names.find(e.tid);
      if (it == doc.actor_names.end() || it->second != actor) {
        return false;
      }
    }
    if (from_us >= 0 && e.ts_us < from_us) {
      return false;
    }
    if (to_us >= 0 && e.ts_us > to_us) {
      return false;
    }
    return true;
  }
};

// Pairs B/E duration slices named `name` per attempt and returns committed
// durations in cycles. An end pairs with the open begin carrying the same
// (tid, arg) key — for tpm slices arg is the vpn — so a transaction that
// aborts and retries on the same page within one window books one pair per
// attempt instead of first-begin-with-last-end. A begin arriving while its
// key is already open replaces the stale begin (whose end was lost to ring
// wraparound or the window filter) rather than stacking under it, so a lost
// end can never pair a later end across attempts. Ends whose outcome is not
// a commit (aborts, still in flight at exit) consume their begin but produce
// no sample, mirroring the simulator's histogram which records at commit
// only.
std::vector<uint64_t> PairDurations(const TraceDoc& doc, const Filter& filter,
                                    const std::string& name, double ghz) {
  std::map<std::pair<uint64_t, uint64_t>, double> open;  // (tid, arg) -> begin ts
  std::vector<uint64_t> samples;
  for (const TraceEvt& e : doc.events) {
    if (e.name != name || !filter.Matches(e, doc)) {
      continue;
    }
    const std::pair<uint64_t, uint64_t> key{e.tid, static_cast<uint64_t>(e.arg)};
    if (e.ph == "B") {
      open[key] = e.ts_us;
      continue;
    }
    if (e.ph != "E") {
      continue;
    }
    const auto it = open.find(key);
    if (it == open.end()) {
      continue;  // begin lost to ring wraparound (or a synthetic close)
    }
    const double begin = it->second;
    open.erase(it);
    if (e.outcome != "tpm_commit") {
      continue;  // aborted or dangling: no latency sample was booked
    }
    samples.push_back(
        static_cast<uint64_t>(std::llround((e.ts_us - begin) * ghz * 1e3)));
  }
  return samples;
}

// Per-page lifecycle reconstruction from instant events: the trace-side
// mirror of the in-sim provenance ledger. A demote that lands while the
// page is promoted is a ping-pong; shadow faults after promotion are
// re-dirties.
struct PageStats {
  uint64_t promotions = 0;
  uint64_t demotions = 0;
  uint64_t aborts = 0;
  uint64_t redirties = 0;
  uint64_t ping_pongs = 0;
  bool promoted_live = false;

  uint64_t Score() const { return 2 * ping_pongs + redirties + aborts; }
};

std::map<uint64_t, PageStats> ReplayPages(const TraceDoc& doc, const Filter& filter) {
  std::map<uint64_t, PageStats> pages;
  for (const TraceEvt& e : doc.events) {
    if (!filter.Matches(e, doc)) {
      continue;
    }
    const uint64_t vpn = static_cast<uint64_t>(e.arg);
    // TPM promotions/aborts surface as the "tpm" duration slice's end, not
    // as separate instants; the slice's arg is the vpn.
    if (e.name == "tpm" && e.ph == "E") {
      if (e.outcome == "tpm_commit") {
        PageStats& p = pages[vpn];
        p.promotions++;
        p.promoted_live = true;
      } else if (e.outcome == "tpm_abort") {
        pages[vpn].aborts++;
      }
      continue;
    }
    if (e.ph != "i") {
      continue;
    }
    if (e.name == "promote") {
      PageStats& p = pages[vpn];
      p.promotions++;
      p.promoted_live = true;
    } else if (e.name == "demote") {
      PageStats& p = pages[vpn];
      p.demotions++;
      if (p.promoted_live) {
        p.ping_pongs++;
        p.promoted_live = false;
      }
    } else if (e.name == "shadow_fault") {
      PageStats& p = pages[vpn];
      if (p.promoted_live) {
        p.redirties++;
      }
    } else if (e.name == "tpm_abort") {
      pages[vpn].aborts++;
    }
  }
  return pages;
}

struct Thrasher {
  uint64_t vpn = 0;
  PageStats stats;
};

std::vector<Thrasher> TopThrashers(const std::map<uint64_t, PageStats>& pages, size_t n) {
  std::vector<Thrasher> out;
  for (const auto& [vpn, stats] : pages) {
    if (stats.Score() > 0) {
      out.push_back(Thrasher{vpn, stats});
    }
  }
  std::sort(out.begin(), out.end(), [](const Thrasher& a, const Thrasher& b) {
    if (a.stats.Score() != b.stats.Score()) {
      return a.stats.Score() > b.stats.Score();
    }
    return a.vpn < b.vpn;
  });
  if (out.size() > n) {
    out.resize(n);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Migration-lifecycle span reconstruction (--span). Runs recorded with
// --spans stamp every mig_* instant with the migration transaction id in
// args.value; grouping by id rebuilds the causal waterfall scanner hint ->
// PCQ residency -> kpromote dequeue -> TPM attempt(s)/aborts/retries ->
// commit or downgrade-to-sync -> shadow free.
// ---------------------------------------------------------------------------

struct MigSpan {
  uint64_t id = 0;
  std::vector<const TraceEvt*> events;  // ring order == time order
  uint64_t attempts = 0;
  uint64_t aborts = 0;
  uint64_t vpn = 0;
  bool have_vpn = false;
  std::string terminal;  // outcome name; empty until a non-abort verdict lands
  // "complete" (terminal verdict seen), "queued" (back in the PCQ at trace
  // end), or "in_flight" (mid-transaction at trace end).
  std::string state;
  std::vector<std::string> outcome_seq;  // e.g. abort,abort,commit
};

std::map<uint64_t, MigSpan> BuildSpans(const TraceDoc& doc, const Filter& filter) {
  std::map<uint64_t, MigSpan> spans;
  for (const TraceEvt& e : doc.events) {
    if (e.ph != "i" || e.name.compare(0, 4, "mig_") != 0 || !filter.Matches(e, doc)) {
      continue;
    }
    const uint64_t id = static_cast<uint64_t>(e.value);
    if (id == 0) {
      continue;  // recorded before span tracing was enabled; no id assigned
    }
    MigSpan& s = spans[id];
    s.id = id;
    s.events.push_back(&e);
    if (e.name == "mig_dequeue") {
      s.vpn = static_cast<uint64_t>(e.arg);
      s.have_vpn = true;
    } else if (e.name == "mig_attempt") {
      s.attempts++;
    } else if (e.name == "mig_outcome") {
      const auto code = static_cast<uint64_t>(e.arg);
      if (code >= static_cast<uint64_t>(MigOutcome::kNumOutcomes)) {
        continue;
      }
      const MigOutcome o = static_cast<MigOutcome>(code);
      s.outcome_seq.emplace_back(MigOutcomeName(o));
      if (o == MigOutcome::kAbort) {
        s.aborts++;
      } else {
        s.terminal = MigOutcomeName(o);
      }
    }
  }
  for (auto& [id, s] : spans) {
    const std::string& last = s.events.back()->name;
    if (!s.terminal.empty()) {
      s.state = "complete";
    } else if (last == "mig_nominate" || last == "mig_hot" || last == "mig_defer") {
      s.state = "queued";
    } else {
      s.state = "in_flight";
    }
  }
  return spans;
}

// Attributes the inter-event gap ending at `cur` to a lifecycle phase: the
// where-time-goes buckets are named for what the migration was waiting on.
const char* SpanPhase(const std::string& prev, const std::string& cur) {
  if (cur == "mig_hot") {
    return "pcq_cold";  // enqueued, waiting to be deemed hot
  }
  if (cur == "mig_dequeue") {
    return "queue_wait";  // hot, waiting for kpromote to pick it up
  }
  if (cur == "mig_attempt") {
    // A first attempt follows its dequeue immediately; attempts after an
    // abort verdict or an admission defer ate backoff first.
    return prev == "mig_defer" || prev == "mig_outcome" ? "retry_backoff" : "dispatch";
  }
  if (cur == "mig_outcome") {
    return "tpm_copy";  // attempt begin -> verdict: the transactional copy
  }
  if (cur == "mig_defer") {
    return "defer";
  }
  if (cur == "mig_shadow_free") {
    return "shadow_residency";  // committed -> shadow page reclaimed
  }
  return "requeue";  // a fresh mig_nominate after an abort put it back
}

struct PhaseAgg {
  uint64_t count = 0;
  double total_us = 0;
};

std::map<std::string, PhaseAgg> AttributeSpanTime(const std::map<uint64_t, MigSpan>& spans) {
  std::map<std::string, PhaseAgg> agg;
  for (const auto& [id, s] : spans) {
    for (size_t i = 1; i < s.events.size(); i++) {
      PhaseAgg& p = agg[SpanPhase(s.events[i - 1]->name, s.events[i]->name)];
      p.count++;
      p.total_us += s.events[i]->ts_us - s.events[i - 1]->ts_us;
    }
  }
  return agg;
}

std::string SpanEventDetail(const TraceEvt& e) {
  const auto arg = static_cast<uint64_t>(e.arg);
  if (e.name == "mig_nominate" || e.name == "mig_hot") {
    return "pfn=" + std::to_string(arg);
  }
  if (e.name == "mig_dequeue") {
    return "vpn=" + std::to_string(arg);
  }
  if (e.name == "mig_attempt") {
    return "attempt=" + std::to_string(arg);
  }
  if (e.name == "mig_outcome") {
    const bool known = arg < static_cast<uint64_t>(MigOutcome::kNumOutcomes);
    return std::string("outcome=") +
           (known ? MigOutcomeName(static_cast<MigOutcome>(arg)) : "?");
  }
  if (e.name == "mig_defer") {
    return "retry_at_cycle=" + std::to_string(arg);
  }
  if (e.name == "mig_shadow_free") {
    return "master_pfn=" + std::to_string(arg);
  }
  return "";
}

void PrintSpanWaterfall(const MigSpan& s, const TraceDoc& doc) {
  std::cout << "span " << s.id << ": state=" << s.state;
  if (s.have_vpn) {
    std::cout << " vpn=" << s.vpn;
  }
  std::cout << " attempts=" << s.attempts << " aborts=" << s.aborts << "\n";
  double prev_ts = s.events.front()->ts_us;
  for (const TraceEvt* e : s.events) {
    const auto it = doc.actor_names.find(e->tid);
    std::cout << "  " << e->ts_us << " us  (+" << (e->ts_us - prev_ts) << " us)  "
              << e->name << " " << SpanEventDetail(*e) << "  ["
              << (it == doc.actor_names.end() ? std::string("?") : it->second) << "]\n";
    prev_ts = e->ts_us;
  }
}

// Prints the span report; with `check`, fails if more spans are stuck
// mid-transaction than there are kpromote actors to legitimately hold one
// open at trace end (one in-flight transaction per promotion daemon).
int ReportSpans(const TraceDoc& doc, const Filter& filter, uint64_t span_id, bool check) {
  const std::map<uint64_t, MigSpan> spans = BuildSpans(doc, filter);
  uint64_t complete = 0, queued = 0, in_flight = 0;
  std::map<std::string, uint64_t> verdicts;
  std::vector<const MigSpan*> abort_chains;
  std::map<uint64_t, uint64_t> kpromote_tids;  // tid -> dequeues seen
  for (const auto& [id, s] : spans) {
    if (s.state == "complete") {
      complete++;
      verdicts[s.terminal]++;
    } else if (s.state == "queued") {
      queued++;
    } else {
      in_flight++;
    }
    if (s.aborts > 0) {
      abort_chains.push_back(&s);
    }
    for (const TraceEvt* e : s.events) {
      if (e->name == "mig_dequeue") {
        kpromote_tids[e->tid]++;
      }
    }
  }
  std::cout << "spans: " << spans.size() << " migration(s) reconstructed  complete="
            << complete << " queued=" << queued << " in_flight=" << in_flight << "\n";
  if (!verdicts.empty()) {
    std::cout << "verdicts:";
    for (const auto& [name, count] : verdicts) {
      std::cout << " " << name << "=" << count;
    }
    std::cout << "\n";
  }
  const std::map<std::string, PhaseAgg> agg = AttributeSpanTime(spans);
  std::cout << "where-time-goes (us):\n";
  for (const auto& [phase, p] : agg) {
    std::cout << "  " << phase << ": total=" << p.total_us << " count=" << p.count
              << " mean=" << (p.count > 0 ? p.total_us / static_cast<double>(p.count) : 0)
              << "\n";
  }
  std::cout << "abort chains: " << abort_chains.size() << " migration(s) with aborts\n";
  constexpr size_t kMaxChains = 20;
  for (size_t i = 0; i < abort_chains.size() && i < kMaxChains; i++) {
    const MigSpan& s = *abort_chains[i];
    std::cout << "  id=" << s.id << (s.have_vpn ? " vpn=" + std::to_string(s.vpn) : "")
              << " attempts=" << s.attempts << " state=" << s.state << " outcomes=";
    for (size_t j = 0; j < s.outcome_seq.size(); j++) {
      std::cout << (j > 0 ? "," : "") << s.outcome_seq[j];
    }
    std::cout << "\n";
  }
  if (abort_chains.size() > kMaxChains) {
    std::cout << "  ... and " << (abort_chains.size() - kMaxChains) << " more\n";
  }
  if (span_id != 0) {
    const auto it = spans.find(span_id);
    if (it == spans.end()) {
      std::cerr << "error: no span with id " << span_id << "\n";
      return 1;
    }
    PrintSpanWaterfall(it->second, doc);
  }
  if (check && in_flight > kpromote_tids.size()) {
    std::cerr << "error: --check: " << in_flight << " span(s) mid-transaction at trace "
              << "end but only " << kpromote_tids.size()
              << " kpromote actor(s); waterfalls are incomplete\n";
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Command implementations.
// ---------------------------------------------------------------------------

bool LoadFile(const std::string& path, JsonValue* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  JsonParser parser(text);
  if (!parser.Parse(out)) {
    *error = path + ": " + parser.error();
    return false;
  }
  return true;
}

void PrintSummary(const TraceDoc& doc, const Filter& filter) {
  std::map<std::string, uint64_t> by_name;
  std::map<uint64_t, uint64_t> by_tid;
  double first = -1, last = -1;
  uint64_t total = 0;
  for (const TraceEvt& e : doc.events) {
    if (!filter.Matches(e, doc)) {
      continue;
    }
    total++;
    by_name[e.name + (e.ph == "B" ? " (begin)" : e.ph == "E" ? " (end)" : "")]++;
    by_tid[e.tid]++;
    if (first < 0 || e.ts_us < first) {
      first = e.ts_us;
    }
    last = std::max(last, e.ts_us);
  }
  std::cout << "events: " << total;
  if (total > 0) {
    std::cout << "  window: [" << first << " us, " << last << " us]";
  }
  std::cout << "\n";
  for (const auto& [name, count] : by_name) {
    std::cout << "  " << name << ": " << count << "\n";
  }
  std::cout << "actors:\n";
  for (const auto& [tid, count] : by_tid) {
    const auto it = doc.actor_names.find(tid);
    std::cout << "  tid " << tid << " ("
              << (it == doc.actor_names.end() ? std::string("?") : it->second)
              << "): " << count << "\n";
  }
}

struct PairReport {
  uint64_t count = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t max = 0;
};

PairReport ReportPairs(const std::vector<uint64_t>& samples) {
  Histogram h;
  PairReport r;
  for (const uint64_t s : samples) {
    h.Record(s);
  }
  r.count = h.count();
  r.p50 = h.Quantile(0.50);
  r.p90 = h.Quantile(0.90);
  r.p99 = h.Quantile(0.99);
  r.max = h.Max();
  return r;
}

// Width of the histogram bucket holding `value`: the agreement tolerance
// when cross-checking a trace-derived percentile against the simulator's.
uint64_t BucketWidthAt(uint64_t value) {
  const int b = Histogram::BucketFor(value);
  return Histogram::BucketHi(b) - Histogram::BucketLo(b);
}

// ---------------------------------------------------------------------------
// Selftest: canned documents exercising the same functions the CLI uses.
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

// ghz=2: 1 us == 2000 cycles. Two committed tpm slices (2000 and 6000
// cycles), one abort, one in-flight close, plus promote/demote/shadow_fault
// instants for the thrash replay.
const char* const kSelftestTrace = R"({
  "displayTimeUnit": "ms",
  "traceEvents": [
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 3,
     "args": {"name": "kpromote"}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 1,
     "args": {"name": "app-0"}},
    {"name": "tpm", "ph": "B", "ts": 1.0, "pid": 0, "tid": 3,
     "args": {"arg": 70, "value": 0}},
    {"name": "tpm", "ph": "E", "ts": 2.0, "pid": 0, "tid": 3,
     "args": {"outcome": "tpm_commit", "arg": 70}},
    {"name": "tpm", "ph": "B", "ts": 4.5, "pid": 0, "tid": 3,
     "args": {"arg": 71, "value": 0}},
    {"name": "tpm", "ph": "E", "ts": 5.0, "pid": 0, "tid": 3,
     "args": {"outcome": "tpm_abort", "arg": 71}},
    {"name": "tpm", "ph": "B", "ts": 6.0, "pid": 0, "tid": 3,
     "args": {"arg": 72, "value": 0}},
    {"name": "tpm", "ph": "E", "ts": 9.0, "pid": 0, "tid": 3,
     "args": {"outcome": "tpm_commit", "arg": 72}},
    {"name": "shadow_fault", "ph": "i", "s": "t", "ts": 9.5, "pid": 0, "tid": 1,
     "args": {"arg": 72, "value": 0}},
    {"name": "demote", "ph": "i", "s": "t", "ts": 10.0, "pid": 0, "tid": 4,
     "args": {"arg": 72, "value": 120}},
    {"name": "promote", "ph": "i", "s": "t", "ts": 11.0, "pid": 0, "tid": 3,
     "args": {"arg": 72, "value": 0}},
    {"name": "demote", "ph": "i", "s": "t", "ts": 12.0, "pid": 0, "tid": 4,
     "args": {"arg": 72, "value": 120}},
    {"name": "tpm", "ph": "B", "ts": 13.0, "pid": 0, "tid": 3,
     "args": {"arg": 73, "value": 0}},
    {"name": "tpm", "ph": "E", "ts": 13.5, "pid": 0, "tid": 3,
     "args": {"outcome": "in_flight_at_exit"}}
  ]
})";

// Per-attempt pairing regression doc (ghz=2): pfn 70 aborts then retries and
// commits within one window; pfn 80 loses an end to ring wraparound, retries,
// commits, and then a spurious late end arrives. Stack-based pairing used to
// book the late end against the stale pfn-80 begin (a bogus 20000-cycle
// sample); per-attempt pairing books exactly the two real commits.
const char* const kSelftestRetryTrace = R"({
  "traceEvents": [
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 3,
     "args": {"name": "kpromote"}},
    {"name": "tpm", "ph": "B", "ts": 1.0, "pid": 0, "tid": 3,
     "args": {"arg": 70, "value": 0}},
    {"name": "tpm", "ph": "E", "ts": 2.0, "pid": 0, "tid": 3,
     "args": {"outcome": "tpm_abort", "arg": 70}},
    {"name": "tpm", "ph": "B", "ts": 6.0, "pid": 0, "tid": 3,
     "args": {"arg": 70, "value": 0}},
    {"name": "tpm", "ph": "E", "ts": 9.0, "pid": 0, "tid": 3,
     "args": {"outcome": "tpm_commit", "arg": 70}},
    {"name": "tpm", "ph": "B", "ts": 10.0, "pid": 0, "tid": 3,
     "args": {"arg": 80, "value": 0}},
    {"name": "tpm", "ph": "B", "ts": 12.0, "pid": 0, "tid": 3,
     "args": {"arg": 80, "value": 0}},
    {"name": "tpm", "ph": "E", "ts": 13.0, "pid": 0, "tid": 3,
     "args": {"outcome": "tpm_commit", "arg": 80}},
    {"name": "tpm", "ph": "E", "ts": 20.0, "pid": 0, "tid": 3,
     "args": {"outcome": "tpm_commit", "arg": 80}}
  ]
})";

// Span-link doc: migration 1 runs the full lifecycle with one abort+retry
// (scanner tid 5 nominates, kpromote tid 3 executes), migration 2 is mid-
// transaction at trace end, migration 3 is still queued.
const char* const kSelftestSpanTrace = R"({
  "traceEvents": [
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 3,
     "args": {"name": "kpromote"}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 5,
     "args": {"name": "scanner"}},
    {"name": "mig_nominate", "ph": "i", "s": "t", "ts": 1.0, "pid": 0, "tid": 5,
     "args": {"arg": 9, "value": 1}},
    {"name": "mig_nominate", "ph": "i", "s": "t", "ts": 2.0, "pid": 0, "tid": 5,
     "args": {"arg": 10, "value": 2}},
    {"name": "mig_hot", "ph": "i", "s": "t", "ts": 2.0, "pid": 0, "tid": 5,
     "args": {"arg": 9, "value": 1}},
    {"name": "mig_hot", "ph": "i", "s": "t", "ts": 2.5, "pid": 0, "tid": 5,
     "args": {"arg": 10, "value": 2}},
    {"name": "mig_dequeue", "ph": "i", "s": "t", "ts": 3.0, "pid": 0, "tid": 3,
     "args": {"arg": 40, "value": 1}},
    {"name": "mig_attempt", "ph": "i", "s": "t", "ts": 3.2, "pid": 0, "tid": 3,
     "args": {"arg": 1, "value": 1}},
    {"name": "mig_outcome", "ph": "i", "s": "t", "ts": 4.0, "pid": 0, "tid": 3,
     "args": {"arg": 1, "value": 1}},
    {"name": "mig_nominate", "ph": "i", "s": "t", "ts": 4.0, "pid": 0, "tid": 5,
     "args": {"arg": 11, "value": 3}},
    {"name": "mig_defer", "ph": "i", "s": "t", "ts": 4.1, "pid": 0, "tid": 3,
     "args": {"arg": 9000, "value": 1}},
    {"name": "mig_dequeue", "ph": "i", "s": "t", "ts": 5.0, "pid": 0, "tid": 3,
     "args": {"arg": 41, "value": 2}},
    {"name": "mig_attempt", "ph": "i", "s": "t", "ts": 5.5, "pid": 0, "tid": 3,
     "args": {"arg": 1, "value": 2}},
    {"name": "mig_attempt", "ph": "i", "s": "t", "ts": 6.0, "pid": 0, "tid": 3,
     "args": {"arg": 2, "value": 1}},
    {"name": "mig_outcome", "ph": "i", "s": "t", "ts": 7.0, "pid": 0, "tid": 3,
     "args": {"arg": 0, "value": 1}},
    {"name": "mig_shadow_free", "ph": "i", "s": "t", "ts": 9.0, "pid": 0, "tid": 3,
     "args": {"arg": 9, "value": 1}}
  ]
})";

const char* const kSelftestMetrics = R"({
  "schema": "nomad-metrics-v1",
  "benchmark": "selftest",
  "runs": [
    {"label": "nomad", "ghz": 2.0,
     "histograms": {
       "migration.latency": {"count": 2, "mean": 4000.0, "p50": 1920,
                             "p90": 1920, "p99": 1920, "max": 6000}
     }}
  ]
})";

void RunSelftest() {
  // Parser basics: escapes, nesting, numbers.
  {
    JsonValue v;
    JsonParser p(R"({"a": [1, 2.5, -3e2], "s": "x\"y\n", "t": true, "n": null})");
    Check(p.Parse(&v), "parser accepts valid document");
    const JsonValue* a = v.Get("a");
    Check(a != nullptr && a->arr.size() == 3, "array parsed");
    Check(a != nullptr && a->arr.size() == 3 && a->arr[2].number == -300.0,
          "exponent parsed");
    Check(v.Str("s") == "x\"y\n", "string escapes decoded");
    Check(v.Get("t") != nullptr && v.Get("t")->boolean, "bool parsed");
    Check(v.Get("n") != nullptr && v.Get("n")->kind == JsonValue::Kind::kNull,
          "null parsed");
  }
  {
    JsonValue v;
    JsonParser p(R"({"a": })");
    Check(!p.Parse(&v), "parser rejects malformed document");
  }

  JsonValue root;
  std::string error;
  {
    JsonParser p(kSelftestTrace);
    Check(p.Parse(&root), "selftest trace parses: " + p.error());
  }
  TraceDoc doc;
  Check(LoadTrace(root, &doc, &error), "trace model loads");
  Check(doc.actor_names.at(3) == "kpromote", "thread_name metadata mapped");
  Check(TruncationNote(doc).empty(), "a trace without drops carries no truncation note");

  // A wrapped ring's document says how much it lost, and every pairing or
  // span result built from it carries the note.
  {
    JsonValue cut_root;
    JsonParser p(R"({"otherData": {"emitted": 70000, "dropped": 4464},
                     "traceEvents": [{"name": "tpm", "ph": "E", "ts": 1.0, "pid": 0,
                                      "tid": 3, "args": {"outcome": "tpm_commit"}}]})");
    Check(p.Parse(&cut_root), "truncated trace parses: " + p.error());
    TraceDoc cut;
    Check(LoadTrace(cut_root, &cut, &error), "truncated trace model loads");
    Check(cut.emitted == 70000 && cut.dropped == 4464, "ring accounting read from otherData");
    Check(TruncationNote(cut).find("dropped the oldest 4464 of 70000 events") !=
              std::string::npos,
          "truncated trace carries the note");
  }

  // Pairing: two commits survive; the abort and the dangling close do not.
  {
    const std::vector<uint64_t> samples = PairDurations(doc, Filter{}, "tpm", 2.0);
    Check(samples.size() == 2, "pairing keeps committed slices only");
    Check(samples.size() == 2 && samples[0] == 2000 && samples[1] == 6000,
          "paired durations convert us to cycles");
    const PairReport r = ReportPairs(samples);
    Check(r.count == 2 && r.max == 6000, "pair report count/max");
    // The estimator targets rank floor(q*(count-1)): with two samples every
    // quantile below 1.0 resolves to the first sample's bucket floor.
    Check(r.p99 == Histogram::BucketLo(Histogram::BucketFor(2000)),
          "p99 matches the bucket estimator");
  }

  // Window and actor filters.
  {
    Filter f;
    f.from_us = 5.5;
    const std::vector<uint64_t> samples = PairDurations(doc, f, "tpm", 2.0);
    Check(samples.size() == 1 && samples[0] == 6000, "from_us drops early slices");
    Filter fa;
    fa.actor = "app-0";
    uint64_t matches = 0;
    for (const TraceEvt& e : doc.events) {
      matches += fa.Matches(e, doc) ? 1 : 0;
    }
    Check(matches == 1, "actor filter selects app events only");
  }

  // Thrash replay: page 72 promoted twice, demoted twice while live
  // (2 ping-pongs), one shadow fault while promoted (1 re-dirty); page 71
  // aborted once; page 70 promoted and kept (score 0, excluded).
  {
    const std::map<uint64_t, PageStats> pages = ReplayPages(doc, Filter{});
    const PageStats& p72 = pages.at(72);
    Check(p72.ping_pongs == 2 && p72.redirties == 1 && p72.Score() == 5,
          "page 72 lifecycle replayed");
    const std::vector<Thrasher> top = TopThrashers(pages, 10);
    Check(top.size() == 2, "score-0 pages excluded from top list");
    Check(top.size() == 2 && top[0].vpn == 72 && top[1].vpn == 71,
          "thrashers ranked by score");
  }

  // Per-attempt pairing: the same-pfn abort+retry books the retry's own
  // duration, the lost end never pairs across attempts, and the spurious
  // late end is dropped on the floor.
  {
    JsonValue retry_root;
    JsonParser p(kSelftestRetryTrace);
    Check(p.Parse(&retry_root), "retry trace parses: " + p.error());
    TraceDoc retry_doc;
    Check(LoadTrace(retry_root, &retry_doc, &error), "retry trace model loads");
    const std::vector<uint64_t> samples =
        PairDurations(retry_doc, Filter{}, "tpm", 2.0);
    Check(samples.size() == 2, "retry pairing books one sample per attempt");
    Check(samples.size() == 2 && samples[0] == 6000 && samples[1] == 2000,
          "retry pairing durations are per-attempt, not first-begin-to-last-end");
  }

  // Span reconstruction: three migrations with distinct terminal states, an
  // abort chain on id 1, and gap attribution into lifecycle phases.
  {
    JsonValue span_root;
    JsonParser p(kSelftestSpanTrace);
    Check(p.Parse(&span_root), "span trace parses: " + p.error());
    TraceDoc span_doc;
    Check(LoadTrace(span_root, &span_doc, &error), "span trace model loads");
    const std::map<uint64_t, MigSpan> spans = BuildSpans(span_doc, Filter{});
    Check(spans.size() == 3, "three migration spans reconstructed");
    const MigSpan& s1 = spans.at(1);
    Check(s1.state == "complete" && s1.terminal == "commit", "span 1 committed");
    Check(s1.attempts == 2 && s1.aborts == 1, "span 1 attempt/abort counts");
    Check(s1.have_vpn && s1.vpn == 40, "span 1 vpn from dequeue");
    Check(s1.outcome_seq.size() == 2 && s1.outcome_seq[0] == "abort" &&
              s1.outcome_seq[1] == "commit",
          "span 1 abort chain sequence");
    Check(spans.at(2).state == "in_flight", "span 2 mid-transaction at trace end");
    Check(spans.at(3).state == "queued", "span 3 still queued");
    const std::map<std::string, PhaseAgg> agg = AttributeSpanTime(spans);
    Check(agg.count("tpm_copy") == 1 && agg.at("tpm_copy").count == 2 &&
              std::abs(agg.at("tpm_copy").total_us - 1.8) < 1e-9,
          "tpm_copy phase aggregates both verdicts of span 1");
    Check(agg.count("retry_backoff") == 1 &&
              std::abs(agg.at("retry_backoff").total_us - 1.9) < 1e-9,
          "abort backoff attributed to retry_backoff");
    Check(agg.count("shadow_residency") == 1 &&
              std::abs(agg.at("shadow_residency").total_us - 2.0) < 1e-9,
          "commit->free attributed to shadow_residency");
    // One span is legitimately in flight on the single kpromote actor, so
    // the completeness gate passes; narrowing the window so the in-flight
    // span loses its dequeue makes the same gate fail.
    Check(ReportSpans(span_doc, Filter{}, /*span_id=*/1, /*check=*/true) == 0,
          "span completeness gate passes with one in-flight per kpromote");
    Check(ReportSpans(span_doc, Filter{}, /*span_id=*/99, /*check=*/false) == 1,
          "unknown --span_id is an error");
    Filter tail;
    tail.from_us = 5.4;
    Check(ReportSpans(span_doc, tail, 0, /*check=*/true) == 1,
          "completeness gate fails when waterfalls are truncated");
  }

  // Metrics cross-check: trace-derived p99 within one bucket of the
  // exported histogram (the acceptance invariant, in miniature).
  {
    JsonValue metrics;
    JsonParser p(kSelftestMetrics);
    Check(p.Parse(&metrics), "selftest metrics parses");
    const JsonValue* runs = metrics.Get("runs");
    Check(runs != nullptr && !runs->arr.empty(), "metrics runs present");
    if (runs != nullptr && !runs->arr.empty()) {
      const double ghz = runs->arr[0].Num("ghz", 0);
      Check(ghz == 2.0, "ghz read from metrics");
      const JsonValue* h = runs->arr[0].Get("histograms");
      const JsonValue* m = h != nullptr ? h->Get("migration.latency") : nullptr;
      Check(m != nullptr, "histogram found in metrics");
      if (m != nullptr) {
        const uint64_t exported_p99 = static_cast<uint64_t>(m->Num("p99"));
        const PairReport r = ReportPairs(PairDurations(doc, Filter{}, "tpm", ghz));
        const uint64_t tol = BucketWidthAt(std::max(exported_p99, r.p99));
        const uint64_t diff =
            r.p99 > exported_p99 ? r.p99 - exported_p99 : exported_p99 - r.p99;
        Check(diff <= tol, "trace p99 within one bucket of exported p99");
      }
    }
  }
}

int Usage() {
  std::cerr
      << "usage: trace_query [--trace=PATH] [--metrics=PATH] [--event=NAME]\n"
         "                   [--actor=NAME] [--from_us=T] [--to_us=T] [--pair=tpm]\n"
         "                   [--ghz=G] [--run=LABEL] [--top=N] [--hist=NAME]\n"
         "                   [--span] [--span_id=N] [--check] [--selftest]\n";
  return 2;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool selftest = flags.GetBool("selftest");
  const std::string trace_path = flags.GetString("trace");
  const std::string metrics_path = flags.GetString("metrics");
  const std::string pair = flags.GetString("pair");
  const std::string run_label = flags.GetString("run");
  const std::string hist_name = flags.GetString("hist");
  const uint64_t top_n = flags.GetUint("top", 0);
  const bool span = flags.GetBool("span");
  const uint64_t span_id = flags.GetUint("span_id", 0);
  const bool check = flags.GetBool("check");
  Filter filter;
  filter.event = flags.GetString("event");
  filter.actor = flags.GetString("actor");
  filter.from_us = flags.GetDouble("from_us", -1);
  filter.to_us = flags.GetDouble("to_us", -1);
  double ghz = flags.GetDouble("ghz", 0);
  if (!flags.UnusedKeys().empty()) {
    return Usage();
  }

  if (selftest) {
    RunSelftest();
    std::cout << "trace_query selftest: " << (g_checks - g_failures) << "/" << g_checks
              << " checks passed\n";
    return g_failures == 0 ? 0 : 1;
  }
  if (trace_path.empty() && metrics_path.empty()) {
    return Usage();
  }

  std::string error;
  JsonValue metrics;
  const JsonValue* runs = nullptr;
  const JsonValue* run = nullptr;  // the run a trace is compared against
  if (!metrics_path.empty()) {
    if (!LoadFile(metrics_path, &metrics, &error)) {
      std::cerr << "error: " << error << "\n";
      return 1;
    }
    runs = metrics.Get("runs");
    if (runs == nullptr || runs->kind != JsonValue::Kind::kArray || runs->arr.empty()) {
      std::cerr << "error: " << metrics_path << " has no runs\n";
      return 1;
    }
    // --run selects by label; otherwise prefer the first run that actually
    // booked migration latencies (multi-run documents lead with baselines
    // that never migrate).
    for (const JsonValue& r : runs->arr) {
      if (!run_label.empty()) {
        if (r.Str("label") == run_label) {
          run = &r;
          break;
        }
        continue;
      }
      const JsonValue* hists = r.Get("histograms");
      const JsonValue* m = hists != nullptr ? hists->Get("migration.latency") : nullptr;
      if (m != nullptr && m->Num("count") > 0) {
        run = &r;
        break;
      }
    }
    if (run == nullptr) {
      if (!run_label.empty()) {
        std::cerr << "error: no run labeled '" << run_label << "' in " << metrics_path
                  << "\n";
        return 1;
      }
      run = &runs->arr[0];
    }
    if (ghz == 0) {
      ghz = run->Num("ghz", 0);
    }
  }

  if (runs != nullptr && !hist_name.empty()) {
    for (const JsonValue& r : runs->arr) {
      const JsonValue* hists = r.Get("histograms");
      const JsonValue* h = hists != nullptr ? hists->Get(hist_name) : nullptr;
      if (h == nullptr) {
        continue;
      }
      std::cout << "run " << r.Str("label") << " " << hist_name
                << ": count=" << h->Num("count") << " p50=" << h->Num("p50")
                << " p90=" << h->Num("p90") << " p99=" << h->Num("p99")
                << " max=" << h->Num("max") << "\n";
    }
  }

  if (trace_path.empty()) {
    return 0;
  }
  JsonValue root;
  if (!LoadFile(trace_path, &root, &error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  TraceDoc doc;
  if (!LoadTrace(root, &doc, &error)) {
    std::cerr << "error: " << trace_path << ": " << error << "\n";
    return 1;
  }

  if (pair.empty() && top_n == 0 && !span && span_id == 0) {
    PrintSummary(doc, filter);
    return 0;
  }

  int rc = 0;
  if (span || span_id != 0) {
    rc = std::max(rc, ReportSpans(doc, filter, span_id, check));
    std::cout << TruncationNote(doc);
  }
  if (!pair.empty()) {
    if (ghz == 0) {
      std::cerr << "error: --pair needs --ghz (or --metrics to read it from)\n";
      return 1;
    }
    const std::vector<uint64_t> samples = PairDurations(doc, filter, pair, ghz);
    const PairReport r = ReportPairs(samples);
    std::cout << "paired '" << pair << "' slices (committed): count=" << r.count
              << " p50=" << r.p50 << " p90=" << r.p90 << " p99=" << r.p99
              << " max=" << r.max << " (cycles at " << ghz << " GHz)\n"
              << TruncationNote(doc);
    // Cross-check against the selected run's migration-latency histogram.
    if (run != nullptr && pair == "tpm") {
      const JsonValue* hists = run->Get("histograms");
      const JsonValue* m = hists != nullptr ? hists->Get("migration.latency") : nullptr;
      if (m != nullptr) {
        const uint64_t exported = static_cast<uint64_t>(m->Num("p99"));
        const uint64_t tol = BucketWidthAt(std::max(exported, r.p99));
        const uint64_t diff = r.p99 > exported ? r.p99 - exported : exported - r.p99;
        std::cout << "metrics migration.latency p99=" << exported << "  |trace-metrics|="
                  << diff << "  bucket-width=" << tol
                  << (diff <= tol ? "  (agree within one bucket)" : "  (MISMATCH)")
                  << "\n";
        if (check && diff > tol) {
          rc = 1;
        }
      } else if (check) {
        std::cerr << "error: --check: metrics run has no migration.latency histogram\n";
        rc = 1;
      }
    }
  }

  if (top_n > 0) {
    const std::map<uint64_t, PageStats> pages = ReplayPages(doc, filter);
    const std::vector<Thrasher> top = TopThrashers(pages, top_n);
    std::cout << "top " << top.size() << " thrashing pages (score = 2*ping_pong + "
                 "redirty + abort):\n";
    for (const Thrasher& t : top) {
      std::cout << "  vpn " << t.vpn << ": score=" << t.stats.Score()
                << " promotions=" << t.stats.promotions
                << " demotions=" << t.stats.demotions
                << " ping_pongs=" << t.stats.ping_pongs
                << " redirties=" << t.stats.redirties << " aborts=" << t.stats.aborts
                << "\n";
    }
    std::cout << TruncationNote(doc);
  }
  return rc;
}

}  // namespace
}  // namespace nomad

int main(int argc, char** argv) { return nomad::Main(argc, argv); }
