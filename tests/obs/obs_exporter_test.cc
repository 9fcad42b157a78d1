// Exporter tests: the JsonWriter emits well-formed JSON (checked by a small
// recursive-descent parser below), and the chrome://tracing document has the
// structure the viewer needs (balanced B/E pairs, metadata rows, args).
#include "src/obs/exporters.h"

#include <gtest/gtest.h>

#include <cctype>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/trace.h"
#include "src/sim/stats.h"

namespace nomad {
namespace {

// Minimal strict JSON parser: returns true iff `s` is one valid JSON value
// with nothing trailing. Enough of RFC 8259 to catch missing commas,
// unescaped strings, bare NaN/inf, and unbalanced brackets.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      pos_++;
    }
  }

  bool Literal(const char* lit) {
    const size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }

  bool Value() {
    if (pos_ >= s_.size()) {
      return false;
    }
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    pos_++;  // '{'
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      pos_++;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != ':') {
        return false;
      }
      pos_++;
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (pos_ >= s_.size()) {
        return false;
      }
      if (s_[pos_] == ',') {
        pos_++;
        continue;
      }
      if (s_[pos_] == '}') {
        pos_++;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    pos_++;  // '['
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      pos_++;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (pos_ >= s_.size()) {
        return false;
      }
      if (s_[pos_] == ',') {
        pos_++;
        continue;
      }
      if (s_[pos_] == ']') {
        pos_++;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      return false;
    }
    pos_++;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        pos_++;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // control chars must be escaped
      }
      if (c == '\\') {
        pos_++;
        if (pos_ >= s_.size()) {
          return false;
        }
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; i++) {
            if (pos_ + i >= s_.size() ||
                !std::isxdigit(static_cast<unsigned char>(s_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      pos_++;
    }
    return false;  // unterminated
  }

  bool Number() {
    const size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') {
      pos_++;
    }
    size_t digits = 0;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      pos_++;
      digits++;
    }
    if (digits == 0) {
      return false;
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      pos_++;
      if (pos_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        return false;
      }
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        pos_++;
      }
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      pos_++;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) {
        pos_++;
      }
      if (pos_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        return false;
      }
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        pos_++;
      }
    }
    return pos_ > start;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

bool IsValidJson(const std::string& s) { return JsonChecker(s).Valid(); }

size_t CountSubstr(const std::string& haystack, const std::string& needle) {
  size_t n = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    n++;
  }
  return n;
}

TEST(JsonCheckerTest, AcceptsAndRejects) {
  EXPECT_TRUE(IsValidJson("{}"));
  EXPECT_TRUE(IsValidJson(R"({"a":[1,2.5,-3e2],"b":"x\n","c":null})"));
  EXPECT_FALSE(IsValidJson("{"));
  EXPECT_FALSE(IsValidJson(R"({"a":1,})"));
  EXPECT_FALSE(IsValidJson(R"({"a" 1})"));
  EXPECT_FALSE(IsValidJson("[1 2]"));
  EXPECT_FALSE(IsValidJson("nan"));
  EXPECT_FALSE(IsValidJson("\"unterminated"));
  EXPECT_FALSE(IsValidJson("{} trailing"));
}

TEST(JsonWriterTest, EmitsWellFormedDocument) {
  std::ostringstream os;
  JsonWriter jw(os);
  jw.BeginObject();
  jw.Field("str", std::string_view("quote\" slash\\ newline\n tab\t"));
  jw.Field("num", uint64_t{18446744073709551615ull});
  jw.Key("neg").Int(-42);
  jw.Field("dbl", 1.5);
  jw.Key("nan").Double(std::numeric_limits<double>::quiet_NaN());
  jw.Field("flag", true);
  jw.Key("nil").Null();
  jw.Key("arr").BeginArray();
  jw.Uint(1).Uint(2).Uint(3);
  jw.EndArray();
  jw.Key("nested").BeginObject().Field("k", uint64_t{0}).EndObject();
  jw.Key("empty_arr").BeginArray().EndArray();
  jw.Key("empty_obj").BeginObject().EndObject();
  jw.EndObject();
  const std::string doc = os.str();
  EXPECT_TRUE(IsValidJson(doc)) << doc;
  // Non-finite doubles degrade to null rather than emitting bare NaN.
  EXPECT_EQ(CountSubstr(doc, "null"), 2u);
}

TEST(JsonWriterTest, QuoteEscapesControlCharacters) {
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonQuote(std::string_view("\x01", 1)), "\"\\u0001\"");
  EXPECT_TRUE(IsValidJson(JsonQuote("tab\t nl\n cr\r backslash\\")));
}

TraceSink MakeSinkWithTpm() {
  TraceSink sink(64);
  // Two transactions on actor 3: one commits, one aborts; plus instants.
  sink.Emit(TraceEvent::kTpmBegin, 100, 3, /*vpn=*/7, /*copy=*/50);
  sink.Emit(TraceEvent::kHintFault, 120, 1, 99);
  sink.Emit(TraceEvent::kTpmCommit, 160, 3, 7, 10);
  sink.Emit(TraceEvent::kTpmBegin, 200, 3, 8, 50);
  sink.Emit(TraceEvent::kTpmAbort, 230, 3, 8);
  sink.Emit(TraceEvent::kKswapdWake, 300, 2, 0, 1234);
  return sink;
}

TEST(ChromeTraceTest, DocumentIsValidAndBalanced) {
  const TraceSink sink = MakeSinkWithTpm();
  std::ostringstream os;
  WriteChromeTrace(sink, /*ghz=*/2.0, {"app0", "app1", "kswapd", "kpromote"}, os);
  const std::string doc = os.str();
  EXPECT_TRUE(IsValidJson(doc)) << doc;
  // One B and one E per finished transaction.
  EXPECT_EQ(CountSubstr(doc, "\"ph\":\"B\""), 2u);
  EXPECT_EQ(CountSubstr(doc, "\"ph\":\"E\""), 2u);
  // Thread-name metadata for the four actors that appear (1, 2, 3 + none).
  EXPECT_GE(CountSubstr(doc, "thread_name"), 3u);
  EXPECT_NE(doc.find("kpromote"), std::string::npos);
  EXPECT_NE(doc.find("traceEvents"), std::string::npos);
  // Instants carry their event name.
  EXPECT_NE(doc.find("hint_fault"), std::string::npos);
  EXPECT_NE(doc.find("kswapd_wake"), std::string::npos);
}

TEST(ChromeTraceTest, DanglingBeginIsClosed) {
  TraceSink sink(16);
  sink.Emit(TraceEvent::kTpmBegin, 10, 0, 1, 50);  // never commits
  std::ostringstream os;
  WriteChromeTrace(sink, 2.0, {}, os);
  const std::string doc = os.str();
  EXPECT_TRUE(IsValidJson(doc)) << doc;
  EXPECT_EQ(CountSubstr(doc, "\"ph\":\"B\""), CountSubstr(doc, "\"ph\":\"E\""));
}

TEST(ChromeTraceTest, DanglingEndBecomesInstant) {
  TraceSink sink(16);
  sink.Emit(TraceEvent::kTpmCommit, 10, 0, 1, 5);  // begin lost to wraparound
  std::ostringstream os;
  WriteChromeTrace(sink, 2.0, {}, os);
  const std::string doc = os.str();
  EXPECT_TRUE(IsValidJson(doc)) << doc;
  EXPECT_EQ(CountSubstr(doc, "\"ph\":\"B\""), 0u);
  EXPECT_EQ(CountSubstr(doc, "\"ph\":\"E\""), 0u);
}

TEST(MetricsJsonTest, BuildingBlocksComposeValidJson) {
  CounterSet counters;
  counters.Add("fault.hint", 3);
  counters.Add("migrate.sync_promote", 2);
  LatencyHistogram hist;
  for (uint64_t i = 1; i <= 1000; i++) {
    hist.Record(i);
  }
  std::ostringstream os;
  JsonWriter jw(os);
  jw.BeginObject();
  jw.Key("counters");
  AppendCountersJson(jw, counters);
  jw.Key("latency");
  AppendLatencyJson(jw, hist);
  jw.Key("bandwidth");
  AppendBandwidthJson(jw, 1000, {64000, 128000}, 2.0);
  jw.EndObject();
  const std::string doc = os.str();
  EXPECT_TRUE(IsValidJson(doc)) << doc;
  EXPECT_NE(doc.find("\"p99\""), std::string::npos);
  EXPECT_NE(doc.find("\"p999\""), std::string::npos);
  EXPECT_NE(doc.find("\"gbps\""), std::string::npos);
  EXPECT_NE(doc.find("fault.hint"), std::string::npos);
}

TEST(ChromeTraceTest, RingWraparoundKeepsDocumentBalanced) {
  // Capacity 8: the begin is overwritten long before its commit arrives, so
  // the exporter sees an end with no open begin and must degrade it to an
  // instant rather than emit an unbalanced "E".
  TraceSink sink(8);
  sink.Emit(TraceEvent::kTpmBegin, 10, 3, /*vpn=*/7, 50);
  for (Cycles t = 20; t < 200; t += 10) {
    sink.Emit(TraceEvent::kHintFault, t, 1, 42);
  }
  sink.Emit(TraceEvent::kTpmCommit, 300, 3, 7, 10);
  EXPECT_EQ(sink.size(), 8u);
  EXPECT_GT(sink.dropped(), 0u);
  std::ostringstream os;
  WriteChromeTrace(sink, 2.0, {"app0", "app1", "kswapd", "kpromote"}, os);
  const std::string doc = os.str();
  EXPECT_TRUE(IsValidJson(doc)) << doc;
  EXPECT_EQ(CountSubstr(doc, "\"ph\":\"B\""), CountSubstr(doc, "\"ph\":\"E\""));
}

TEST(MetricsJsonTest, TraceSummarySurfacesDroppedAfterWraparound) {
  TraceSink sink(4);
  for (Cycles t = 0; t < 100; t += 10) {
    sink.Emit(TraceEvent::kHintFault, t, 1, 9);
  }
  std::ostringstream os;
  JsonWriter jw(os);
  AppendTraceSummaryJson(jw, sink);
  const std::string doc = os.str();
  EXPECT_TRUE(IsValidJson(doc)) << doc;
  EXPECT_NE(doc.find("\"emitted\":10"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"retained\":4"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"dropped\":6"), std::string::npos) << doc;
}

TEST(MetricsJsonTest, ObservabilityExportersComposeValidJson) {
  Profiler prof;
  prof.Enter(ProfNode::kTpm);
  prof.ChargeLeaf(ProfNode::kTpmCopy, 40);
  prof.Charge(100);
  prof.Exit();
  HistogramSet hists;
  hists.Record(hist::kMigrationLatency, 10000);
  hists.Record(hist::kMigrationLatency, 12000);
  ProvenanceLedger ledger;
  ledger.OnPromote(3, 50);
  ledger.OnDemote(3, 60);
  std::ostringstream os;
  JsonWriter jw(os);
  jw.BeginObject();
  jw.Key("profile");
  AppendProfileJson(jw, prof);
  jw.Key("histograms");
  AppendHistogramsJson(jw, hists);
  jw.Key("provenance");
  AppendProvenanceJson(jw, ledger);
  jw.EndObject();
  const std::string doc = os.str();
  EXPECT_TRUE(IsValidJson(doc)) << doc;
  EXPECT_NE(doc.find("\"tpm\":{\"self\":100,\"total\":140}"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"migration.latency\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"ping_pong_events\":1"), std::string::npos) << doc;
}

TEST(MetricsJsonTest, TraceSummaryReportsPerTypeCounts) {
  const TraceSink sink = MakeSinkWithTpm();
  std::ostringstream os;
  JsonWriter jw(os);
  AppendTraceSummaryJson(jw, sink);
  const std::string doc = os.str();
  EXPECT_TRUE(IsValidJson(doc)) << doc;
  EXPECT_NE(doc.find("\"tpm_commit\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"tpm_abort\":1"), std::string::npos);
}

}  // namespace
}  // namespace nomad
