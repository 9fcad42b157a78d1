#include "src/obs/timeline.h"

#include <cstring>

#include "src/check/check.h"
#include "src/obs/json.h"

namespace nomad {

namespace {

// Derived histogram channels: "hist.<registered name><suffix>".
constexpr const char* kHistSuffixes[] = {".count_delta", ".p50", ".p99"};

bool IsDerivedHistChannel(const char* name) {
  constexpr size_t kPrefixLen = 5;  // "hist."
  if (std::strncmp(name, "hist.", kPrefixLen) != 0) {
    return false;
  }
  const std::string rest(name + kPrefixLen);
  for (const char* suffix : kHistSuffixes) {
    const size_t slen = std::strlen(suffix);
    if (rest.size() <= slen || rest.compare(rest.size() - slen, slen, suffix) != 0) {
      continue;
    }
    const std::string base = rest.substr(0, rest.size() - slen);
    if (IsRegisteredHistogramName(base.c_str())) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool IsRegisteredTimelineChannel(const char* name) {
  static constexpr const char* kGauges[] = {
#define NOMAD_TL_NAME(id, str) str,
      NOMAD_TIMELINE_CHANNEL_LIST(NOMAD_TL_NAME)
#undef NOMAD_TL_NAME
  };
  for (const char* g : kGauges) {
    if (std::strcmp(g, name) == 0) {
      return true;
    }
  }
  // Counter-delta channels mirror the CounterSet keyspace, which is open
  // within cnt:: (heterogeneous lookup, fault-counter slots), so any
  // non-empty "cnt."-suffixed name is a valid derived channel.
  if (std::strncmp(name, "cnt.", 4) == 0 && name[4] != '\0') {
    return true;
  }
  return IsDerivedHistChannel(name);
}

size_t Timeline::Channel(const std::string& name) {
  NOMAD_CHECK(IsRegisteredTimelineChannel(name.c_str()),
              "unregistered timeline channel: ", name.c_str());
  for (size_t i = 0; i < columns_.size(); i++) {
    if (columns_[i].name == name) {
      return i;
    }
  }
  Column col;
  col.name = name;
  // Backfill so the new column stays slot-aligned with existing samples.
  col.values.assign(times_.size(), 0);
  columns_.push_back(std::move(col));
  return columns_.size() - 1;
}

void Timeline::BeginSample(Cycles time) {
  NOMAD_CHECK(!in_sample_, "BeginSample inside an open sample");
  in_sample_ = true;
  if (times_.size() == config_.capacity && config_.capacity > 0) {
    // Full: the oldest slot becomes the newest sample.
    const size_t slot = head_;
    head_ = (head_ + 1) % times_.size();
    times_[slot] = time;
    for (Column& col : columns_) {
      col.values[slot] = 0;
    }
    dropped_++;
    return;
  }
  times_.push_back(time);
  for (Column& col : columns_) {
    col.values.push_back(0);
  }
}

void Timeline::Set(size_t channel, uint64_t value) {
  NOMAD_CHECK(in_sample_, "Set outside BeginSample/EndSample");
  NOMAD_CHECK(channel < columns_.size(), "bad timeline channel ", channel);
  columns_[channel].values[Newest()] = value;
}

void Timeline::SetDelta(size_t channel, uint64_t absolute) {
  NOMAD_CHECK(in_sample_, "SetDelta outside BeginSample/EndSample");
  NOMAD_CHECK(channel < columns_.size(), "bad timeline channel ", channel);
  Column& col = columns_[channel];
  col.values[Newest()] = absolute - col.last_abs;
  col.last_abs = absolute;
}

void Timeline::EndSample() {
  NOMAD_CHECK(in_sample_, "EndSample without BeginSample");
  in_sample_ = false;
}

void Timeline::AppendJson(JsonWriter& jw) const {
  jw.BeginObject();
  jw.Field("schema", std::string_view("nomad-timeline-v1"));
  jw.Field("interval", static_cast<uint64_t>(config_.interval));
  jw.Field("samples", static_cast<uint64_t>(times_.size()));
  jw.Field("dropped", dropped_);
  jw.Key("time").BeginArray();
  for (size_t i = 0; i < times_.size(); i++) {
    jw.Uint(times_[Slot(i)]);
  }
  jw.EndArray();
  jw.Key("channels").BeginObject();
  for (const Column& col : columns_) {
    jw.Key(col.name).BeginArray();
    for (size_t i = 0; i < times_.size(); i++) {
      jw.Uint(col.values[Slot(i)]);
    }
    jw.EndArray();
  }
  jw.EndObject();
  jw.EndObject();
}

void Timeline::WriteCsv(std::ostream& out) const {
  out << "time";
  for (const Column& col : columns_) {
    out << ',' << col.name;
  }
  out << '\n';
  for (size_t i = 0; i < times_.size(); i++) {
    const size_t slot = Slot(i);
    out << times_[slot];
    for (const Column& col : columns_) {
      out << ',' << col.values[slot];
    }
    out << '\n';
  }
}

}  // namespace nomad
