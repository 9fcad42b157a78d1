#include "src/obs/provenance.h"

#include <algorithm>

namespace nomad {

PageProvenance* ProvenanceLedger::Touch(uint64_t vpn, Cycles now) {
  if (!enabled_) {
    return nullptr;
  }
  auto it = pages_.find(vpn);
  if (it == pages_.end()) {
    if (pages_.size() >= max_pages_) {
      dropped_++;
      return nullptr;
    }
    if (pages_.empty()) {
      pages_.reserve(std::min(max_pages_, size_t{1} << 14));
    }
    it = pages_.emplace(vpn, PageProvenance{}).first;
    it->second.first_event = now;
  }
  it->second.last_event = now;
  return &it->second;
}

uint64_t ProvenanceLedger::ping_pong_pages() const {
  uint64_t n = 0;
  for (const auto& [vpn, rec] : pages_) {
    (void)vpn;
    n += rec.ping_pongs > 0 ? 1 : 0;
  }
  return n;
}

std::vector<ProvenanceLedger::Thrasher> ProvenanceLedger::TopThrashers(size_t n) const {
  std::vector<Thrasher> all;
  for (const auto& [vpn, rec] : pages_) {
    const uint64_t score =
        2 * uint64_t{rec.ping_pongs} + uint64_t{rec.redirties} + uint64_t{rec.aborts};
    if (score > 0) {
      all.push_back(Thrasher{vpn, score, rec});
    }
  }
  std::sort(all.begin(), all.end(), [](const Thrasher& a, const Thrasher& b) {
    return a.score != b.score ? a.score > b.score : a.vpn < b.vpn;
  });
  if (all.size() > n) {
    all.resize(n);
  }
  return all;
}

void ProvenanceLedger::Reset() {
  pages_.clear();
  dropped_ = 0;
  promotions_ = 0;
  demotions_ = 0;
  aborts_ = 0;
  redirty_events_ = 0;
  ping_pong_events_ = 0;
  shadow_frees_ = 0;
}

}  // namespace nomad
