// A Redis-like in-memory key-value store over the simulated address space.
//
// The store owns a real layout, not just an access pattern:
//  - an open-addressing hash index (8-byte slots, 2x record count) living
//    in its own page range; a lookup probes index lines until it finds the
//    key's slot (deterministic double hashing),
//  - a record heap of fixed-size records (default 1 KB, YCSB's 10x100 B),
//    four records per 4 KB page.
// GET reads the whole record; UPDATE rewrites it in place (Redis-style).
// The driver actor supplies the touch function so every byte moved is
// charged to the right simulated CPU.
#ifndef SRC_WORKLOAD_KVSTORE_H_
#define SRC_WORKLOAD_KVSTORE_H_

#include <cstdint>

#include "src/mem/platform.h"
#include "src/mm/page.h"

namespace nomad {

class KvStore {
 public:
  struct Config {
    uint64_t record_count = 100000;
    uint64_t record_size = 1024;   // bytes; YCSB default 10 fields x 100 B
  };

  explicit KvStore(const Config& config) : config_(config) {
    slots_ = NextPow2(config_.record_count * 2);
    records_per_page_ = kPageSize / config_.record_size;
  }

  // Computes the page layout starting at `base` and returns one past the
  // last VPN used. Call before any operation.
  Vpn Layout(Vpn base) {
    index_start_ = base;
    const Vpn index_pages = (slots_ * 8 + kPageSize - 1) / kPageSize;
    heap_start_ = base + index_pages;
    const Vpn heap_pages =
        (config_.record_count + records_per_page_ - 1) / records_per_page_;
    return heap_start_ + heap_pages;
  }

  uint64_t record_count() const { return config_.record_count; }
  Vpn index_start() const { return index_start_; }
  Vpn heap_start() const { return heap_start_; }

  // GET: index probes + full-record read. touch(vpn, offset, is_write)
  // must return the access latency; the sum is returned.
  template <typename TouchFn>
  Cycles Get(uint64_t key, TouchFn&& touch) {
    Cycles c = ProbeIndex(key, touch);
    const auto [vpn, off] = RecordHome(key);
    for (uint64_t line = 0; line < config_.record_size / kCacheLineSize; line++) {
      c += touch(vpn, off + line * kCacheLineSize, false);
    }
    return c;
  }

  // UPDATE: index probes + full-record write.
  template <typename TouchFn>
  Cycles Update(uint64_t key, TouchFn&& touch) {
    Cycles c = ProbeIndex(key, touch);
    const auto [vpn, off] = RecordHome(key);
    for (uint64_t line = 0; line < config_.record_size / kCacheLineSize; line++) {
      c += touch(vpn, off + line * kCacheLineSize, true);
    }
    return c;
  }

 private:
  static uint64_t NextPow2(uint64_t v) {
    uint64_t p = 1;
    while (p < v) {
      p <<= 1;
    }
    return p;
  }

  static uint64_t Mix(uint64_t x) {
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ull;
    x ^= x >> 33;
    return x;
  }

  // Deterministic probe count: most keys hit on the first probe, a tail
  // needs a second/third (open addressing at load factor 0.5).
  template <typename TouchFn>
  Cycles ProbeIndex(uint64_t key, TouchFn&& touch) {
    Cycles c = 0;
    const uint64_t h = Mix(key);
    const int probes = 1 + static_cast<int>(h % 8 == 0) + static_cast<int>(h % 64 == 0);
    uint64_t slot = h & (slots_ - 1);
    for (int i = 0; i < probes; i++) {
      const Vpn vpn = index_start_ + (slot * 8) / kPageSize;
      c += touch(vpn, (slot * 8) % kPageSize, false);
      slot = (slot + Mix(slot | 1)) & (slots_ - 1);
    }
    return c;
  }

  std::pair<Vpn, uint64_t> RecordHome(uint64_t key) const {
    const uint64_t rec = key % config_.record_count;
    return {heap_start_ + rec / records_per_page_,
            (rec % records_per_page_) * config_.record_size};
  }

  Config config_;
  uint64_t slots_;
  uint64_t records_per_page_;
  Vpn index_start_ = 0;  // set by Layout()
  Vpn heap_start_ = 0;   // set by Layout()
};

}  // namespace nomad

#endif  // SRC_WORKLOAD_KVSTORE_H_
