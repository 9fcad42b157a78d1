// Page frame metadata: the simulator's `struct page`, stored struct-of-arrays.
//
// Frames carry no 4 KB payload - only the state the paper's mechanisms
// read and write: LRU membership and temperature flags (PG_referenced /
// PG_active), the shadow flag NOMAD adds (sec. 3.2), reverse-map info for
// unmapping during migration, and intrusive LRU links.
//
// Layout: all frame state lives in a FrameTable, split into a *hot* packed
// uint32_t flags word per frame (tier/in_use/temperature/NOMAD flags/LRU
// list id/TPM abort count as bit fields, indexed by PFN) and *cold*
// parallel arrays (owner/vpn/generation/extra_mappers/LRU links). LRU
// scans, the scan-candidate bitmap, and invariant audits walk contiguous
// 4-byte words instead of 64B+ structs, so a cache line covers 16 frames.
// A one-bit-per-frame "queued" sidecar mirrors the PCQ/pending/migrating
// flags so the hint-fault scanner can skip queued frames 64 at a time.
// `PageFrame` is a cheap value-type handle over one PFN's slots; accessor
// inlines keep call sites readable, and outside src/mm they are the ONLY
// sanctioned way to mutate frame flags (lint rule NL009).
//
// Zero means "none" in every array: `vpn` and the LRU links are stored as
// value + 1, so an all-zero slot reads back as kInvalidVpn / kInvalidPfn
// (both ~0), a null owner, generation 0 and a clear flags word. The arrays
// are therefore zero-filled anonymous mappings (ZeroedArray) that
// FrameTable never writes up front: the kernel backs a page of metadata
// only once a frame on it is first written, so resident metadata follows
// the frames ever allocated, not the machine's capacity.
#ifndef SRC_MM_PAGE_H_
#define SRC_MM_PAGE_H_

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/check/check.h"
#include "src/mem/tier.h"

namespace nomad {

// Physical frame number, global across both tiers.
using Pfn = uint64_t;
inline constexpr Pfn kInvalidPfn = ~Pfn{0};

// Virtual page number within an address space.
using Vpn = uint64_t;
inline constexpr Vpn kInvalidVpn = ~Vpn{0};

class AddressSpace;

// Which LRU list a frame currently sits on.
enum class LruList : uint8_t { kNone = 0, kInactive = 1, kActive = 2 };

// Bit assignments inside FrameTable's hot flags word. mm-internal: code
// outside src/mm must go through the PageFrame accessors below (NL009).
namespace frame_flags {
inline constexpr uint32_t kTierSlow = 1u << 0;    // 0 = fast tier, 1 = slow
inline constexpr uint32_t kInUse = 1u << 1;
inline constexpr uint32_t kReferenced = 1u << 2;  // Linux PG_referenced
inline constexpr uint32_t kActive = 1u << 3;      // Linux PG_active
inline constexpr uint32_t kPromoted = 1u << 4;    // landed fast by promotion
inline constexpr uint32_t kShadowed = 1u << 5;    // shadow copy exists (slow)
inline constexpr uint32_t kIsShadow = 1u << 6;    // frame *is* a shadow copy
inline constexpr uint32_t kInPcq = 1u << 7;       // in promotion candidate q
inline constexpr uint32_t kPcqPrimed = 1u << 8;   // next A-bit hit = hot
inline constexpr uint32_t kInPending = 1u << 9;   // in migration pending q
inline constexpr uint32_t kMigrating = 1u << 10;  // TPM txn in flight
inline constexpr uint32_t kLruShift = 12;         // 2 bits: LruList
inline constexpr uint32_t kLruMask = 3u << kLruShift;
inline constexpr uint32_t kTpmAbortsShift = 16;   // 8 bits: abort count
inline constexpr uint32_t kTpmAbortsMask = 0xFFu << kTpmAbortsShift;
// A frame with any of these set is queued for (or in) promotion; the
// FrameTable's queued sidecar holds their OR.
inline constexpr uint32_t kQueuedMask = kInPcq | kInPending | kMigrating;
// Identity bits that survive ResetState() across free/realloc.
inline constexpr uint32_t kIdentityMask = kTierSlow | kInUse;
}  // namespace frame_flags

class PageFrame;

// A fixed-size array of T that starts all-zero: anonymous memory mapped
// from the kernel, which reads as zero and backs a page only when it is
// first written. Nothing is resident until written, and destruction hands
// the pages back. T must be valid as all-zero bytes.
template <typename T>
class ZeroedArray {
 public:
  void Reset(uint64_t n) {
    data_.reset();
    if (n == 0) {
      return;
    }
    const size_t bytes = n * sizeof(T);
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    NOMAD_CHECK(p != MAP_FAILED, "mmap of ", bytes, " bytes for ", n, " slots failed");
    data_ = std::unique_ptr<T[], Unmap>(static_cast<T*>(p), Unmap{bytes});
  }
  T& operator[](uint64_t i) { return data_[i]; }
  const T& operator[](uint64_t i) const { return data_[i]; }
  const T* data() const { return data_.get(); }

 private:
  struct Unmap {
    size_t bytes = 0;
    void operator()(T* p) const { munmap(p, bytes); }
  };
  std::unique_ptr<T[], Unmap> data_;
};

// Struct-of-arrays backing store for every frame's metadata. Owned by
// FramePool; sized once at platform construction.
class FrameTable {
 public:
  // Every frame reads as never used: clear flags, no owner, kInvalidVpn,
  // generation 0, unlinked. Writes nothing per frame.
  void Resize(uint64_t n) {
    size_ = n;
    flags_.Reset(n);
    owner_.Reset(n);
    vpn_plus1_.Reset(n);
    generation_.Reset(n);
    extra_mappers_.Reset(n);
    lru_prev_plus1_.Reset(n);
    lru_next_plus1_.Reset(n);
    queued_.Reset((n + 63) / 64);
  }
  uint64_t size() const { return size_; }

  // Read-only bulk view of the hot words for word-granular scans and
  // audits; mutation goes through PageFrame handles only.
  const uint32_t* flags_data() const { return flags_.data(); }

  // Queued sidecar, 64 frames per word: bit (pfn & 63) of word pfn >> 6 is
  // set iff the frame's flags intersect kQueuedMask. The PageFrame setters
  // of those flags (and ResetState) keep it in step.
  uint64_t QueuedWord(uint64_t word_index) const { return queued_[word_index]; }

  // Declared metadata bytes per frame, for the bytes-of-metadata-per-
  // simulated-page report in bench_throughput. Resident bytes are lower:
  // the arrays are backed lazily, so they follow the frames ever
  // allocated. One-bit sidecars (the queued bits here, FramePool's
  // scan-candidate bitmap) are excluded.
  static constexpr uint64_t BytesPerFrame() {
    return sizeof(uint32_t)          // flags
           + sizeof(AddressSpace*)   // owner
           + sizeof(Vpn)             // vpn
           + sizeof(uint32_t)        // generation
           + sizeof(uint32_t)        // extra_mappers
           + 2 * sizeof(Pfn);        // lru links
  }

 private:
  friend class PageFrame;
  uint64_t size_ = 0;
  ZeroedArray<uint32_t> flags_;
  ZeroedArray<AddressSpace*> owner_;
  ZeroedArray<Vpn> vpn_plus1_;  // vpn + 1; 0 reads as kInvalidVpn
  // generation is bumped on every free; queues that park PFNs (PCQ, pending
  // queue, shadow-reclaim FIFO) snapshot it to detect stale entries.
  ZeroedArray<uint32_t> generation_;
  // Simulated additional mappings (from other page tables). Nonzero means
  // multi-mapped; NOMAD falls back to sync migration for those (sec. 3.3).
  ZeroedArray<uint32_t> extra_mappers_;
  // Intrusive links + 1; 0 reads as kInvalidPfn, the list end.
  ZeroedArray<Pfn> lru_prev_plus1_;
  ZeroedArray<Pfn> lru_next_plus1_;
  ZeroedArray<uint64_t> queued_;  // 1 bit/frame, see QueuedWord
};

// Per-frame metadata handle (struct page equivalent). A 16-byte value type:
// copy freely, pass by value; `const PageFrame` is a read-only view (the
// setters are non-const). All accessors compile to one indexed load/store
// into the FrameTable arrays.
class PageFrame {
 public:
  PageFrame(FrameTable* t, Pfn pfn) : t_(t), pfn_(pfn) {}

  Pfn pfn() const { return pfn_; }

  // --- identity / allocation ---
  Tier tier() const {
    return Test(frame_flags::kTierSlow) ? Tier::kSlow : Tier::kFast;
  }
  void set_tier(Tier t) { Put(frame_flags::kTierSlow, t == Tier::kSlow); }
  bool in_use() const { return Test(frame_flags::kInUse); }
  void set_in_use(bool v) { Put(frame_flags::kInUse, v); }
  uint32_t generation() const { return t_->generation_[pfn_]; }
  void bump_generation() { t_->generation_[pfn_]++; }

  // --- reverse map: who maps this frame ---
  // The simulator supports one mapping per frame (NOMAD falls back to
  // synchronous migration for multi-mapped pages, sec. 3.3; we model the
  // multi-mapped case by flagging frames via extra_mappers).
  AddressSpace* owner() const { return t_->owner_[pfn_]; }
  void set_owner(AddressSpace* as) { t_->owner_[pfn_] = as; }
  Vpn vpn() const { return t_->vpn_plus1_[pfn_] - 1; }
  void set_vpn(Vpn v) { t_->vpn_plus1_[pfn_] = v + 1; }
  uint32_t extra_mappers() const { return t_->extra_mappers_[pfn_]; }
  void set_extra_mappers(uint32_t v) { t_->extra_mappers_[pfn_] = v; }

  // --- temperature flags (Linux PG_referenced / PG_active) ---
  bool referenced() const { return Test(frame_flags::kReferenced); }
  void set_referenced(bool v) { Put(frame_flags::kReferenced, v); }
  bool active() const { return Test(frame_flags::kActive); }
  void set_active(bool v) { Put(frame_flags::kActive, v); }

  // --- NOMAD state ---
  bool promoted() const { return Test(frame_flags::kPromoted); }
  void set_promoted(bool v) { Put(frame_flags::kPromoted, v); }
  bool shadowed() const { return Test(frame_flags::kShadowed); }
  void set_shadowed(bool v) { Put(frame_flags::kShadowed, v); }
  bool is_shadow() const { return Test(frame_flags::kIsShadow); }
  void set_is_shadow(bool v) { Put(frame_flags::kIsShadow, v); }
  bool in_pcq() const { return Test(frame_flags::kInPcq); }
  void set_in_pcq(bool v) {
    Put(frame_flags::kInPcq, v);
    SyncQueued();
  }
  bool pcq_primed() const { return Test(frame_flags::kPcqPrimed); }
  void set_pcq_primed(bool v) { Put(frame_flags::kPcqPrimed, v); }
  bool in_pending() const { return Test(frame_flags::kInPending); }
  void set_in_pending(bool v) {
    Put(frame_flags::kInPending, v);
    SyncQueued();
  }
  bool migrating() const { return Test(frame_flags::kMigrating); }
  void set_migrating(bool v) {
    Put(frame_flags::kMigrating, v);
    SyncQueued();
  }
  // Consecutive TPM aborts on this page; drives kpromote's backoff and
  // give-up decisions.
  uint8_t tpm_aborts() const {
    return static_cast<uint8_t>(word() >> frame_flags::kTpmAbortsShift);
  }
  void set_tpm_aborts(uint8_t v) {
    word() = (word() & ~frame_flags::kTpmAbortsMask) |
             (uint32_t{v} << frame_flags::kTpmAbortsShift);
  }
  void bump_tpm_aborts() { set_tpm_aborts(static_cast<uint8_t>(tpm_aborts() + 1)); }

  // --- LRU bookkeeping ---
  LruList lru() const {
    return static_cast<LruList>((word() >> frame_flags::kLruShift) & 3u);
  }
  void set_lru(LruList l) {
    word() = (word() & ~frame_flags::kLruMask)
             | (static_cast<uint32_t>(l) << frame_flags::kLruShift);
  }
  Pfn lru_prev() const { return t_->lru_prev_plus1_[pfn_] - 1; }
  void set_lru_prev(Pfn p) { t_->lru_prev_plus1_[pfn_] = p + 1; }
  Pfn lru_next() const { return t_->lru_next_plus1_[pfn_] - 1; }
  void set_lru_next(Pfn p) { t_->lru_next_plus1_[pfn_] = p + 1; }

  bool mapped() const { return owner() != nullptr; }
  bool multi_mapped() const { return extra_mappers() > 0; }

  // Resets everything except identity (tier/in_use/generation), for frame
  // free/realloc.
  void ResetState() {
    word() &= frame_flags::kIdentityMask;
    SyncQueued();
    t_->owner_[pfn_] = nullptr;
    t_->vpn_plus1_[pfn_] = 0;
    t_->extra_mappers_[pfn_] = 0;
    t_->lru_prev_plus1_[pfn_] = 0;
    t_->lru_next_plus1_[pfn_] = 0;
  }

 private:
  uint32_t word() const { return t_->flags_[pfn_]; }
  uint32_t& word() { return t_->flags_[pfn_]; }
  bool Test(uint32_t bit) const { return (word() & bit) != 0; }
  void Put(uint32_t bit, bool v) {
    uint32_t& w = t_->flags_[pfn_];
    w = v ? (w | bit) : (w & ~bit);
  }
  // Recomputes this frame's queued sidecar bit from the flags word.
  void SyncQueued() {
    const uint64_t bit = uint64_t{1} << (pfn_ & 63);
    uint64_t& q = t_->queued_[pfn_ >> 6];
    q = (word() & frame_flags::kQueuedMask) != 0 ? (q | bit) : (q & ~bit);
  }

  FrameTable* t_;
  Pfn pfn_;
};

}  // namespace nomad

#endif  // SRC_MM_PAGE_H_
