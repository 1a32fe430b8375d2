#ifndef MBI_STORAGE_BUFFER_POOL_H_
#define MBI_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>

#include "storage/page_store.h"

namespace mbi {

/// LRU buffer pool in front of a PageStore.
///
/// Queries that revisit pages (e.g., the inverted-index baseline fetching
/// scattered transactions) only pay a physical read on a miss; hits are
/// tallied as `pages_cached` in the ledger. The pool holds page ids, not page
/// copies — the underlying store is immutable once built, so a "cached" page
/// is simply served without charging physical I/O.
///
/// Pages can be *pinned* while a caller copies records out of them: a pinned
/// page is never evicted, so the reference stays valid even if interleaved
/// reads would otherwise push it off the LRU tail. Pins are counted, must be
/// balanced by `Unpin`, and `CheckInvariants()` verifies the balance — an
/// unbalanced pin is a leak that would eventually pin the whole pool.
class BufferPool {
 public:
  /// `capacity_pages` of 0 disables caching (every read is physical).
  BufferPool(const PageStore* store, size_t capacity_pages);

  /// Reads a page's ids through the cache, updating `stats` (miss: physical
  /// read; hit: pages_cached).
  std::span<const TransactionId> Read(PageId page, IoStats* stats);

  /// Enables hit/miss counters (mbi.bufferpool.*) in `registry`; nullptr
  /// disables. The hit ratio is derived from the two counters at export time.
  void set_metrics(MetricsRegistry* registry);

  /// Pins `page` so it cannot be evicted until every pin is released. The
  /// page must be cached (i.e. Pin must follow a Read of the same page while
  /// it is still resident); with caching disabled (capacity 0) pins are
  /// tracked but no eviction exists to prevent. Pins nest.
  void Pin(PageId page);

  /// Releases one pin on `page`; aborts if the page is not pinned.
  void Unpin(PageId page);

  /// Drops all cached pages. No page may be pinned.
  void Clear();

  size_t capacity() const { return capacity_; }
  size_t cached_pages() const { return lookup_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

  /// Outstanding pin count summed over all pages (0 when every Pin has been
  /// balanced by an Unpin).
  uint64_t total_pins() const { return total_pins_; }

  /// Aborts (via MBI_CHECK) unless the pool is internally consistent: the
  /// LRU list and the lookup map are a bijection, the unpinned resident
  /// pages fit in `capacity`, every pinned page is resident (when caching is
  /// enabled) with a positive pin count, and the pin total matches the
  /// per-page counts. O(cached pages).
  void CheckInvariants() const;

 private:
  const PageStore* store_;
  size_t capacity_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t total_pins_ = 0;
  Counter* hits_metric_ = nullptr;
  Counter* misses_metric_ = nullptr;

  /// Most-recently-used at front.
  std::list<PageId> lru_;
  std::unordered_map<PageId, std::list<PageId>::iterator> lookup_;
  /// Outstanding pins per page; entries are erased when they reach zero.
  std::unordered_map<PageId, uint32_t> pins_;
};

/// RAII pin: holds one pin on a page for the guard's lifetime. Used by
/// readers that keep a page's ids across further pool traffic.
class PinGuard {
 public:
  PinGuard(BufferPool* pool, PageId page) : pool_(pool), page_(page) {
    pool_->Pin(page_);
  }
  ~PinGuard() { pool_->Unpin(page_); }

  PinGuard(const PinGuard&) = delete;
  PinGuard& operator=(const PinGuard&) = delete;

 private:
  BufferPool* pool_;
  PageId page_;
};

}  // namespace mbi

#endif  // MBI_STORAGE_BUFFER_POOL_H_
