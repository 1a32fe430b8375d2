#include "storage/buffer_pool.h"

#include <iterator>

#include "util/macros.h"

namespace mbi {

BufferPool::BufferPool(const PageStore* store, size_t capacity_pages)
    : store_(store), capacity_(capacity_pages) {
  MBI_CHECK(store != nullptr);
}

std::span<const TransactionId> BufferPool::Read(PageId page,
                                                IoStats* stats) {
  if (capacity_ == 0) {
    ++misses_;
    if (misses_metric_ != nullptr) misses_metric_->Increment();
    return store_->Read(page, stats);
  }
  auto it = lookup_.find(page);
  if (it != lookup_.end()) {
    ++hits_;
    if (hits_metric_ != nullptr) hits_metric_->Increment();
    if (stats != nullptr) ++stats->pages_cached;
    lru_.splice(lru_.begin(), lru_, it->second);
    return store_->Read(page, nullptr);  // Served from cache: no charge.
  }
  ++misses_;
  if (misses_metric_ != nullptr) misses_metric_->Increment();
  const std::span<const TransactionId> loaded = store_->Read(page, stats);
  lru_.push_front(page);
  lookup_[page] = lru_.begin();
  // Evict the least-recently-used *unpinned* page. Pinned pages may keep the
  // pool transiently over capacity; they rejoin the eviction candidates once
  // unpinned.
  if (lru_.size() > capacity_) {
    for (auto victim = std::prev(lru_.end());; --victim) {
      if (pins_.find(*victim) == pins_.end()) {
        lookup_.erase(*victim);
        lru_.erase(victim);
        break;
      }
      if (victim == lru_.begin()) break;  // Everything pinned: overflow.
    }
  }
  return loaded;
}

void BufferPool::set_metrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    hits_metric_ = nullptr;
    misses_metric_ = nullptr;
    return;
  }
  hits_metric_ = registry->GetCounter("mbi.bufferpool.hit", "pages",
                                      "buffer pool cache hits");
  misses_metric_ = registry->GetCounter("mbi.bufferpool.miss", "pages",
                                        "buffer pool cache misses");
}

void BufferPool::Pin(PageId page) {
  if (capacity_ > 0) {
    MBI_CHECK_MSG(lookup_.find(page) != lookup_.end(),
                  "cannot pin a page that is not resident");
  }
  ++pins_[page];
  ++total_pins_;
}

void BufferPool::Unpin(PageId page) {
  auto it = pins_.find(page);
  MBI_CHECK_MSG(it != pins_.end(), "unpin of a page with no outstanding pin");
  MBI_CHECK_GT(total_pins_, 0u);
  --total_pins_;
  if (--it->second == 0) pins_.erase(it);
}

void BufferPool::Clear() {
  MBI_CHECK_MSG(pins_.empty(), "cannot clear a pool with pinned pages");
  lru_.clear();
  lookup_.clear();
}

void BufferPool::CheckInvariants() const {
  MBI_CHECK_EQ(lru_.size(), lookup_.size());

  // LRU list and lookup map are a bijection: every listed page maps back to
  // its own list position (which also rules out duplicates in the list).
  size_t unpinned_resident = 0;
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    auto found = lookup_.find(*it);
    MBI_CHECK_MSG(found != lookup_.end(), "LRU page missing from lookup map");
    MBI_CHECK_MSG(found->second == it, "lookup map points at the wrong node");
    if (pins_.find(*it) == pins_.end()) ++unpinned_resident;
  }

  // Only pinned pages may hold the pool over capacity.
  if (capacity_ > 0) {
    MBI_CHECK_LE(unpinned_resident, capacity_);
  } else {
    MBI_CHECK_EQ(lru_.size(), 0u);
  }

  // Pin balance: per-page counts are positive, sum to the running total,
  // and (when caching is enabled) every pinned page is resident.
  uint64_t pin_sum = 0;
  for (const auto& [page, count] : pins_) {
    MBI_CHECK_GT(count, 0u);
    pin_sum += count;
    if (capacity_ > 0) {
      MBI_CHECK_MSG(lookup_.find(page) != lookup_.end(),
                    "pinned page is not resident");
    }
  }
  MBI_CHECK_EQ(pin_sum, total_pins_);
}

}  // namespace mbi
