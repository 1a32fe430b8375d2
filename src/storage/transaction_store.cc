#include "storage/transaction_store.h"

#include <algorithm>

#include "util/macros.h"

namespace mbi {

TransactionStore::TransactionStore(uint32_t page_size_bytes)
    : page_store_(page_size_bytes) {}

void TransactionStore::CloseBucket(uint32_t end) {
  const uint32_t begin = bucket_page_begin_.back();
  Extent extent;
  extent.pages = end - begin;
  if (begin < end) {
    extent.first = page_store_.pages()[bucket_page_ids_[begin]].first;
  }
  for (uint32_t i = begin; i < end; ++i) {
    extent.count += page_store_.pages()[bucket_page_ids_[i]].count;
  }
  extents_.push_back(extent);
  bucket_page_begin_.push_back(end);
}

TransactionStore TransactionStore::BuildBucketed(
    const TransactionDatabase& database, const std::vector<uint32_t>& bucket_of,
    uint32_t num_buckets, uint32_t page_size_bytes) {
  MBI_CHECK(bucket_of.size() == database.size());
  TransactionStore store(page_size_bytes);
  store.extents_.reserve(num_buckets);
  store.bucket_page_begin_.reserve(size_t{num_buckets} + 1);
  store.page_of_transaction_.resize(database.size());

  // Group transaction ids by bucket (counting sort keeps this O(n)).
  std::vector<uint32_t> bucket_sizes(num_buckets, 0);
  for (uint32_t bucket : bucket_of) {
    MBI_CHECK(bucket < num_buckets);
    ++bucket_sizes[bucket];
  }
  std::vector<uint64_t> offsets(num_buckets + 1, 0);
  for (uint32_t b = 0; b < num_buckets; ++b) {
    offsets[b + 1] = offsets[b] + bucket_sizes[b];
  }
  std::vector<TransactionId> ordered(database.size());
  {
    std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (TransactionId id = 0; id < database.size(); ++id) {
      ordered[cursor[bucket_of[id]]++] = id;
    }
  }

  // Each bucket starts on a fresh page and its pages are appended one after
  // another, so its ids form one slice of the id array.
  for (uint32_t bucket = 0; bucket < num_buckets; ++bucket) {
    const size_t begin = store.bucket_page_ids_.size();
    if (bucket_sizes[bucket] > 0) store.page_store_.SealCurrentPage();
    for (uint64_t pos = offsets[bucket]; pos < offsets[bucket + 1]; ++pos) {
      TransactionId id = ordered[pos];
      PageId page = store.page_store_.Append(
          id, PageStore::SerializedSize(database.Get(id)));
      store.page_of_transaction_[id] = page;
      if (store.bucket_page_ids_.size() == begin ||
          store.bucket_page_ids_.back() != page) {
        store.bucket_page_ids_.push_back(page);
      }
    }
    store.CloseBucket(static_cast<uint32_t>(store.bucket_page_ids_.size()));
  }
  return store;
}

TransactionStore TransactionStore::BuildSequential(
    const TransactionDatabase& database, uint32_t page_size_bytes) {
  TransactionStore store(page_size_bytes);
  store.page_of_transaction_.resize(database.size());
  for (TransactionId id = 0; id < database.size(); ++id) {
    PageId page = store.page_store_.Append(
        id, PageStore::SerializedSize(database.Get(id)));
    store.page_of_transaction_[id] = page;
    if (store.bucket_page_ids_.empty() ||
        store.bucket_page_ids_.back() != page) {
      store.bucket_page_ids_.push_back(page);
    }
  }
  store.CloseBucket(static_cast<uint32_t>(store.bucket_page_ids_.size()));
  return store;
}

std::span<const PageId> TransactionStore::PagesOfBucket(
    uint32_t bucket) const {
  MBI_CHECK(bucket < extents_.size());
  const uint32_t begin = bucket_page_begin_[bucket];
  return {bucket_page_ids_.data() + begin,
          bucket_page_begin_[bucket + 1] - begin};
}

void TransactionStore::FetchTransaction(TransactionId id, BufferPool* pool,
                                        IoStats* stats) const {
  PageId page = PageOfTransaction(id);
  if (pool != nullptr) {
    pool->Read(page, stats);
    // Hold the page while the record is copied out of it, so the frame
    // cannot be evicted mid-copy once reads become concurrent.
    PinGuard guard(pool, page);
    if (stats != nullptr) ++stats->transactions_fetched;
    return;
  }
  page_store_.Read(page, stats);
  if (stats != nullptr) ++stats->transactions_fetched;
}

PageId TransactionStore::PageOfTransaction(TransactionId id) const {
  MBI_CHECK(id < page_of_transaction_.size());
  return page_of_transaction_[id];
}

TransactionStore TransactionStore::FromParts(
    PageStore page_store, std::vector<std::vector<PageId>> buckets,
    std::vector<PageId> page_of_transaction) {
  TransactionStore store(page_store.page_size_bytes());
  const std::vector<Page>& pages = page_store.pages();
  std::vector<bool> backs_a_bucket(pages.size(), false);
  bool contiguous = true;
  for (const auto& bucket : buckets) {
    for (size_t i = 0; i < bucket.size(); ++i) {
      const PageId page = bucket[i];
      MBI_CHECK_MSG(page < pages.size(), "bucket references a missing page");
      MBI_CHECK_MSG(!backs_a_bucket[page], "a page backs two buckets");
      backs_a_bucket[page] = true;
      if (i > 0) {
        const Page& previous = pages[bucket[i - 1]];
        contiguous &= pages[page].first == previous.first + previous.count;
      }
    }
  }
  for (TransactionId id = 0; id < page_of_transaction.size(); ++id) {
    PageId page = page_of_transaction[id];
    MBI_CHECK_MSG(page < pages.size(), "transaction mapped to a missing page");
    const std::span<const TransactionId> ids = page_store.IdsOnPage(page);
    MBI_CHECK_MSG(std::find(ids.begin(), ids.end(), id) != ids.end(),
                  "transaction not present on its mapped page");
  }

  // The page lists laid end to end are the bucket-order grouping, and each
  // bucket's extent is read off the (re-laid) pages.
  for (const auto& bucket : buckets) {
    store.bucket_page_ids_.insert(store.bucket_page_ids_.end(), bucket.begin(),
                                  bucket.end());
  }
  if (!contiguous) page_store.GroupPages(store.bucket_page_ids_);
  store.page_store_ = std::move(page_store);
  store.extents_.reserve(buckets.size());
  store.bucket_page_begin_.reserve(buckets.size() + 1);
  uint32_t end = 0;
  for (const auto& bucket : buckets) {
    end += static_cast<uint32_t>(bucket.size());
    store.CloseBucket(end);
  }
  store.page_of_transaction_ = std::move(page_of_transaction);
  return store;
}

}  // namespace mbi
