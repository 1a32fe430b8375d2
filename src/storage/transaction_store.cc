#include "storage/transaction_store.h"

#include <algorithm>
#include <numeric>

#include "util/macros.h"

namespace mbi {

TransactionStore::TransactionStore(uint32_t page_size_bytes)
    : page_store_(page_size_bytes) {}

TransactionStore TransactionStore::BuildBucketed(
    const TransactionDatabase& database, const std::vector<uint32_t>& bucket_of,
    uint32_t num_buckets, uint32_t page_size_bytes) {
  MBI_CHECK(bucket_of.size() == database.size());
  TransactionStore store(page_size_bytes);
  store.bucket_pages_.resize(num_buckets);
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

  for (uint32_t bucket = 0; bucket < num_buckets; ++bucket) {
    if (bucket_sizes[bucket] == 0) continue;
    store.page_store_.SealCurrentPage();
    for (uint64_t pos = offsets[bucket]; pos < offsets[bucket + 1]; ++pos) {
      TransactionId id = ordered[pos];
      PageId page = store.page_store_.Append(
          id, PageStore::SerializedSize(database.Get(id)));
      store.page_of_transaction_[id] = page;
      if (store.bucket_pages_[bucket].empty() ||
          store.bucket_pages_[bucket].back() != page) {
        store.bucket_pages_[bucket].push_back(page);
      }
    }
  }
  return store;
}

TransactionStore TransactionStore::BuildSequential(
    const TransactionDatabase& database, uint32_t page_size_bytes) {
  TransactionStore store(page_size_bytes);
  store.bucket_pages_.resize(1);
  store.page_of_transaction_.resize(database.size());
  for (TransactionId id = 0; id < database.size(); ++id) {
    PageId page = store.page_store_.Append(
        id, PageStore::SerializedSize(database.Get(id)));
    store.page_of_transaction_[id] = page;
    if (store.bucket_pages_[0].empty() ||
        store.bucket_pages_[0].back() != page) {
      store.bucket_pages_[0].push_back(page);
    }
  }
  return store;
}

const std::vector<PageId>& TransactionStore::PagesOfBucket(
    uint32_t bucket) const {
  MBI_CHECK(bucket < bucket_pages_.size());
  return bucket_pages_[bucket];
}

std::vector<TransactionId> TransactionStore::FetchBucket(
    uint32_t bucket, IoStats* stats) const {
  std::vector<TransactionId> ids;
  FetchBucket(bucket, stats, &ids);
  return ids;
}

void TransactionStore::FetchBucket(uint32_t bucket, IoStats* stats,
                                   std::vector<TransactionId>* ids) const {
  ids->clear();
  for (PageId page : PagesOfBucket(bucket)) {
    const Page& loaded = page_store_.Read(page, stats);
    ids->insert(ids->end(), loaded.transaction_ids.begin(),
                loaded.transaction_ids.end());
  }
  if (stats != nullptr) stats->transactions_fetched += ids->size();
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
  const size_t num_pages = page_store.size();
  for (const auto& bucket : buckets) {
    for (PageId page : bucket) {
      MBI_CHECK_MSG(page < num_pages, "bucket references a missing page");
    }
  }
  for (TransactionId id = 0; id < page_of_transaction.size(); ++id) {
    PageId page = page_of_transaction[id];
    MBI_CHECK_MSG(page < num_pages, "transaction mapped to a missing page");
    const auto& ids = page_store.pages()[page].transaction_ids;
    MBI_CHECK_MSG(std::find(ids.begin(), ids.end(), id) != ids.end(),
                  "transaction not present on its mapped page");
  }
  store.page_store_ = std::move(page_store);
  store.bucket_pages_ = std::move(buckets);
  store.page_of_transaction_ = std::move(page_of_transaction);
  return store;
}

}  // namespace mbi
