#ifndef MBI_STORAGE_TRANSACTION_STORE_H_
#define MBI_STORAGE_TRANSACTION_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/io_stats.h"
#include "storage/page_store.h"
#include "txn/database.h"
#include "txn/transaction.h"
#include "util/hot_path.h"
#include "util/macros.h"

namespace mbi {

/// Physical layout of a transaction database on the simulated disk.
///
/// Two layouts are supported:
///
///  * **Bucketed** (`BuildBucketed`): transactions are grouped by a caller-
///    supplied bucket id (the signature table uses the supercoordinate entry
///    index) and written contiguously, each bucket starting on a fresh page.
///    This is the paper's Figure 1 layout — each in-memory table entry points
///    to a run of disk pages. Scanning one bucket touches only its pages.
///
///  * **Sequential** (`BuildSequential`): transactions are written in arrival
///    order with no grouping. This models both the raw database a sequential
///    scan reads and the page-scattering behaviour of the inverted-index
///    baseline: similar transactions are spread across unrelated pages, so
///    fetching a candidate set touches many pages ("even if 5% of the
///    transactions need to be accessed, it may be required to access almost
///    the entire database", §5.1).
///
/// Either way a bucket is a run of pages whose ids sit next to each other in
/// the page store's id array, so reading a bucket is one slice of it: one
/// Extent record says where the slice starts, how many ids it holds and how
/// many pages it spans, and the read charges those pages as a page-by-page
/// walk would.
class TransactionStore {
 public:
  /// Where one bucket's transaction ids live: the slice [first, first +
  /// count) of the page store's id array, spanning `pages` pages.
  struct Extent {
    uint64_t first = 0;
    uint32_t count = 0;
    uint32_t pages = 0;
  };

  /// Builds a bucketed layout. `bucket_of[t]` is the bucket of transaction t;
  /// `num_buckets` bounds the bucket ids.
  static TransactionStore BuildBucketed(const TransactionDatabase& database,
                                        const std::vector<uint32_t>& bucket_of,
                                        uint32_t num_buckets,
                                        uint32_t page_size_bytes = 4096);

  /// Builds a sequential (arrival-order) layout.
  static TransactionStore BuildSequential(const TransactionDatabase& database,
                                          uint32_t page_size_bytes = 4096);

  /// Pages backing `bucket`, in layout order (bucketed layout only; for
  /// sequential layout all pages belong to bucket 0).
  std::span<const PageId> PagesOfBucket(uint32_t bucket) const;

  /// Where `bucket`'s ids live (see Extent).
  const Extent& ExtentOfBucket(uint32_t bucket) const {
    MBI_CHECK(bucket < extents_.size());
    return extents_[bucket];
  }

  /// Reads the ids of an extent of this store, in layout order, charging
  /// its pages and its transaction fetches to `stats` (and the pages to the
  /// mbi.pagestore.pages_read counter) exactly as reading its pages one by
  /// one would. The span stays valid as long as the store does.
  MBI_HOT std::span<const TransactionId> Read(const Extent& extent,
                                             IoStats* stats) const {
    page_store_.ChargeReads(extent.pages, stats);
    if (stats != nullptr) stats->transactions_fetched += extent.count;
    return page_store_.Slice(extent.first, extent.count);
  }

  /// Reads all of `bucket`'s transactions: Read(ExtentOfBucket(bucket)).
  std::span<const TransactionId> BucketTransactions(uint32_t bucket,
                                                    IoStats* stats) const {
    return Read(ExtentOfBucket(bucket), stats);
  }

  /// Reads the page holding one transaction (point fetch; models the random
  /// access of the inverted-index baseline). Charges one page read — or a
  /// cache hit when `pool` is non-null — plus one transaction fetch.
  void FetchTransaction(TransactionId id, BufferPool* pool,
                        IoStats* stats) const;

  /// The page a transaction lives on.
  PageId PageOfTransaction(TransactionId id) const;

  const PageStore& page_store() const { return page_store_; }

  /// Forwards to the backing PageStore's set_metrics (mbi.pagestore.*).
  void set_metrics(MetricsRegistry* registry) {
    page_store_.set_metrics(registry);
  }
  uint32_t num_buckets() const {
    return static_cast<uint32_t>(extents_.size());
  }
  uint64_t num_transactions() const { return page_of_transaction_.size(); }

  /// Reassembles a store from serialized parts (deserialization only).
  /// Validates that every referenced page exists, that no page backs two
  /// buckets (or one bucket twice), and that `page_of_transaction` is
  /// consistent with the pages' contents. When some bucket's pages do not
  /// sit next to each other in the id array (a table whose buckets grew by
  /// appends onto later pages), the array is re-laid in bucket order first
  /// (PageStore::GroupPages): same pages, same ids, same page counts.
  static TransactionStore FromParts(PageStore page_store,
                                    std::vector<std::vector<PageId>> buckets,
                                    std::vector<PageId> page_of_transaction);

 private:
  explicit TransactionStore(uint32_t page_size_bytes);

  /// Ends the bucket backed by bucket_page_ids_[previous bucket's end,
  /// `end`), recording its page range and its Extent.
  void CloseBucket(uint32_t end);

  PageStore page_store_;
  std::vector<Extent> extents_;  // Per bucket.
  // Pages of bucket b: bucket_page_ids_[bucket_page_begin_[b],
  // bucket_page_begin_[b + 1]).
  std::vector<uint32_t> bucket_page_begin_ = {0};
  std::vector<PageId> bucket_page_ids_;
  std::vector<PageId> page_of_transaction_;
};

}  // namespace mbi

#endif  // MBI_STORAGE_TRANSACTION_STORE_H_
