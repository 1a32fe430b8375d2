#ifndef MBI_STORAGE_TRANSACTION_STORE_H_
#define MBI_STORAGE_TRANSACTION_STORE_H_

#include <cstdint>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/io_stats.h"
#include "storage/page_store.h"
#include "txn/database.h"
#include "txn/transaction.h"

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
class TransactionStore {
 public:
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
  const std::vector<PageId>& PagesOfBucket(uint32_t bucket) const;

  /// Reads all of `bucket`'s transactions, charging page reads and
  /// transaction fetches to `stats`. Returns ids in layout order.
  std::vector<TransactionId> FetchBucket(uint32_t bucket,
                                         IoStats* stats) const;

  /// Scratch-output variant: clears `*ids` and fills it with the bucket's
  /// transaction ids in layout order. Repeated scans through a reused buffer
  /// allocate nothing once the buffer has grown to the largest bucket.
  /// I/O accounting and contents are identical to the returning overload.
  void FetchBucket(uint32_t bucket, IoStats* stats,
                   std::vector<TransactionId>* ids) const;

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
    return static_cast<uint32_t>(bucket_pages_.size());
  }
  uint64_t num_transactions() const { return page_of_transaction_.size(); }

  /// Reassembles a store from serialized parts (deserialization only).
  /// Validates that every referenced page exists and that
  /// `page_of_transaction` is consistent with the pages' contents.
  static TransactionStore FromParts(PageStore page_store,
                                    std::vector<std::vector<PageId>> buckets,
                                    std::vector<PageId> page_of_transaction);

 private:
  explicit TransactionStore(uint32_t page_size_bytes);

  PageStore page_store_;
  std::vector<std::vector<PageId>> bucket_pages_;
  std::vector<PageId> page_of_transaction_;
};

}  // namespace mbi

#endif  // MBI_STORAGE_TRANSACTION_STORE_H_
