#ifndef MBI_STORAGE_PAGE_STORE_H_
#define MBI_STORAGE_PAGE_STORE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "storage/env.h"
#include "storage/io_stats.h"
#include "txn/transaction.h"
#include "util/metrics.h"
#include "util/status.h"

namespace mbi {

/// Identifier of a page within a PageStore.
using PageId = uint32_t;

/// A disk page holding whole serialized transactions.
///
/// Transactions are never split across pages (a basket of 5–15 items is tiny
/// next to a 4 KiB page), so a page is simply the run of transaction ids it
/// holds plus the byte accounting used to decide when it is full. The ids
/// live once, in the owning PageStore's id array: a page is the view
/// [first, first + count) of it.
struct Page {
  uint64_t first = 0;
  uint32_t count = 0;
  uint32_t used_bytes = 0;
};

/// Append-only simulated disk of fixed-size pages.
///
/// The signature table keeps its 2^K entries in main memory but stores the
/// transaction lists on disk (paper Figure 1); this class is that disk. Every
/// read is tallied in an IoStats ledger so experiments can report physical
/// I/O. A serialized transaction costs `4 + 4 * |items|` bytes (length prefix
/// plus one 32-bit id per item).
///
/// All pages share one id array, each page a slice of it. Appends keep the
/// slices in page order, so a run of consecutive pages is one contiguous
/// slice; GroupPages re-lays the array when a caller needs other runs to be
/// contiguous.
class PageStore {
 public:
  /// `page_size_bytes` must be large enough for at least one small
  /// transaction; 4096 mimics a classic disk page.
  explicit PageStore(uint32_t page_size_bytes = 4096);

  /// Serialized size of a transaction in bytes.
  static uint32_t SerializedSize(const Transaction& transaction);

  /// Appends `id` to the current tail page, opening a new page when the tail
  /// is full. Returns the page the transaction landed on.
  PageId Append(TransactionId id, uint32_t serialized_size);

  /// Forces subsequent appends onto a fresh page (used to align bucket
  /// boundaries so one bucket never shares a page with another).
  void SealCurrentPage();

  /// Reads a page's transaction ids, charging one physical page read to
  /// `stats` (if non-null) and to the mbi.pagestore.pages_read counter when
  /// metrics are wired.
  std::span<const TransactionId> Read(PageId page, IoStats* stats) const;

  /// Charges `pages` physical page reads exactly as that many Read calls
  /// would, without looking at any page: the read of a run of pages whose
  /// ids the caller takes as one slice (TransactionStore's buckets).
  void ChargeReads(uint32_t pages, IoStats* stats) const {
    if (stats != nullptr) {
      stats->pages_read += pages;
      stats->bytes_read += uint64_t{pages} * page_size_bytes_;
    }
    if (pages_read_metric_ != nullptr) pages_read_metric_->Increment(pages);
  }

  /// The ids on `page`, without I/O accounting (serialization and
  /// validation only).
  std::span<const TransactionId> IdsOnPage(PageId page) const;

  /// The slice [first, first + count) of the id array, without I/O
  /// accounting; the caller charges the pages it covers.
  std::span<const TransactionId> Slice(uint64_t first, uint32_t count) const {
    return {ids_.data() + first, count};
  }

  /// Enables physical-I/O counters (mbi.pagestore.*) in `registry`; nullptr
  /// disables. Reads and page openings after this call are counted; the
  /// handles survive copies of the store.
  void set_metrics(MetricsRegistry* registry);

  /// Page count.
  size_t size() const { return pages_.size(); }

  uint32_t page_size_bytes() const { return page_size_bytes_; }

  /// All pages, for serialization. Bypasses I/O accounting — never use this
  /// on a query path.
  const std::vector<Page>& pages() const { return pages_; }

  /// Reassembles a store from serialized pages (deserialization only): `ids`
  /// holds every page's ids, page after page in page order, and `pages`
  /// gives each page's used bytes and id count (their `first` is derived).
  static PageStore FromPages(uint32_t page_size_bytes, std::vector<Page> pages,
                             std::vector<TransactionId> ids);

  /// Re-lays the id array so the pages in `order` come first, in that order,
  /// followed by every other page in page order. Page ids, contents and
  /// byte accounting do not change; only where each page's ids sit in the
  /// array does. Each page may appear in `order` at most once.
  void GroupPages(std::span<const PageId> order);

  /// Spills the whole simulated disk to `path` as a standalone durable
  /// artifact (magic "MBPG", checksummed sections, atomic rename — see
  /// storage/format.h). Lets a long-running build checkpoint its page image
  /// independently of the directory that references it.
  [[nodiscard]] Status SpillToFile(const std::string& path,
                                   Env* env = Env::Default()) const;

  /// Reloads a spill written by SpillToFile. Errors: kNotFound, kCorruption
  /// (checksum / truncation / page accounting violations), kIoError.
  [[nodiscard]] static StatusOr<PageStore> LoadSpillFile(
      const std::string& path, Env* env = Env::Default());

 private:
  uint32_t page_size_bytes_;
  std::vector<Page> pages_;
  std::vector<TransactionId> ids_;  // Every page's ids, each stored once.
  Counter* pages_read_metric_ = nullptr;
  Counter* pages_written_metric_ = nullptr;
};

}  // namespace mbi

#endif  // MBI_STORAGE_PAGE_STORE_H_
