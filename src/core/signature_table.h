#ifndef MBI_CORE_SIGNATURE_TABLE_H_
#define MBI_CORE_SIGNATURE_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/bounds.h"
#include "core/signature_partition.h"
#include "core/supercoordinate.h"
#include "storage/transaction_store.h"
#include "txn/database.h"
#include "util/hot_path.h"

namespace mbi {

/// Build-time parameters of the signature table.
struct SignatureTableConfig {
  /// Activation threshold r: a transaction activates signature S_j iff
  /// |T ∩ S_j| >= r. The paper fixes r = 1 in its main experiments and notes
  /// higher values help for larger transaction sizes (§5 footnote 4); the
  /// ablation bench sweeps it.
  int activation_threshold = 1;

  /// Simulated disk page size for the per-entry transaction lists.
  uint32_t page_size_bytes = 4096;
};

/// The signature table (paper §3, Figure 1): a main-memory directory of 2^K
/// entries — one per possible supercoordinate — each pointing to the on-disk
/// list of transactions that map to it.
///
/// Construction is *independent of the similarity function*: only the item
/// partition and activation threshold shape the table, so one table serves
/// hamming, match-ratio, cosine, and any user function at query time — the
/// property the paper's experiments demonstrate by reusing "exactly the same
/// signature table" for all three functions.
///
/// Only occupied entries are materialized (a dense 2^K array would waste
/// memory on empty entries whose optimistic bounds no algorithm needs —
/// an empty entry indexes no transactions and can never be scanned);
/// `MemoryFootprintBytes()` still reports the paper's 2^K directory cost so
/// experiments can reason about the memory-availability axis.
class SignatureTable {
 public:
  /// One occupied directory entry.
  struct Entry {
    Supercoordinate coordinate = 0;
    uint32_t transaction_count = 0;
    /// Bucket id in the backing TransactionStore. Build assigns buckets in
    /// coordinate order; the id is kept explicit so a loaded artifact may
    /// map entries to buckets in any order.
    uint32_t bucket = 0;
  };

  /// Table statistics for logs and the memory-availability experiments.
  struct Stats {
    uint32_t cardinality = 0;
    uint64_t directory_entries = 0;  // 2^K.
    uint64_t occupied_entries = 0;
    uint64_t num_transactions = 0;
    double avg_bucket_size = 0.0;
    uint64_t max_bucket_size = 0;
    uint64_t disk_pages = 0;
    uint64_t directory_bytes = 0;  // Paper's main-memory cost model.
    uint64_t summary_bytes = 0;    // Per-entry count summaries: (2K+1)/entry.
  };

  /// Builds the table over `database` with the given partition.
  static SignatureTable Build(const TransactionDatabase& database,
                              SignaturePartition partition,
                              const SignatureTableConfig& config);

  /// Number of transactions currently indexed.
  uint64_t num_indexed_transactions() const {
    return coordinate_of_transaction_.size();
  }

  const SignaturePartition& partition() const { return partition_; }
  int activation_threshold() const { return config_.activation_threshold; }
  uint32_t cardinality() const { return partition_.cardinality(); }

  /// Occupied entries, ascending by supercoordinate value.
  const std::vector<Entry>& entries() const { return entries_; }

  /// The entries' supercoordinates as a contiguous array parallel to
  /// `entries()` (coordinates()[i] == entries()[i].coordinate). The SIMD
  /// bounds kernel (BoundCalculator::ComputeBatch) wants a dense uint32
  /// stream.
  const std::vector<Supercoordinate>& coordinates() const {
    return coordinates_;
  }

  /// Per-entry count summaries, parallel to `entries()`: per signature j the
  /// range of |X ∩ S_j| over the entry's rows X, and the smallest |X| — what
  /// the tight optimistic bound (BoundCalculator::ComputeBatch) reads.
  /// Derived from the rows whenever a table is built or loaded.
  EntrySummaries summaries() const {
    return {summary_.lo.data(), summary_.hi.data(), summary_.size_min.data(),
            entries_.size()};
  }

  /// Supercoordinate the table assigned to a database transaction.
  Supercoordinate CoordinateOfTransaction(TransactionId id) const;

  /// Reads the transaction ids of entry `entry_index` (index into
  /// `entries()`) from the simulated disk, charging I/O to `stats` as a walk
  /// over the entry's pages would: `PagesOfEntry(entry_index).size()` page
  /// reads (to the mbi.pagestore.pages_read counter too) and one
  /// transaction fetch per id. The ids are a view of the table's own
  /// storage, in layout order, valid as long as the table is; the query
  /// hot path scores straight from it.
  MBI_HOT std::span<const TransactionId> EntryTransactions(
      size_t entry_index, IoStats* stats) const {
    MBI_CHECK(entry_index < extents_.size());
    return store_.Read(extents_[entry_index], stats);
  }

  /// EntryTransactions copied into a fresh vector.
  std::vector<TransactionId> FetchEntryTransactions(size_t entry_index,
                                                    IoStats* stats) const;

  /// EntryTransactions copied into `*ids` (cleared first). A buffer reused
  /// across entries allocates nothing once grown to the largest bucket; ids
  /// and I/O accounting are identical to EntryTransactions.
  void FetchEntryTransactions(size_t entry_index, IoStats* stats,
                              std::vector<TransactionId>* ids) const;

  /// Pages backing one entry (for I/O-shape assertions in tests).
  std::span<const PageId> PagesOfEntry(size_t entry_index) const;

  Stats ComputeStats() const;

  /// Walks the whole index and aborts (via MBI_CHECK) on any structural
  /// corruption: directory entries strictly sorted by supercoordinate and
  /// within the 2^K range, bucket references valid and mutually disjoint,
  /// per-entry activation counts equal to the bucket contents, every indexed
  /// transaction present in exactly the bucket its supercoordinate selects.
  /// When `database` is non-null, additionally recomputes each transaction's
  /// supercoordinate from the item partition and activation threshold and
  /// verifies it matches the stored decomposition, and re-derives every
  /// entry's count summary from its rows. O(N + occupied entries);
  /// meant for tests and the CLI's --check_invariants debug flag, not for
  /// query paths.
  void CheckInvariants(const TransactionDatabase* database = nullptr) const;

  /// Main-memory footprint of the full 2^K directory under the paper's cost
  /// model (one pointer-sized slot per possible supercoordinate).
  uint64_t MemoryFootprintBytes() const;

  /// Backing disk layout (serialization only).
  const TransactionStore& store() const { return store_; }

  /// Forwards to the backing store's set_metrics so physical page traffic
  /// for this table shows up under mbi.pagestore.*. nullptr disables.
  void set_metrics(MetricsRegistry* registry) { store_.set_metrics(registry); }

  /// Simulated page size used for the transaction lists.
  uint32_t page_size_bytes() const { return config_.page_size_bytes; }

  /// Reassembles a table from serialized parts (used by LoadSignatureTable);
  /// validates entry ordering, bucket references, and per-entry counts, and
  /// derives the count summaries from `database`'s rows.
  static SignatureTable Assemble(
      const TransactionDatabase& database, SignaturePartition partition,
      SignatureTableConfig config, std::vector<Entry> entries,
      std::vector<Supercoordinate> coordinate_of_transaction,
      TransactionStore store);

 private:
  SignatureTable(const TransactionDatabase& database,
                 SignaturePartition partition, SignatureTableConfig config,
                 std::vector<Entry> entries,
                 std::vector<Supercoordinate> coordinate_of_transaction,
                 TransactionStore store);

  // Count summaries (see summaries()): K rows of entries_.size() bytes each
  // for lo and hi, one row for the smallest row size.
  struct SummaryArrays {
    std::vector<uint8_t> lo;
    std::vector<uint8_t> hi;
    std::vector<uint8_t> size_min;
    bool operator==(const SummaryArrays&) const = default;
  };

  /// Derives the summary arrays from each entry's rows.
  SummaryArrays DeriveSummaries(const TransactionDatabase& database) const;

  SignaturePartition partition_;
  SignatureTableConfig config_;
  std::vector<Entry> entries_;
  std::vector<Supercoordinate> coordinates_;  // Parallel to entries_.
  // Where each entry's ids live in store_, parallel to entries_: the bucket
  // resolved once, so a query reads one record per scanned entry.
  std::vector<TransactionStore::Extent> extents_;
  SummaryArrays summary_;
  std::vector<Supercoordinate> coordinate_of_transaction_;
  TransactionStore store_;
};

}  // namespace mbi

#endif  // MBI_CORE_SIGNATURE_TABLE_H_
