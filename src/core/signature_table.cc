#include "core/signature_table.h"

#include <algorithm>
#include <unordered_map>

#include "kernel/kernels.h"
#include "util/macros.h"

namespace mbi {

SignatureTable::SignatureTable(
    const TransactionDatabase& database, SignaturePartition partition,
    SignatureTableConfig config, std::vector<Entry> entries,
    std::vector<Supercoordinate> coordinate_of_transaction,
    TransactionStore store)
    : partition_(std::move(partition)),
      config_(config),
      entries_(std::move(entries)),
      coordinate_of_transaction_(std::move(coordinate_of_transaction)),
      store_(std::move(store)) {
  coordinates_.reserve(entries_.size());
  extents_.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    coordinates_.push_back(entry.coordinate);
    extents_.push_back(store_.ExtentOfBucket(entry.bucket));
  }
  summary_ = DeriveSummaries(database);
}

SignatureTable::SummaryArrays SignatureTable::DeriveSummaries(
    const TransactionDatabase& database) const {
  constexpr int kCap = kernel::kSummaryCap;
  const size_t num_entries = entries_.size();
  const size_t k = cardinality();
  // Each row's entry, from exactly the ids a scan of each entry reads, so a
  // summary covers what its entry holds even in a table loaded from a file
  // whose per-row coordinates disagree with its buckets.
  std::vector<uint32_t> entry_of(database.size(), 0);
  for (size_t e = 0; e < num_entries; ++e) {
    for (TransactionId id : EntryTransactions(e, /*stats=*/nullptr)) {
      entry_of[id] = static_cast<uint32_t>(e);
    }
  }
  // Rows in id order (the database's storage order; entry order would read
  // them at random) into entry-major records of lo[K], hi[K], s_min.
  const size_t width = 2 * k + 1;
  std::vector<uint8_t> records(width * num_entries, kCap);
  for (size_t e = 0; e < num_entries; ++e) {
    std::fill_n(records.begin() + static_cast<ptrdiff_t>(e * width + k), k, 0);
  }
  std::vector<int> counts;
  for (TransactionId id = 0; id < database.size(); ++id) {
    uint8_t* record = records.data() + size_t{entry_of[id]} * width;
    const Transaction& row = database.Get(id);
    partition_.CountsPerSignature(row, &counts);
    for (size_t j = 0; j < k; ++j) {
      // Saturate conservatively: a count at or past the cap lowers lo to the
      // cap and sets hi to the cap, which reads as unbounded above.
      const uint8_t count = static_cast<uint8_t>(std::min(counts[j], kCap));
      record[j] = std::min(record[j], count);
      record[k + j] = std::max(record[k + j], count);
    }
    const int size = static_cast<int>(std::min<size_t>(row.size(), kCap));
    record[2 * k] = std::min(record[2 * k], static_cast<uint8_t>(size));
  }
  entry_of = {};
  // Transpose into the SoA rows the bound kernel streams.
  SummaryArrays out;
  out.lo.resize(k * num_entries);
  out.hi.resize(k * num_entries);
  out.size_min.resize(num_entries);
  for (size_t e = 0; e < num_entries; ++e) {
    const uint8_t* record = records.data() + e * width;
    for (size_t j = 0; j < k; ++j) {
      out.lo[j * num_entries + e] = record[j];
      out.hi[j * num_entries + e] = record[k + j];
    }
    out.size_min[e] = record[2 * k];
  }
  return out;
}

SignatureTable SignatureTable::Build(const TransactionDatabase& database,
                                     SignaturePartition partition,
                                     const SignatureTableConfig& config) {
  MBI_CHECK(config.activation_threshold >= 1);
  MBI_CHECK(partition.universe_size() == database.universe_size());

  // Map each transaction to its supercoordinate.
  std::vector<Supercoordinate> coordinate_of(database.size());
  for (TransactionId id = 0; id < database.size(); ++id) {
    coordinate_of[id] = ComputeSupercoordinate(
        database.Get(id), partition, config.activation_threshold);
  }

  // Dense bucket ids for the occupied supercoordinates, ascending by
  // coordinate value for determinism.
  std::vector<Supercoordinate> occupied = coordinate_of;
  std::sort(occupied.begin(), occupied.end());
  occupied.erase(std::unique(occupied.begin(), occupied.end()),
                 occupied.end());

  std::unordered_map<Supercoordinate, uint32_t> bucket_of_coordinate;
  bucket_of_coordinate.reserve(occupied.size() * 2);
  for (uint32_t bucket = 0; bucket < occupied.size(); ++bucket) {
    bucket_of_coordinate[occupied[bucket]] = bucket;
  }

  std::vector<uint32_t> bucket_of(database.size());
  std::vector<Entry> entries(occupied.size());
  for (uint32_t bucket = 0; bucket < occupied.size(); ++bucket) {
    entries[bucket].coordinate = occupied[bucket];
    entries[bucket].bucket = bucket;
  }
  for (TransactionId id = 0; id < database.size(); ++id) {
    uint32_t bucket = bucket_of_coordinate.at(coordinate_of[id]);
    bucket_of[id] = bucket;
    ++entries[bucket].transaction_count;
  }

  TransactionStore store = TransactionStore::BuildBucketed(
      database, bucket_of, static_cast<uint32_t>(occupied.size()),
      config.page_size_bytes);

  return SignatureTable(database, std::move(partition), config,
                        std::move(entries), std::move(coordinate_of),
                        std::move(store));
}

Supercoordinate SignatureTable::CoordinateOfTransaction(
    TransactionId id) const {
  MBI_CHECK(id < coordinate_of_transaction_.size());
  return coordinate_of_transaction_[id];
}

std::vector<TransactionId> SignatureTable::FetchEntryTransactions(
    size_t entry_index, IoStats* stats) const {
  const std::span<const TransactionId> ids =
      EntryTransactions(entry_index, stats);
  return {ids.begin(), ids.end()};
}

void SignatureTable::FetchEntryTransactions(
    size_t entry_index, IoStats* stats, std::vector<TransactionId>* ids) const {
  const std::span<const TransactionId> span =
      EntryTransactions(entry_index, stats);
  ids->assign(span.begin(), span.end());
}

std::span<const PageId> SignatureTable::PagesOfEntry(
    size_t entry_index) const {
  MBI_CHECK(entry_index < entries_.size());
  return store_.PagesOfBucket(entries_[entry_index].bucket);
}

SignatureTable::Stats SignatureTable::ComputeStats() const {
  Stats stats;
  stats.cardinality = cardinality();
  stats.directory_entries = uint64_t{1} << cardinality();
  stats.occupied_entries = entries_.size();
  stats.num_transactions = coordinate_of_transaction_.size();
  for (const Entry& entry : entries_) {
    stats.max_bucket_size =
        std::max<uint64_t>(stats.max_bucket_size, entry.transaction_count);
  }
  if (!entries_.empty()) {
    stats.avg_bucket_size = static_cast<double>(stats.num_transactions) /
                            static_cast<double>(entries_.size());
  }
  stats.disk_pages = store_.page_store().size();
  stats.directory_bytes = MemoryFootprintBytes();
  stats.summary_bytes =
      summary_.lo.size() + summary_.hi.size() + summary_.size_min.size();
  return stats;
}

void SignatureTable::CheckInvariants(
    const TransactionDatabase* database) const {
  MBI_CHECK_GE(config_.activation_threshold, 1);
  partition_.CheckInvariants();

  const uint64_t num_transactions = coordinate_of_transaction_.size();
  MBI_CHECK_EQ(num_transactions, store_.num_transactions());
  const Supercoordinate directory_size = Supercoordinate{1}
                                         << partition_.cardinality();

  // Directory shape: strictly sorted coordinates inside the 2^K range,
  // valid and mutually distinct bucket references, and the dense coordinate
  // mirror (for the SIMD bounds kernel) in lockstep with the entries.
  MBI_CHECK_EQ(coordinates_.size(), entries_.size());
  std::vector<bool> bucket_used(store_.num_buckets(), false);
  uint64_t counted = 0;
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    if (i > 0) MBI_CHECK_LT(entries_[i - 1].coordinate, entry.coordinate);
    MBI_CHECK_LT(entry.coordinate, directory_size);
    MBI_CHECK_EQ(coordinates_[i], entry.coordinate);
    MBI_CHECK_LT(entry.bucket, store_.num_buckets());
    MBI_CHECK_MSG(!bucket_used[entry.bucket],
                  "two directory entries share a bucket");
    bucket_used[entry.bucket] = true;
    MBI_CHECK_GT(entry.transaction_count, 0u);
    counted += entry.transaction_count;
  }
  MBI_CHECK_EQ(counted, num_transactions);

  // Bucket contents: each entry's on-disk list holds exactly the
  // transactions whose supercoordinate equals the entry's coordinate, and
  // every transaction appears exactly once across all buckets.
  std::vector<bool> seen(num_transactions, false);
  MBI_CHECK_EQ(extents_.size(), entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    const TransactionStore::Extent& extent = store_.ExtentOfBucket(entry.bucket);
    MBI_CHECK_EQ(extents_[i].first, extent.first);
    MBI_CHECK_EQ(extents_[i].count, extent.count);
    MBI_CHECK_EQ(extents_[i].pages, extent.pages);
    const std::span<const TransactionId> ids =
        store_.BucketTransactions(entry.bucket, /*stats=*/nullptr);
    MBI_CHECK_EQ(ids.size(), static_cast<size_t>(entry.transaction_count));
    // The bucket's slice is its pages' ids, page after page.
    const std::span<const PageId> pages = store_.PagesOfBucket(entry.bucket);
    MBI_CHECK_EQ(pages.size(), static_cast<size_t>(extent.pages));
    size_t offset = 0;
    for (PageId page : pages) {
      for (TransactionId id : store_.page_store().IdsOnPage(page)) {
        MBI_CHECK_LT(offset, ids.size());
        MBI_CHECK_EQ(ids[offset++], id);
      }
    }
    MBI_CHECK_EQ(offset, ids.size());
    for (TransactionId id : ids) {
      MBI_CHECK_LT(id, num_transactions);
      MBI_CHECK_MSG(!seen[id], "transaction indexed in two buckets");
      seen[id] = true;
      MBI_CHECK_EQ(coordinate_of_transaction_[id], entry.coordinate);
    }
  }

  // Activation counts match the supercoordinate decomposition: recomputing
  // each transaction's coordinate from the raw items must reproduce the
  // stored assignment (paper §3 — bit j set iff |T ∩ S_j| >= r).
  if (database != nullptr) {
    MBI_CHECK_EQ(static_cast<uint64_t>(database->size()), num_transactions);
    MBI_CHECK_EQ(partition_.universe_size(), database->universe_size());
    for (TransactionId id = 0; id < num_transactions; ++id) {
      const Transaction& transaction = database->Get(id);
      std::vector<int> counts = partition_.CountsPerSignature(transaction);
      Supercoordinate recomputed =
          SupercoordinateFromCounts(counts, config_.activation_threshold);
      MBI_CHECK_EQ(coordinate_of_transaction_[id], recomputed);
    }
    MBI_CHECK_MSG(DeriveSummaries(*database) == summary_,
                  "entry count summaries disagree with the rows");
  }
}

SignatureTable SignatureTable::Assemble(
    const TransactionDatabase& database, SignaturePartition partition,
    SignatureTableConfig config, std::vector<Entry> entries,
    std::vector<Supercoordinate> coordinate_of_transaction,
    TransactionStore store) {
  MBI_CHECK(config.activation_threshold >= 1);
  MBI_CHECK(coordinate_of_transaction.size() == store.num_transactions());
  uint64_t total = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) {
      MBI_CHECK_MSG(entries[i - 1].coordinate < entries[i].coordinate,
                    "entries must be sorted by supercoordinate");
    }
    MBI_CHECK_MSG(entries[i].coordinate <
                      (Supercoordinate{1} << partition.cardinality()),
                  "entry coordinate outside the 2^K directory");
    MBI_CHECK_MSG(entries[i].bucket < store.num_buckets(),
                  "entry references a missing bucket");
    total += entries[i].transaction_count;
  }
  MBI_CHECK_MSG(total == coordinate_of_transaction.size(),
                "entry counts do not sum to the transaction count");
  return SignatureTable(database, std::move(partition), config,
                        std::move(entries), std::move(coordinate_of_transaction),
                        std::move(store));
}

uint64_t SignatureTable::MemoryFootprintBytes() const {
  // The paper's model: one main-memory slot (a pointer to the page list) per
  // possible supercoordinate.
  return (uint64_t{1} << cardinality()) * sizeof(void*);
}

}  // namespace mbi
