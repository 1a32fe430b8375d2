#ifndef MBI_MINING_SUPPORT_COUNTER_H_
#define MBI_MINING_SUPPORT_COUNTER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "txn/database.h"
#include "txn/transaction.h"

namespace mbi {

/// Interface over item/pair support statistics.
///
/// Signature construction (paper §3.1) needs exactly these statistics: the
/// item graph's edge weights are the inverse supports of the item pairs, and
/// the critical-mass criterion sums item supports. `SupportCounter` is the
/// exact implementation.
class SupportProvider {
 public:
  /// A 2-itemset with its absolute support count, a < b.
  struct PairEntry {
    ItemId a;
    ItemId b;
    uint64_t count;
  };

  virtual ~SupportProvider() = default;

  /// Number of transactions containing `item`.
  virtual uint64_t ItemCount(ItemId item) const = 0;

  /// Support of `item` as a fraction of the database size in [0, 1].
  virtual double ItemSupport(ItemId item) const = 0;

  /// All pairs with count >= `min_count` (and > 0), as (a, b, count), a < b.
  /// `min_count` must be at least the implementation's counting floor
  /// (1 for the exact counter; the construction-time threshold for PCY).
  virtual std::vector<PairEntry> PairsWithMinCount(
      uint64_t min_count) const = 0;

  virtual uint64_t num_transactions() const = 0;
  virtual uint32_t universe_size() const = 0;
};

/// Exact support counting: all single items and all 2-itemsets in one scan
/// of a transaction database.
///
/// Pair counts are kept in a dense triangular array when the universe is
/// small enough, falling back to a hash map for large universes.
class SupportCounter final : public SupportProvider {
 public:
  /// Scans `database` and materializes the counts.
  explicit SupportCounter(const TransactionDatabase& database);

  uint64_t ItemCount(ItemId item) const override;
  double ItemSupport(ItemId item) const override;

  /// Number of transactions containing both items (order irrelevant).
  uint64_t PairCount(ItemId a, ItemId b) const;

  /// Support of the pair as a fraction of the database size.
  double PairSupport(ItemId a, ItemId b) const;

  std::vector<PairEntry> PairsWithMinCount(uint64_t min_count) const override;

  uint64_t num_transactions() const override { return num_transactions_; }
  uint32_t universe_size() const override { return universe_size_; }

 private:
  /// Index into the triangular array for a < b.
  size_t TriangularIndex(ItemId a, ItemId b) const;

  uint32_t universe_size_;
  uint64_t num_transactions_;
  std::vector<uint64_t> item_counts_;

  bool use_dense_pairs_;
  std::vector<uint32_t> dense_pair_counts_;                 // Triangular.
  std::unordered_map<uint64_t, uint64_t> sparse_pair_counts_;  // a<<32|b.
};

}  // namespace mbi

#endif  // MBI_MINING_SUPPORT_COUNTER_H_
