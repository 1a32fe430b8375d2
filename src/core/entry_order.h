#ifndef MBI_CORE_ENTRY_ORDER_H_
#define MBI_CORE_ENTRY_ORDER_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/hot_path.h"

namespace mbi {

/// Reusable buffers for OrderByKeyDescending. Capacity is reserved by the
/// key count n (the hash table's at twice n, rounded up to a power of two),
/// never by the number of distinct keys, so once a scratch has ordered the
/// largest directory it will see, later calls allocate nothing however many
/// distinct keys they hold. QueryContext keeps one per context.
struct EntryOrderScratch {
  /// Open-addressing table over the distinct values: distinct id + 1, or 0
  /// for an empty slot. Its size is a power of two.
  std::vector<uint32_t> slots;
  /// Distinct key values, by first appearance.
  std::vector<double> values;
  /// Per distinct id: its count, then its scatter cursor.
  std::vector<uint32_t> starts;
  /// Per key: the distinct id of its value.
  std::vector<uint32_t> key_ids;
};

/// The keys OrderByKeyDescending left out of its order: how many, and the
/// largest of them (-inf when none).
struct KeysLeftOut {
  size_t count = 0;
  double max = -std::numeric_limits<double>::infinity();
};

/// Writes into `order` the indices 0..n-1 sorted by `keys` descending, ties
/// by ascending index: exactly std::stable_sort of the indices by key
/// descending, the order in which the engine visits directory entries (paper
/// §4). Keys that compare equal (0.0 and -0.0) share a rank; +inf is an
/// ordinary value; NaN keys, which no built-in similarity produces, rank
/// after every other key.
///
/// A stable counting sort over the distinct key values: hashing the keys'
/// bit patterns finds the D distinct values, only those are sorted, and the
/// indices are scattered by prefix sums — O(n + D log D). The engine's keys
/// are f(M_opt, D_opt) over small integers, so D is tens to hundreds where n
/// is tens of thousands. `order` doubles as the rank list before the scatter
/// fills it.
///
/// A `cutoff` above -inf leaves out every key at or below it (a NaN key never
/// is): `order` then holds only the other indices, in the same order as
/// above, and the return value counts the left-out keys and gives their
/// largest. The engine passes the bound below which an entry is pruned
/// wherever it is reached, so such entries are never hashed or scattered.
/// The default leaves nothing out.
MBI_HOT KeysLeftOut OrderByKeyDescending(
    const double* keys, size_t n, EntryOrderScratch* scratch,
    std::vector<uint32_t>* order,
    double cutoff = -std::numeric_limits<double>::infinity());

}  // namespace mbi

#endif  // MBI_CORE_ENTRY_ORDER_H_
