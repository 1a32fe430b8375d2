#ifndef MBI_CORE_ENTRY_ORDER_H_
#define MBI_CORE_ENTRY_ORDER_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/similarity.h"
#include "util/hot_path.h"

namespace mbi {

/// Reusable buffers for the entry ordering. An ordering runs in two steps:
/// a bucket assignment gives every key a bucket and every bucket a value
/// (AssignBoundCells, or hashing inside OrderByKeyDescending), then one
/// shared rank-and-scatter turns the buckets into the visit order.
///
/// Capacity is reserved by the key count n (the hash table's at twice n,
/// rounded up to a power of two), never by the number of buckets, so once a
/// scratch has ordered the largest directory it will see, later calls
/// allocate nothing however many distinct keys they hold. The cell grid is
/// the one exception: its capacity is the largest of 4096 cells, n and the
/// largest grid so far, so a pass whose (M', D') grid outgrows all three
/// (rows far larger than the paper's, whose grids span a few hundred cells)
/// grows it once. QueryContext keeps one per context.
struct EntryOrderScratch {
  /// Per key: its bucket. Bucket ids run 0..B-1 by first appearance.
  std::vector<uint32_t> key_buckets;
  /// Per bucket: its value, f(M', D') of a bound cell or a hashed key.
  std::vector<double> values;
  /// Per bucket (the first values.size() slots): its key count, then its
  /// tie group in the visit order.
  std::vector<uint32_t> counts;
  /// Per tie group: its next output position during the scatter.
  std::vector<uint32_t> cursors;
  /// Hashing: open-addressing table over the distinct values, bucket + 1
  /// or 0 for an empty slot. Its size is a power of two.
  std::vector<uint32_t> slots;
  /// Bound cells: per cell of the pass's (M', D') grid, its bucket + 1 or 0
  /// for an empty cell; every cell is 0 between calls.
  std::vector<uint32_t> grid;
  /// Bound cells: per bucket (the first values.size() slots), its cell.
  std::vector<uint32_t> bucket_cells;

  /// Key i's value after a bucket assignment: f(M'_i, D'_i) or the
  /// canonical key (-0.0 read as 0.0, every NaN as one quiet NaN).
  double Key(size_t i) const { return values[key_buckets[i]]; }
};

/// The keys an ordering left out: how many, and the largest of them (-inf
/// when none).
struct KeysLeftOut {
  size_t count = 0;
  double max = -std::numeric_limits<double>::infinity();
};

/// Bucket assignment by bound cell: entry i's cell is (match[i], dist[i]),
/// its M' and D', and `f` is evaluated once per occupied cell, not once per
/// entry. Afterwards scratch->Key(i) is f(match[i], dist[i]) + 0.0 (the
/// + 0.0 reads -0.0 as 0.0, as the mean over one target does).
///
/// The grid spans the pass's own range of M' and D' (no cap: D' can exceed
/// |T| plus any summary byte when an entry's rows are all large), and cells
/// get bucket ids on first appearance, so the pass is O(n + B) with B
/// occupied cells: a query's tens of thousands of entries fall into a few
/// hundred cells.
MBI_HOT void AssignBoundCells(const int32_t* match, const int32_t* dist,
                              size_t n, const SimilarityFunction& f,
                              EntryOrderScratch* scratch);

/// Writes into `order` the indices 0..n-1 sorted by f(match[i], dist[i])
/// descending, ties by ascending index: exactly std::stable_sort of the
/// indices by that key descending, the order in which the engine visits
/// directory entries (paper §4), with each key read once per cell
/// (AssignBoundCells). The rank-and-scatter is OrderByKeyDescending's;
/// `cutoff` and the return value are as there. scratch->Key(i) gives entry
/// i's bound afterwards.
MBI_HOT KeysLeftOut OrderByBoundCell(
    const int32_t* match, const int32_t* dist, size_t n,
    const SimilarityFunction& f, EntryOrderScratch* scratch,
    std::vector<uint32_t>* order,
    double cutoff = -std::numeric_limits<double>::infinity());

/// Writes into `order` the indices 0..n-1 sorted by `keys` descending, ties
/// by ascending index: exactly std::stable_sort of the indices by key
/// descending. Keys that compare equal (0.0 and -0.0) share a rank; +inf is
/// an ordinary value; NaN keys rank after every other key.
///
/// A stable counting sort over buckets: here hashing the keys' bit patterns
/// finds the D distinct values (OrderByBoundCell uses cells instead). The
/// shared rank-and-scatter sorts only the bucket values, merges buckets
/// whose values compare equal into one tie group, and scatters the indices
/// in ascending order by prefix sums: O(n + D log D). The engine hashes only
/// keys that are not a function of one cell: the mean over several targets,
/// and the supercoordinate-similarity ablation.
///
/// A `cutoff` above -inf leaves out every key at or below it (a NaN key never
/// is), whole tie groups at a time: `order` then holds only the other
/// indices, in the same order as above, and the return value counts the
/// left-out keys and gives their largest. The engine passes the bound below
/// which an entry is pruned wherever it is reached, so such entries are
/// never scattered. The default leaves nothing out.
MBI_HOT KeysLeftOut OrderByKeyDescending(
    const double* keys, size_t n, EntryOrderScratch* scratch,
    std::vector<uint32_t>* order,
    double cutoff = -std::numeric_limits<double>::infinity());

}  // namespace mbi

#endif  // MBI_CORE_ENTRY_ORDER_H_
