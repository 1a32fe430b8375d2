#include "core/entry_order.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/macros.h"

namespace mbi {
namespace {

/// Starting hash-table size (a power of two). A query's keys hold a few
/// hundred distinct values, so the table seldom grows, and clearing it per
/// call costs its own size rather than the key count.
constexpr size_t kInitialSlots = 1024;

/// Fibonacci hashing multiplier (2^64 / golden ratio): the top bits of
/// bits * kHashMultiplier spread the low-entropy bit patterns of small
/// doubles over the table.
constexpr uint64_t kHashMultiplier = 0x9E3779B97F4A7C15ull;

/// Smallest capacity reserved for the cell grid. A query's grid spans its
/// entries' range of M' times their range of D': a few hundred cells on the
/// paper's data (at most 777 over 30 T10.I6 targets), and more only when
/// rows are large, so a warm scratch seldom has to grow it.
constexpr size_t kMinGridCells = 4096;

/// Tie-group id of a bucket left out by the cutoff (group ids are < n).
constexpr uint32_t kLeftOut = std::numeric_limits<uint32_t>::max();

/// Keys that compare equal get one bit pattern: -0.0 becomes 0.0 and every
/// NaN one quiet NaN.
double Canonical(double key) {
  if (std::isnan(key)) return std::numeric_limits<double>::quiet_NaN();
  return key + 0.0;
}

/// Descending value with NaN last: a strict weak order whose equivalence
/// classes are the tie groups (values that compare equal, or all NaNs).
bool RanksBefore(double a, double b) {
  return a > b || (std::isnan(b) && !std::isnan(a));
}

bool SameRank(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

/// Linear probe over a table of mask + 1 slots (a power of two, 2^(64 -
/// shift)): the slot holding `bits`, or the empty slot where it belongs.
size_t FindSlot(const uint32_t* slots, const double* values, size_t mask,
                int shift, uint64_t bits) {
  size_t slot = static_cast<size_t>((bits * kHashMultiplier) >> shift);
  while (slots[slot] != 0 &&
         std::bit_cast<uint64_t>(values[slots[slot] - 1]) != bits) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

/// Bucket assignment by hashing: every key gets the bucket of its canonical
/// value, by first appearance.
void AssignKeyBuckets(const double* keys, size_t n, EntryOrderScratch* scratch) {
  EntryOrderScratch& s = *scratch;
  // Capacity for the worst case (every key distinct, the table at twice n so
  // its load stays at most one half) is reserved by n alone, so a warm
  // scratch never allocates, while a call touches only what its keys use.
  // Nothing below outgrows it, so the raw pointers stay valid across the
  // table's growth and the appends.
  s.slots.reserve(std::max(kInitialSlots, std::bit_ceil(2 * n)));
  s.slots.assign(kInitialSlots, 0u);
  uint32_t* const slots = s.slots.data();
  const double* const values = s.values.data();
  uint32_t* const counts = s.counts.data();
  size_t mask = kInitialSlots - 1;
  int shift = 64 - std::countr_zero(kInitialSlots);
  for (size_t i = 0; i < n; ++i) {
    const double key = Canonical(keys[i]);
    const uint64_t bits = std::bit_cast<uint64_t>(key);
    size_t slot = FindSlot(slots, values, mask, shift, bits);
    if (slots[slot] == 0) {
      const size_t distinct = s.values.size();
      if (2 * (distinct + 1) > mask + 1) {
        // Double the table and re-insert the values seen so far.
        s.slots.assign(2 * (mask + 1), 0u);
        mask = 2 * mask + 1;
        --shift;
        for (uint32_t id = 0; id < distinct; ++id) {
          slots[FindSlot(slots, values, mask, shift,
                         std::bit_cast<uint64_t>(values[id]))] = id + 1;
        }
        slot = FindSlot(slots, values, mask, shift, bits);
      }
      s.values.push_back(key);
      counts[distinct] = 0;
      slots[slot] = static_cast<uint32_t>(distinct + 1);
    }
    const uint32_t bucket = slots[slot] - 1;
    s.key_buckets[i] = bucket;
    ++counts[bucket];
  }
}

/// Sizes the scratch for n keys and empties its buckets.
void PrepareBuckets(size_t n, EntryOrderScratch* scratch) {
  MBI_CHECK(n < std::numeric_limits<uint32_t>::max());
  EntryOrderScratch& s = *scratch;
  s.key_buckets.resize(n);
  if (s.counts.size() < n) s.counts.resize(n);
  s.values.reserve(n);
  s.cursors.reserve(n);
  s.values.clear();
}

/// The shared rank-and-scatter: ranks the buckets by value, gives buckets
/// whose values compare equal one tie group, leaves out the groups at or
/// below `cutoff`, and scatters the keys in ascending index, so a tie group
/// keeps index order.
KeysLeftOut RankAndScatter(EntryOrderScratch* scratch,
                           std::vector<uint32_t>* order, double cutoff) {
  EntryOrderScratch& s = *scratch;
  const size_t n = s.key_buckets.size();
  const size_t num_buckets = s.values.size();
  order->resize(n);

  // Sort only the bucket ids (the output holds them until the scatter
  // overwrites it), then turn the counts into each group's first output
  // position.
  const double* const values = s.values.data();
  uint32_t* const ranked = order->data();
  std::iota(ranked, ranked + num_buckets, 0u);
  std::sort(ranked, ranked + num_buckets, [values](uint32_t a, uint32_t b) {
    return RanksBefore(values[a], values[b]);
  });
  const bool cut = cutoff > -std::numeric_limits<double>::infinity();
  KeysLeftOut left_out;
  s.cursors.clear();
  uint32_t next = 0;
  for (size_t r = 0; r < num_buckets; ++r) {
    const uint32_t bucket = ranked[r];
    const double value = values[bucket];
    const uint32_t count = s.counts[bucket];
    if (cut && value <= cutoff) {
      left_out.count += count;
      left_out.max = std::max(left_out.max, value);
      s.counts[bucket] = kLeftOut;
      continue;
    }
    if (r == 0 || !SameRank(value, values[ranked[r - 1]])) {
      s.cursors.push_back(next);
    }
    s.counts[bucket] = static_cast<uint32_t>(s.cursors.size() - 1);
    next += count;
  }

  const uint32_t* const key_buckets = s.key_buckets.data();
  const uint32_t* const groups = s.counts.data();
  uint32_t* const cursors = s.cursors.data();
  uint32_t* const out = order->data();
  for (size_t i = 0; i < n; ++i) {
    const uint32_t group = groups[key_buckets[i]];
    if (group != kLeftOut) out[cursors[group]++] = static_cast<uint32_t>(i);
  }
  order->resize(n - left_out.count);
  return left_out;
}

}  // namespace

MBI_HOT void AssignBoundCells(const int32_t* match, const int32_t* dist,
                              size_t n, const SimilarityFunction& f,
                              EntryOrderScratch* scratch) {
  EntryOrderScratch& s = *scratch;
  PrepareBuckets(n, scratch);
  if (s.bucket_cells.size() < n) s.bucket_cells.resize(n);
  if (n == 0) return;

  // The grid spans this pass's range of M' and D'.
  int32_t min_match = match[0], max_match = match[0];
  int32_t min_dist = dist[0], max_dist = dist[0];
  for (size_t i = 1; i < n; ++i) {
    min_match = std::min(min_match, match[i]);
    max_match = std::max(max_match, match[i]);
    min_dist = std::min(min_dist, dist[i]);
    max_dist = std::max(max_dist, dist[i]);
  }
  const auto match_span =
      static_cast<uint64_t>(static_cast<int64_t>(max_match) - min_match + 1);
  const auto dist_span =
      static_cast<uint64_t>(static_cast<int64_t>(max_dist) - min_dist + 1);
  MBI_CHECK(match_span * dist_span < std::numeric_limits<uint32_t>::max());
  const auto width = static_cast<uint32_t>(dist_span);
  const size_t cells = match_span * dist_span;
  s.grid.reserve(std::max({kMinGridCells, n, cells}));
  if (s.grid.size() < cells) s.grid.resize(cells, 0u);

  // Give each occupied cell a bucket on first appearance and count it.
  uint32_t* const grid = s.grid.data();
  uint32_t* const key_buckets = s.key_buckets.data();
  uint32_t* const counts = s.counts.data();
  uint32_t* const bucket_cells = s.bucket_cells.data();
  uint32_t num_buckets = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t cell =
        static_cast<uint32_t>(static_cast<int64_t>(match[i]) - min_match) *
            width +
        static_cast<uint32_t>(static_cast<int64_t>(dist[i]) - min_dist);
    uint32_t bucket = grid[cell];
    if (bucket == 0) {
      bucket_cells[num_buckets] = cell;
      counts[num_buckets] = 0;
      bucket = ++num_buckets;
      grid[cell] = bucket;
    }
    key_buckets[i] = bucket - 1;
    ++counts[bucket - 1];
  }

  // One evaluation of f per occupied cell, and the grid cleared behind it.
  s.values.resize(num_buckets);
  for (uint32_t b = 0; b < num_buckets; ++b) {
    const uint32_t cell = bucket_cells[b];
    s.values[b] = f.Evaluate(
                      static_cast<int>(min_match + int64_t{cell / width}),
                      static_cast<int>(min_dist + int64_t{cell % width})) +
                  0.0;
    grid[cell] = 0;
  }
}

MBI_HOT KeysLeftOut OrderByBoundCell(const int32_t* match, const int32_t* dist,
                                     size_t n, const SimilarityFunction& f,
                                     EntryOrderScratch* scratch,
                                     std::vector<uint32_t>* order,
                                     double cutoff) {
  AssignBoundCells(match, dist, n, f, scratch);
  return RankAndScatter(scratch, order, cutoff);
}

MBI_HOT KeysLeftOut OrderByKeyDescending(const double* keys, size_t n,
                                         EntryOrderScratch* scratch,
                                         std::vector<uint32_t>* order,
                                         double cutoff) {
  PrepareBuckets(n, scratch);
  AssignKeyBuckets(keys, n, scratch);
  return RankAndScatter(scratch, order, cutoff);
}

}  // namespace mbi
