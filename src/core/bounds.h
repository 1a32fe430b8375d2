#ifndef MBI_CORE_BOUNDS_H_
#define MBI_CORE_BOUNDS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/similarity.h"
#include "core/supercoordinate.h"
#include "util/hot_path.h"

namespace mbi {

/// Optimistic bounds on the match count and Hamming distance between a query
/// target and *every* transaction indexed by one signature table entry
/// (paper §4.1: FindOptimisticMatch / FindOptimisticDist).
struct OptimisticBounds {
  /// M_opt — upper bound on the number of matches.
  int match_upper = 0;
  /// D_opt — lower bound on the Hamming distance.
  int dist_lower = 0;
};

/// Read-only view of a signature table's per-entry count summaries
/// (SignatureTable::summaries()), SoA over the table's occupied entries so
/// the bound kernel streams one signature's bytes at a time. For entry e and
/// signature j, over the entry's rows X:
///   lo[j * stride + e] <= |X ∩ S_j| <= hi[j * stride + e],
///   size_min[e]        <= |X|.
/// Bytes saturate conservatively at kernel::kSummaryCap: a hi at the cap
/// means unbounded above; lo and size_min clamp down.
struct EntrySummaries {
  const uint8_t* lo = nullptr;
  const uint8_t* hi = nullptr;
  const uint8_t* size_min = nullptr;
  size_t stride = 0;  // Number of entries (length of one signature's row).
};

/// Per-query precomputation that turns the O(K) per-entry bound loop into
/// table lookups: for each signature j, the contribution of signature j to
/// M_opt and D_opt depends only on the entry's activation bit b_j.
///
/// With r_j = |target ∩ S_j| and activation threshold r (paper §4.1):
///   b_j = 0: every indexed transaction has < r items of S_j, so it misses at
///            least r_j - (r-1) of the target's items there:
///            D += max(0, r_j - r + 1), M += min(r - 1, r_j).
///   b_j = 1: every indexed transaction has >= r items of S_j; if the target
///            has fewer than r there, the extras are mismatches:
///            D += max(0, r - r_j), M += r_j.
///
/// The query paths use the tighter per-entry form instead (ComputeBatch over
/// EntrySummaries; DESIGN.md §1): with [lo_j, hi_j] the range of
/// |X ∩ S_j| over the entry's rows X and s_min the smallest |X|,
///   M' = sum_j min(r_j, hi_j),
///   D' = max(sum_j dist(r_j, [lo_j, hi_j]), |T| + s_min - 2 M').
/// Both hold for every row pointwise, so Lemma 2.1 applies unchanged; with
/// the bit-derived ranges ([r, inf) for b_j = 1, [0, r-1] for b_j = 0) and
/// s_min = 0 they reduce exactly to M_opt and D_opt above.
class BoundCalculator {
 public:
  /// An unbound calculator; call Reset before use. Exists so reusable query
  /// workspaces can hold a vector of calculators and rebind them per query
  /// without reallocating the per-signature tables.
  BoundCalculator() = default;

  /// `target_counts` is r_j per signature (SignaturePartition::
  /// CountsPerSignature); `activation_threshold` is the table's r.
  BoundCalculator(const std::vector<int>& target_counts,
                  int activation_threshold);

  /// Rebinds the calculator to a new target. Equivalent to constructing a
  /// fresh calculator, but reuses the internal tables (no allocation when
  /// the signature cardinality is unchanged).
  void Reset(const std::vector<int>& target_counts, int activation_threshold);

  /// Evaluates the bounds for one entry's supercoordinate. O(K).
  MBI_HOT OptimisticBounds Compute(Supercoordinate coordinate) const;

  /// Batch form over a contiguous run of supercoordinates: writes M_opt to
  /// `match_out[i]` and D_opt to `dist_out[i]` for each `coords[i]`.
  /// Delegates to the runtime-dispatched SIMD bounds kernel
  /// (kernel/dispatch.h); bit-identical to Compute on every element.
  MBI_HOT void ComputeBatch(const Supercoordinate* coords, size_t count,
                            int32_t* match_out, int32_t* dist_out) const;

  /// The per-entry bound (M', D') over the summaries of entries
  /// [begin, begin + count): writes M' to `match_out[i]` and D' to
  /// `dist_out[i]` for entry begin + i. Delegates to the runtime-dispatched
  /// SIMD summary kernel; bit-identical to Compute(summaries, e) on every
  /// entry.
  MBI_HOT void ComputeBatch(const EntrySummaries& summaries, size_t begin,
                            size_t count, int32_t* match_out,
                            int32_t* dist_out) const;

  /// The per-entry bound (M', D') for entry `entry` alone, written out
  /// signature by signature: the definition ComputeBatch is checked
  /// against, and what the frozen reference and CheckBoundDominance use.
  OptimisticBounds Compute(const EntrySummaries& summaries,
                           size_t entry) const;

  uint32_t cardinality() const {
    return static_cast<uint32_t>(dist_if_zero_.size());
  }

 private:
  // int32_t (not int) so the tables feed the SIMD bounds kernel directly.
  std::vector<int32_t> dist_if_zero_;   // D contribution when b_j = 0.
  std::vector<int32_t> dist_if_one_;    // D contribution when b_j = 1.
  std::vector<int32_t> match_if_zero_;  // M contribution when b_j = 0.
  std::vector<int32_t> match_if_one_;   // M contribution when b_j = 1: r_j.
  int32_t target_size_ = 0;             // |T| = sum_j r_j.
};

}  // namespace mbi

#endif  // MBI_CORE_BOUNDS_H_
