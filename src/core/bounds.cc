#include "core/bounds.h"

#include <algorithm>

#include "kernel/dispatch.h"
#include "util/macros.h"

namespace mbi {

BoundCalculator::BoundCalculator(const std::vector<int>& target_counts,
                                 int activation_threshold) {
  Reset(target_counts, activation_threshold);
}

void BoundCalculator::Reset(const std::vector<int>& target_counts,
                            int activation_threshold) {
  MBI_CHECK(activation_threshold >= 1);
  MBI_CHECK(target_counts.size() <= SignaturePartition::kMaxCardinality);
  const int r = activation_threshold;
  const size_t k = target_counts.size();
  dist_if_zero_.resize(k);
  dist_if_one_.resize(k);
  match_if_zero_.resize(k);
  match_if_one_.resize(k);
  target_size_ = 0;
  for (size_t j = 0; j < k; ++j) {
    const int rj = target_counts[j];
    MBI_CHECK(rj >= 0);
    dist_if_zero_[j] = std::max(0, rj - r + 1);
    dist_if_one_[j] = std::max(0, r - rj);
    match_if_zero_[j] = std::min(r - 1, rj);
    match_if_one_[j] = rj;
    target_size_ += rj;
  }
}

MBI_HOT OptimisticBounds BoundCalculator::Compute(
    Supercoordinate coordinate) const {
  OptimisticBounds bounds;
  const size_t k = dist_if_zero_.size();
  for (size_t j = 0; j < k; ++j) {
    if ((coordinate >> j) & 1u) {
      bounds.dist_lower += dist_if_one_[j];
      bounds.match_upper += match_if_one_[j];
    } else {
      bounds.dist_lower += dist_if_zero_[j];
      bounds.match_upper += match_if_zero_[j];
    }
  }
  return bounds;
}

MBI_HOT void BoundCalculator::ComputeBatch(const Supercoordinate* coords,
                                           size_t count, int32_t* match_out,
                                           int32_t* dist_out) const {
  kernel::ActiveKernels().bounds_batch(
      coords, count, cardinality(), dist_if_zero_.data(), dist_if_one_.data(),
      match_if_zero_.data(), match_if_one_.data(), dist_out, match_out);
}

MBI_HOT void BoundCalculator::ComputeBatch(const EntrySummaries& summaries,
                                           size_t begin, size_t count,
                                           int32_t* match_out,
                                           int32_t* dist_out) const {
  MBI_DCHECK(begin + count <= summaries.stride);
  kernel::ActiveKernels().summary_bounds(
      summaries.lo + begin, summaries.hi + begin, summaries.size_min + begin,
      summaries.stride, count, cardinality(), match_if_one_.data(),
      target_size_, dist_out, match_out);
}

OptimisticBounds BoundCalculator::Compute(const EntrySummaries& summaries,
                                          size_t entry) const {
  MBI_CHECK(entry < summaries.stride);
  OptimisticBounds bounds;
  int dist_by_signature = 0;
  for (size_t j = 0; j < cardinality(); ++j) {
    const int rj = match_if_one_[j];
    const int lo = summaries.lo[j * summaries.stride + entry];
    const int hi = summaries.hi[j * summaries.stride + entry];
    const bool unbounded = hi == kernel::kSummaryCap;
    // M: the row holds at most min(r_j, |X ∩ S_j|) of the target's S_j.
    bounds.match_upper += unbounded ? rj : std::min(rj, hi);
    // D: |T_j Δ X_j| >= ||T_j| - |X_j||, the distance from r_j to [lo, hi].
    dist_by_signature += std::max(0, lo - rj);
    if (!unbounded) dist_by_signature += std::max(0, rj - hi);
  }
  // D: |T Δ X| = |T| + |X| - 2|T ∩ X| >= |T| + s_min - 2M'.
  bounds.dist_lower =
      std::max(dist_by_signature, target_size_ + summaries.size_min[entry] -
                                      2 * bounds.match_upper);
  return bounds;
}

}  // namespace mbi
