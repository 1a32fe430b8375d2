// Scalar reference kernels. Every SIMD variant must be bit-identical to
// these (tests/kernel_test.cc sweeps the equivalence exhaustively); the
// scalar path also serves hosts and builds with no vector units.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "kernel/kernels.h"
#include "util/hot_path.h"

namespace mbi::kernel {
namespace {

/// Gather-form prefetch distance: far enough to cover a memory access,
/// close enough that the prefetched line is still resident when used.
constexpr size_t kPrefetchAhead = 8;

}  // namespace

MBI_HOT void MatchRowsScalar(const uint64_t* target_row, const uint64_t* rows,
                             size_t stride_words, size_t words,
                             const uint32_t* ids, size_t count,
                             uint32_t* match_out) {
  for (size_t i = 0; i < count; ++i) {
    const size_t row_index = ids != nullptr ? size_t{ids[i]} : i;
    const uint64_t* row = rows + row_index * stride_words;
    if (ids != nullptr && i + kPrefetchAhead < count) {
      __builtin_prefetch(rows + size_t{ids[i + kPrefetchAhead]} * stride_words);
    }
    uint64_t acc = 0;
    for (size_t w = 0; w < words; ++w) {
      acc += static_cast<uint64_t>(std::popcount(target_row[w] & row[w]));
    }
    match_out[i] = static_cast<uint32_t>(acc);
  }
}

MBI_HOT void BoundsBatchScalar(const uint32_t* coords, size_t count,
                               uint32_t cardinality,
                               const int32_t* dist_if_zero,
                               const int32_t* dist_if_one,
                               const int32_t* match_if_zero,
                               const int32_t* match_if_one, int32_t* dist_out,
                               int32_t* match_out) {
  for (size_t i = 0; i < count; ++i) {
    const uint32_t coordinate = coords[i];
    int32_t dist = 0;
    int32_t match = 0;
    for (uint32_t j = 0; j < cardinality; ++j) {
      if ((coordinate >> j) & 1u) {
        dist += dist_if_one[j];
        match += match_if_one[j];
      } else {
        dist += dist_if_zero[j];
        match += match_if_zero[j];
      }
    }
    dist_out[i] = dist;
    match_out[i] = match;
  }
}

MBI_HOT void SummaryBoundsScalar(const uint8_t* lo, const uint8_t* hi,
                                 const uint8_t* size_min, size_t stride,
                                 size_t count, uint32_t cardinality,
                                 const int32_t* target_counts,
                                 int32_t target_size, int32_t* dist_out,
                                 int32_t* match_out) {
  std::fill_n(match_out, count, 0);
  std::fill_n(dist_out, count, 0);
  // Signature-major, so each pass streams one row of the SoA summaries.
  for (uint32_t j = 0; j < cardinality; ++j) {
    const uint8_t* lo_j = lo + j * stride;
    const uint8_t* hi_j = hi + j * stride;
    const int32_t r = target_counts[j];
    for (size_t i = 0; i < count; ++i) {
      const int32_t low = lo_j[i];
      int32_t dist = std::max(0, low - r);
      if (hi_j[i] == kSummaryCap) {  // Unbounded above.
        match_out[i] += r;
      } else {
        const int32_t high = hi_j[i];
        match_out[i] += std::min(r, high);
        dist += std::max(0, r - high);
      }
      dist_out[i] += dist;
    }
  }
  for (size_t i = 0; i < count; ++i) {
    dist_out[i] = std::max(
        dist_out[i], target_size + int32_t{size_min[i]} - 2 * match_out[i]);
  }
}

}  // namespace mbi::kernel
