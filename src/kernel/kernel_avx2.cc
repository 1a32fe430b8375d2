// AVX2 kernel variants. This TU is compiled with -mavx2 on any x86-64
// toolchain (see src/kernel/CMakeLists.txt); dispatch.cc only installs the
// table after __builtin_cpu_supports("avx2") passes at runtime.

#include "kernel/kernels.h"

#if MBI_KERNEL_BUILD_AVX2

#include <immintrin.h>

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/hot_path.h"

namespace mbi::kernel {
namespace {

constexpr size_t kPrefetchAhead = 8;

/// Per-64-bit-lane population count of a 256-bit vector via the Mula
/// pshufb nibble lookup (AVX2 has no vector popcount instruction):
/// per-byte counts from two 4-bit table lookups, then _mm256_sad_epu8
/// folds each 8-byte group into its lane.
inline __m256i Popcount64x4(__m256i v) {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1,
                       2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                         _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

inline uint64_t ReduceAdd64x4(__m256i v) {
  const __m128i halves = _mm_add_epi64(_mm256_castsi256_si128(v),
                                       _mm256_extracti128_si256(v, 1));
  return static_cast<uint64_t>(_mm_cvtsi128_si64(halves)) +
         static_cast<uint64_t>(_mm_extract_epi64(halves, 1));
}

}  // namespace

MBI_HOT void MatchRowsAvx2(const uint64_t* target_row, const uint64_t* rows,
                           size_t stride_words, size_t words,
                           const uint32_t* ids, size_t count,
                           uint32_t* match_out) {
  for (size_t i = 0; i < count; ++i) {
    const size_t row_index = ids != nullptr ? size_t{ids[i]} : i;
    const uint64_t* row = rows + row_index * stride_words;
    if (ids != nullptr && i + kPrefetchAhead < count) {
      __builtin_prefetch(rows + size_t{ids[i + kPrefetchAhead]} * stride_words);
    }
    __m256i acc = _mm256_setzero_si256();
    size_t w = 0;
    for (; w + 4 <= words; w += 4) {
      const __m256i t = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(target_row + w));
      const __m256i c =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + w));
      acc = _mm256_add_epi64(acc, Popcount64x4(_mm256_and_si256(t, c)));
    }
    uint64_t sum = ReduceAdd64x4(acc);
    for (; w < words; ++w) {
      sum += static_cast<uint64_t>(std::popcount(target_row[w] & row[w]));
    }
    match_out[i] = static_cast<uint32_t>(sum);
  }
}

MBI_HOT void BoundsBatchAvx2(const uint32_t* coords, size_t count,
                             uint32_t cardinality, const int32_t* dist_if_zero,
                             const int32_t* dist_if_one,
                             const int32_t* match_if_zero,
                             const int32_t* match_if_one, int32_t* dist_out,
                             int32_t* match_out) {
  const __m256i one = _mm256_set1_epi32(1);
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(coords + i));
    __m256i dist = _mm256_setzero_si256();
    __m256i match = _mm256_setzero_si256();
    // Shift the coordinates right by one each round so the tested bit is
    // always bit 0 — avoids a variable shift amount in the loop body.
    for (uint32_t j = 0; j < cardinality; ++j) {
      const __m256i bit_set =
          _mm256_cmpeq_epi32(_mm256_and_si256(c, one), one);
      const __m256i d = _mm256_blendv_epi8(
          _mm256_set1_epi32(dist_if_zero[j]),
          _mm256_set1_epi32(dist_if_one[j]), bit_set);
      const __m256i m = _mm256_blendv_epi8(
          _mm256_set1_epi32(match_if_zero[j]),
          _mm256_set1_epi32(match_if_one[j]), bit_set);
      dist = _mm256_add_epi32(dist, d);
      match = _mm256_add_epi32(match, m);
      c = _mm256_srli_epi32(c, 1);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dist_out + i), dist);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(match_out + i), match);
  }
  if (i < count) {
    BoundsBatchScalar(coords + i, count - i, cardinality, dist_if_zero,
                      dist_if_one, match_if_zero, match_if_one, dist_out + i,
                      match_out + i);
  }
}

MBI_HOT void SummaryBoundsAvx2(const uint8_t* lo, const uint8_t* hi,
                               const uint8_t* size_min, size_t stride,
                               size_t count, uint32_t cardinality,
                               const int32_t* target_counts,
                               int32_t target_size, int32_t* dist_out,
                               int32_t* match_out) {
  if (!SummaryCountsFitBytes(target_counts, cardinality)) {
    SummaryBoundsScalar(lo, hi, size_min, stride, count, cardinality,
                        target_counts, target_size, dist_out, match_out);
    return;
  }
  const __m256i size = _mm256_set1_epi32(target_size);
  size_t i = 0;
  for (; i + 32 <= count; i += 32) {
    // 16-bit sums for entries [i, i + 16) (*0) and [i + 16, i + 32) (*1).
    __m256i match0 = _mm256_setzero_si256();
    __m256i match1 = _mm256_setzero_si256();
    __m256i dist0 = _mm256_setzero_si256();
    __m256i dist1 = _mm256_setzero_si256();
    for (uint32_t j = 0; j < cardinality; ++j) {
      const __m256i r = _mm256_set1_epi8(static_cast<char>(target_counts[j]));
      const __m256i l = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(lo + j * stride + i));
      const __m256i h = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(hi + j * stride + i));
      // With r <= 255, min(r, 255) = r and sat(r - 255) = 0 give the
      // unbounded-above reading of a capped hi for free; the two distance
      // terms sum to at most 255, so a wrapping byte add is exact.
      const __m256i m = _mm256_min_epu8(r, h);
      const __m256i d =
          _mm256_add_epi8(_mm256_subs_epu8(l, r), _mm256_subs_epu8(r, h));
      match0 = _mm256_add_epi16(
          match0, _mm256_cvtepu8_epi16(_mm256_castsi256_si128(m)));
      match1 = _mm256_add_epi16(
          match1, _mm256_cvtepu8_epi16(_mm256_extracti128_si256(m, 1)));
      dist0 = _mm256_add_epi16(
          dist0, _mm256_cvtepu8_epi16(_mm256_castsi256_si128(d)));
      dist1 = _mm256_add_epi16(
          dist1, _mm256_cvtepu8_epi16(_mm256_extracti128_si256(d, 1)));
    }
    // Widen eight entries at a time and take the size term's max.
    auto finish = [&](__m128i match16, __m128i dist16, size_t at) {
      const __m256i match = _mm256_cvtepu16_epi32(match16);
      const __m256i dist = _mm256_cvtepu16_epi32(dist16);
      const __m256i smallest = _mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(size_min + at)));
      const __m256i by_size = _mm256_sub_epi32(
          _mm256_add_epi32(size, smallest), _mm256_slli_epi32(match, 1));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dist_out + at),
                          _mm256_max_epi32(dist, by_size));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(match_out + at), match);
    };
    finish(_mm256_castsi256_si128(match0), _mm256_castsi256_si128(dist0), i);
    finish(_mm256_extracti128_si256(match0, 1),
           _mm256_extracti128_si256(dist0, 1), i + 8);
    finish(_mm256_castsi256_si128(match1), _mm256_castsi256_si128(dist1),
           i + 16);
    finish(_mm256_extracti128_si256(match1, 1),
           _mm256_extracti128_si256(dist1, 1), i + 24);
  }
  if (i < count) {
    SummaryBoundsScalar(lo + i, hi + i, size_min + i, stride, count - i,
                        cardinality, target_counts, target_size, dist_out + i,
                        match_out + i);
  }
}

}  // namespace mbi::kernel

#endif  // MBI_KERNEL_BUILD_AVX2
