// AVX-512 kernel variants. This TU is compiled with
// -mavx512f -mavx512bw -mavx512vpopcntdq on any x86-64 toolchain;
// dispatch.cc only installs the table when the host reports all three
// (other hosts fall back to the AVX2 family).

#include "kernel/kernels.h"

#if MBI_KERNEL_BUILD_AVX512

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "util/hot_path.h"

// GCC's AVX-512 headers pass deliberately-undefined operands as
// `__m256i __Y = __Y;`, which -Wmaybe-uninitialized flags through inlining
// at -O2 (false positive; the lanes are fully overwritten). The warning
// originates in the system header, so suppress it for this TU only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace mbi::kernel {
namespace {

constexpr size_t kPrefetchAhead = 8;

}  // namespace

MBI_HOT void MatchRowsAvx512(const uint64_t* target_row, const uint64_t* rows,
                             size_t stride_words, size_t words,
                             const uint32_t* ids, size_t count,
                             uint32_t* match_out) {
  for (size_t i = 0; i < count; ++i) {
    const size_t row_index = ids != nullptr ? size_t{ids[i]} : i;
    const uint64_t* row = rows + row_index * stride_words;
    if (ids != nullptr && i + kPrefetchAhead < count) {
      __builtin_prefetch(rows + size_t{ids[i + kPrefetchAhead]} * stride_words);
    }
    __m512i acc = _mm512_setzero_si512();
    size_t w = 0;
    for (; w + 8 <= words; w += 8) {
      const __m512i t = _mm512_loadu_si512(target_row + w);
      const __m512i c = _mm512_loadu_si512(row + w);
      acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_and_si512(t, c)));
    }
    if (w < words) {
      // Ragged tail in one masked load instead of a scalar loop.
      const __mmask8 tail =
          static_cast<__mmask8>((1u << (words - w)) - 1u);
      const __m512i t = _mm512_maskz_loadu_epi64(tail, target_row + w);
      const __m512i c = _mm512_maskz_loadu_epi64(tail, row + w);
      acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_and_si512(t, c)));
    }
    match_out[i] =
        static_cast<uint32_t>(_mm512_reduce_add_epi64(acc));
  }
}

MBI_HOT void BoundsBatchAvx512(const uint32_t* coords, size_t count,
                               uint32_t cardinality,
                               const int32_t* dist_if_zero,
                               const int32_t* dist_if_one,
                               const int32_t* match_if_zero,
                               const int32_t* match_if_one, int32_t* dist_out,
                               int32_t* match_out) {
  const __m512i one = _mm512_set1_epi32(1);
  size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    __m512i c = _mm512_loadu_si512(coords + i);
    __m512i dist = _mm512_setzero_si512();
    __m512i match = _mm512_setzero_si512();
    // Shift right by one each round so the tested bit is always bit 0.
    for (uint32_t j = 0; j < cardinality; ++j) {
      const __mmask16 bit_set = _mm512_test_epi32_mask(c, one);
      const __m512i d = _mm512_mask_blend_epi32(
          bit_set, _mm512_set1_epi32(dist_if_zero[j]),
          _mm512_set1_epi32(dist_if_one[j]));
      const __m512i m = _mm512_mask_blend_epi32(
          bit_set, _mm512_set1_epi32(match_if_zero[j]),
          _mm512_set1_epi32(match_if_one[j]));
      dist = _mm512_add_epi32(dist, d);
      match = _mm512_add_epi32(match, m);
      c = _mm512_srli_epi32(c, 1);
    }
    _mm512_storeu_si512(dist_out + i, dist);
    _mm512_storeu_si512(match_out + i, match);
  }
  if (i < count) {
    BoundsBatchScalar(coords + i, count - i, cardinality, dist_if_zero,
                      dist_if_one, match_if_zero, match_if_one, dist_out + i,
                      match_out + i);
  }
}

MBI_HOT void SummaryBoundsAvx512(const uint8_t* lo, const uint8_t* hi,
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
  const __m512i size = _mm512_set1_epi32(target_size);
  size_t i = 0;
  for (; i + 64 <= count; i += 64) {
    // 16-bit sums for entries [i, i + 32) (*0) and [i + 32, i + 64) (*1).
    __m512i match0 = _mm512_setzero_si512();
    __m512i match1 = _mm512_setzero_si512();
    __m512i dist0 = _mm512_setzero_si512();
    __m512i dist1 = _mm512_setzero_si512();
    for (uint32_t j = 0; j < cardinality; ++j) {
      const __m512i r = _mm512_set1_epi8(static_cast<char>(target_counts[j]));
      const __m512i l = _mm512_loadu_si512(lo + j * stride + i);
      const __m512i h = _mm512_loadu_si512(hi + j * stride + i);
      // Same byte arithmetic as the AVX2 variant (exact for r <= 255).
      const __m512i m = _mm512_min_epu8(r, h);
      const __m512i d =
          _mm512_add_epi8(_mm512_subs_epu8(l, r), _mm512_subs_epu8(r, h));
      match0 = _mm512_add_epi16(
          match0, _mm512_cvtepu8_epi16(_mm512_castsi512_si256(m)));
      match1 = _mm512_add_epi16(
          match1, _mm512_cvtepu8_epi16(_mm512_extracti64x4_epi64(m, 1)));
      dist0 = _mm512_add_epi16(
          dist0, _mm512_cvtepu8_epi16(_mm512_castsi512_si256(d)));
      dist1 = _mm512_add_epi16(
          dist1, _mm512_cvtepu8_epi16(_mm512_extracti64x4_epi64(d, 1)));
    }
    // Widen sixteen entries at a time and take the size term's max.
    auto finish = [&](__m256i match16, __m256i dist16, size_t at) {
      const __m512i match = _mm512_cvtepu16_epi32(match16);
      const __m512i dist = _mm512_cvtepu16_epi32(dist16);
      const __m512i smallest = _mm512_cvtepu8_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(size_min + at)));
      const __m512i by_size = _mm512_sub_epi32(
          _mm512_add_epi32(size, smallest), _mm512_slli_epi32(match, 1));
      _mm512_storeu_si512(dist_out + at, _mm512_max_epi32(dist, by_size));
      _mm512_storeu_si512(match_out + at, match);
    };
    finish(_mm512_castsi512_si256(match0), _mm512_castsi512_si256(dist0), i);
    finish(_mm512_extracti64x4_epi64(match0, 1),
           _mm512_extracti64x4_epi64(dist0, 1), i + 16);
    finish(_mm512_castsi512_si256(match1), _mm512_castsi512_si256(dist1),
           i + 32);
    finish(_mm512_extracti64x4_epi64(match1, 1),
           _mm512_extracti64x4_epi64(dist1, 1), i + 48);
  }
  if (i < count) {
    SummaryBoundsScalar(lo + i, hi + i, size_min + i, stride, count - i,
                        cardinality, target_counts, target_size, dist_out + i,
                        match_out + i);
  }
}

}  // namespace mbi::kernel

#endif  // MBI_KERNEL_BUILD_AVX512
