// NEON kernel variants for AArch64, where Advanced SIMD is architectural
// baseline — no runtime probe needed beyond compiling for the target.

#include "kernel/kernels.h"

#if MBI_KERNEL_BUILD_NEON

#include <arm_neon.h>

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/hot_path.h"

namespace mbi::kernel {
namespace {

constexpr size_t kPrefetchAhead = 8;

}  // namespace

MBI_HOT void MatchRowsNeon(const uint64_t* target_row, const uint64_t* rows,
                           size_t stride_words, size_t words,
                           const uint32_t* ids, size_t count,
                           uint32_t* match_out) {
  for (size_t i = 0; i < count; ++i) {
    const size_t row_index = ids != nullptr ? size_t{ids[i]} : i;
    const uint64_t* row = rows + row_index * stride_words;
    if (ids != nullptr && i + kPrefetchAhead < count) {
      __builtin_prefetch(rows + size_t{ids[i + kPrefetchAhead]} * stride_words);
    }
    uint64x2_t acc = vdupq_n_u64(0);
    size_t w = 0;
    for (; w + 2 <= words; w += 2) {
      const uint64x2_t t = vld1q_u64(target_row + w);
      const uint64x2_t c = vld1q_u64(row + w);
      // vcntq_u8 counts per byte; widening pairwise adds fold the byte
      // counts up to one count per 64-bit lane.
      const uint8x16_t bytes =
          vcntq_u8(vreinterpretq_u8_u64(vandq_u64(t, c)));
      acc = vaddq_u64(acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(bytes))));
    }
    uint64_t sum = vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
    for (; w < words; ++w) {
      sum += static_cast<uint64_t>(std::popcount(target_row[w] & row[w]));
    }
    match_out[i] = static_cast<uint32_t>(sum);
  }
}

MBI_HOT void BoundsBatchNeon(const uint32_t* coords, size_t count,
                             uint32_t cardinality, const int32_t* dist_if_zero,
                             const int32_t* dist_if_one,
                             const int32_t* match_if_zero,
                             const int32_t* match_if_one, int32_t* dist_out,
                             int32_t* match_out) {
  const uint32x4_t one = vdupq_n_u32(1);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    uint32x4_t c = vld1q_u32(coords + i);
    int32x4_t dist = vdupq_n_s32(0);
    int32x4_t match = vdupq_n_s32(0);
    // Shift right by one each round so the tested bit is always bit 0.
    for (uint32_t j = 0; j < cardinality; ++j) {
      const uint32x4_t bit_set = vtstq_u32(c, one);
      const int32x4_t d = vbslq_s32(bit_set, vdupq_n_s32(dist_if_one[j]),
                                    vdupq_n_s32(dist_if_zero[j]));
      const int32x4_t m = vbslq_s32(bit_set, vdupq_n_s32(match_if_one[j]),
                                    vdupq_n_s32(match_if_zero[j]));
      dist = vaddq_s32(dist, d);
      match = vaddq_s32(match, m);
      c = vshrq_n_u32(c, 1);
    }
    vst1q_s32(dist_out + i, dist);
    vst1q_s32(match_out + i, match);
  }
  if (i < count) {
    BoundsBatchScalar(coords + i, count - i, cardinality, dist_if_zero,
                      dist_if_one, match_if_zero, match_if_one, dist_out + i,
                      match_out + i);
  }
}

MBI_HOT void SummaryBoundsNeon(const uint8_t* lo, const uint8_t* hi,
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
  const int32x4_t size = vdupq_n_s32(target_size);
  size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    // 16-bit sums for entries [i, i + 8) (*0) and [i + 8, i + 16) (*1).
    uint16x8_t match0 = vdupq_n_u16(0);
    uint16x8_t match1 = vdupq_n_u16(0);
    uint16x8_t dist0 = vdupq_n_u16(0);
    uint16x8_t dist1 = vdupq_n_u16(0);
    for (uint32_t j = 0; j < cardinality; ++j) {
      const uint8x16_t r = vdupq_n_u8(static_cast<uint8_t>(target_counts[j]));
      const uint8x16_t l = vld1q_u8(lo + j * stride + i);
      const uint8x16_t h = vld1q_u8(hi + j * stride + i);
      // Same byte arithmetic as the AVX2 variant (exact for r <= 255).
      const uint8x16_t m = vminq_u8(r, h);
      const uint8x16_t d = vaddq_u8(vqsubq_u8(l, r), vqsubq_u8(r, h));
      match0 = vaddw_u8(match0, vget_low_u8(m));
      match1 = vaddw_high_u8(match1, m);
      dist0 = vaddw_u8(dist0, vget_low_u8(d));
      dist1 = vaddw_high_u8(dist1, d);
    }
    // Widen four entries at a time and take the size term's max.
    const uint8x16_t smallest8 = vld1q_u8(size_min + i);
    const uint16x8_t smallest0 = vmovl_u8(vget_low_u8(smallest8));
    const uint16x8_t smallest1 = vmovl_high_u8(smallest8);
    auto finish = [&](uint16x4_t match16, uint16x4_t dist16,
                      uint16x4_t smallest16, size_t at) {
      const int32x4_t match = vreinterpretq_s32_u32(vmovl_u16(match16));
      const int32x4_t dist = vreinterpretq_s32_u32(vmovl_u16(dist16));
      const int32x4_t smallest = vreinterpretq_s32_u32(vmovl_u16(smallest16));
      const int32x4_t by_size =
          vsubq_s32(vaddq_s32(size, smallest), vshlq_n_s32(match, 1));
      vst1q_s32(dist_out + at, vmaxq_s32(dist, by_size));
      vst1q_s32(match_out + at, match);
    };
    finish(vget_low_u16(match0), vget_low_u16(dist0), vget_low_u16(smallest0),
           i);
    finish(vget_high_u16(match0), vget_high_u16(dist0),
           vget_high_u16(smallest0), i + 4);
    finish(vget_low_u16(match1), vget_low_u16(dist1), vget_low_u16(smallest1),
           i + 8);
    finish(vget_high_u16(match1), vget_high_u16(dist1),
           vget_high_u16(smallest1), i + 12);
  }
  if (i < count) {
    SummaryBoundsScalar(lo + i, hi + i, size_min + i, stride, count - i,
                        cardinality, target_counts, target_size, dist_out + i,
                        match_out + i);
  }
}

}  // namespace mbi::kernel

#endif  // MBI_KERNEL_BUILD_NEON
