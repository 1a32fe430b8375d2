#ifndef MBI_KERNEL_KERNELS_H_
#define MBI_KERNEL_KERNELS_H_

#include <cstddef>
#include <cstdint>

// Raw kernel entry points and the dispatch table they populate.
//
// Every kernel family has one scalar reference implementation plus a set of
// ISA variants compiled in their own translation units with per-file target
// flags (see src/kernel/CMakeLists.txt). The variants are *bit-identical* to
// the scalar path by construction — all operations are exact integer
// arithmetic — and tests/kernel_test.cc proves it exhaustively across
// alignments, tail lengths, and band splits.
//
// Everything outside src/kernel/ calls through ActiveKernels()
// (kernel/dispatch.h); raw intrinsics elsewhere are a lint error
// (tools/mbi_lint.py rule no-raw-intrinsics).

namespace mbi::kernel {

/// Instruction-set levels the dispatcher can select, narrowest first.
enum class Isa : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
  kNeon = 3,
};

/// AND+popcount-fused match kernel over a blocked candidate bitmap layout.
///
/// Computes, for each of `count` candidates, the popcount of
/// `target_row & candidate_row` over `words` 64-bit words. Candidate row i
/// starts at `rows + row_index * stride_words`, where row_index is `ids[i]`
/// when `ids` is non-null (gather form, with software prefetch of upcoming
/// rows) and `i` itself when `ids` is null (streaming form). Pointers need
/// not be aligned (the production layout is 64-byte aligned; tests probe
/// unaligned bases on purpose). `words` may be anything >= 0, including
/// ragged tails shorter than one vector block.
using MatchRowsFn = void (*)(const uint64_t* target_row, const uint64_t* rows,
                             size_t stride_words, size_t words,
                             const uint32_t* ids, size_t count,
                             uint32_t* match_out);

/// Per-entry optimistic-bound kernel, vectorized across table entries.
///
/// For each of `count` supercoordinates, sums the per-signature D/M
/// contribution tables selected by the coordinate's activation bits
/// (paper §4.1; core/bounds.h documents the table contents):
///
///   dist_out[i]  = sum_j (coords[i] >> j & 1 ? dist_if_one[j]
///                                            : dist_if_zero[j])
///   match_out[i] = sum_j (coords[i] >> j & 1 ? match_if_one[j]
///                                            : match_if_zero[j])
///
/// for j in [0, cardinality). Exact int32 arithmetic in every variant.
using BoundsBatchFn = void (*)(const uint32_t* coords, size_t count,
                               uint32_t cardinality,
                               const int32_t* dist_if_zero,
                               const int32_t* dist_if_one,
                               const int32_t* match_if_zero,
                               const int32_t* match_if_one, int32_t* dist_out,
                               int32_t* match_out);

/// Saturation value of a per-entry count summary byte (core/bounds.h): an
/// upper count stored at the cap means "unbounded above"; lower counts and
/// row sizes clamp down to it.
inline constexpr uint8_t kSummaryCap = 255;

/// Per-entry summary bound kernel, vectorized across table entries.
///
/// Entry i's summary holds, per signature j, the range [lo_j, hi_j] of
/// |X ∩ S_j| over the entry's rows X (SoA: lo[j * stride + i] and
/// hi[j * stride + i]) and its smallest row size size_min[i]; hi_j ==
/// kSummaryCap means unbounded above. With r_j = target_counts[j] (never
/// clamped) and |T| = target_size:
///
///   match_out[i] = sum_j min(r_j, hi_j)
///   dist_out[i]  = max(sum_j [max(0, lo_j - r_j) + max(0, r_j - hi_j)],
///                      |T| + size_min[i] - 2 * match_out[i])
///
/// for j in [0, cardinality). Exact int32 arithmetic in every variant: the
/// vector variants work in bytes (saturating subtract, min) accumulated in
/// 16-bit lanes, which is exact whenever every r_j <= kSummaryCap (each
/// signature adds at most 255 to either sum); a call with a larger r_j runs
/// the scalar variant.
using SummaryBoundsFn = void (*)(const uint8_t* lo, const uint8_t* hi,
                                 const uint8_t* size_min, size_t stride,
                                 size_t count, uint32_t cardinality,
                                 const int32_t* target_counts,
                                 int32_t target_size, int32_t* dist_out,
                                 int32_t* match_out);

/// True when every r_j fits the vector summary kernels' byte arithmetic.
inline bool SummaryCountsFitBytes(const int32_t* target_counts,
                                  uint32_t cardinality) {
  for (uint32_t j = 0; j < cardinality; ++j) {
    if (target_counts[j] > kSummaryCap) return false;
  }
  return true;
}

/// One resolved kernel family.
struct KernelOps {
  Isa isa = Isa::kScalar;
  const char* name = "scalar";
  MatchRowsFn match_rows = nullptr;
  BoundsBatchFn bounds_batch = nullptr;
  SummaryBoundsFn summary_bounds = nullptr;
};

// Which ISA variants this build contains (compile-time capability; runtime
// support is probed separately in dispatch.cc). The x86 variants compile on
// any x86-64 toolchain regardless of the host CPU — their TUs carry their
// own -m flags — so CI can compile-test them everywhere.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MBI_KERNEL_BUILD_AVX2 1
#define MBI_KERNEL_BUILD_AVX512 1
#else
#define MBI_KERNEL_BUILD_AVX2 0
#define MBI_KERNEL_BUILD_AVX512 0
#endif
#if defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
#define MBI_KERNEL_BUILD_NEON 1
#else
#define MBI_KERNEL_BUILD_NEON 0
#endif

void MatchRowsScalar(const uint64_t* target_row, const uint64_t* rows,
                     size_t stride_words, size_t words, const uint32_t* ids,
                     size_t count, uint32_t* match_out);
void BoundsBatchScalar(const uint32_t* coords, size_t count,
                       uint32_t cardinality, const int32_t* dist_if_zero,
                       const int32_t* dist_if_one, const int32_t* match_if_zero,
                       const int32_t* match_if_one, int32_t* dist_out,
                       int32_t* match_out);
void SummaryBoundsScalar(const uint8_t* lo, const uint8_t* hi,
                         const uint8_t* size_min, size_t stride, size_t count,
                         uint32_t cardinality, const int32_t* target_counts,
                         int32_t target_size, int32_t* dist_out,
                         int32_t* match_out);

#if MBI_KERNEL_BUILD_AVX2
void MatchRowsAvx2(const uint64_t* target_row, const uint64_t* rows,
                   size_t stride_words, size_t words, const uint32_t* ids,
                   size_t count, uint32_t* match_out);
void BoundsBatchAvx2(const uint32_t* coords, size_t count,
                     uint32_t cardinality, const int32_t* dist_if_zero,
                     const int32_t* dist_if_one, const int32_t* match_if_zero,
                     const int32_t* match_if_one, int32_t* dist_out,
                     int32_t* match_out);
void SummaryBoundsAvx2(const uint8_t* lo, const uint8_t* hi,
                       const uint8_t* size_min, size_t stride, size_t count,
                       uint32_t cardinality, const int32_t* target_counts,
                       int32_t target_size, int32_t* dist_out,
                       int32_t* match_out);
#endif

#if MBI_KERNEL_BUILD_AVX512
void MatchRowsAvx512(const uint64_t* target_row, const uint64_t* rows,
                     size_t stride_words, size_t words, const uint32_t* ids,
                     size_t count, uint32_t* match_out);
void BoundsBatchAvx512(const uint32_t* coords, size_t count,
                       uint32_t cardinality, const int32_t* dist_if_zero,
                       const int32_t* dist_if_one, const int32_t* match_if_zero,
                       const int32_t* match_if_one, int32_t* dist_out,
                       int32_t* match_out);
void SummaryBoundsAvx512(const uint8_t* lo, const uint8_t* hi,
                         const uint8_t* size_min, size_t stride, size_t count,
                         uint32_t cardinality, const int32_t* target_counts,
                         int32_t target_size, int32_t* dist_out,
                         int32_t* match_out);
#endif

#if MBI_KERNEL_BUILD_NEON
void MatchRowsNeon(const uint64_t* target_row, const uint64_t* rows,
                   size_t stride_words, size_t words, const uint32_t* ids,
                   size_t count, uint32_t* match_out);
void BoundsBatchNeon(const uint32_t* coords, size_t count,
                     uint32_t cardinality, const int32_t* dist_if_zero,
                     const int32_t* dist_if_one, const int32_t* match_if_zero,
                     const int32_t* match_if_one, int32_t* dist_out,
                     int32_t* match_out);
void SummaryBoundsNeon(const uint8_t* lo, const uint8_t* hi,
                       const uint8_t* size_min, size_t stride, size_t count,
                       uint32_t cardinality, const int32_t* target_counts,
                       int32_t target_size, int32_t* dist_out,
                       int32_t* match_out);
#endif

}  // namespace mbi::kernel

#endif  // MBI_KERNEL_KERNELS_H_
