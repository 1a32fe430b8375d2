// Exhaustive scalar-vs-SIMD kernel equivalence suite.
//
// The dispatch contract (kernel/dispatch.h) is that every ISA variant is
// bit-identical to the scalar reference — dispatch may only change speed,
// never results. This suite proves it at three levels:
//
//   1. raw kernels: match/popcount, bounds and summary-bound batches across
//      all compiled ISAs, all word counts 0..19 (0..3 full vector blocks
//      plus every ragged tail), entry counts around every lane width,
//      misaligned base pointers, gather and streaming forms, random
//      full-range coordinates, and summary bytes and target counts on both
//      sides of the byte cap;
//   2. layout plumbing: ItemBandMap / BlockedLayout construction and the
//      PackedTarget batch entry points against the per-candidate probe and
//      the merge scan, across universe sizes and band splits;
//   3. whole queries: FindKNearest under every forced ISA against the
//      frozen FindKNearestReference, plus the zero-allocation steady state
//      through the batch path.
//
// Every test restores the dispatcher with ResetIsaForTesting so a forced
// ISA can never leak into other tests (MBI_FORCE_ISA sweeps in CI rely on
// the env-resolved default being re-installable).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/branch_and_bound.h"
#include "core/bounds.h"
#include "core/index_builder.h"
#include "core/query_context.h"
#include "gen/quest_generator.h"
#include "kernel/aligned_buffer.h"
#include "kernel/blocked_layout.h"
#include "kernel/dispatch.h"
#include "kernel/kernels.h"
#include "reference_knn.h"
#include "txn/candidate_layout.h"
#include "txn/packed_target.h"
#include "util/alloc_guard.h"

namespace mbi {
namespace {

using kernel::Isa;

constexpr Isa kAllIsas[] = {Isa::kScalar, Isa::kAvx2, Isa::kAvx512,
                           Isa::kNeon};

/// Restores cpuid/env-resolved dispatch on scope exit, so forced ISAs never
/// leak across tests.
struct IsaGuard {
  ~IsaGuard() { kernel::ResetIsaForTesting(); }
};

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> isas;
  for (Isa isa : kAllIsas) {
    if (kernel::KernelsFor(isa) != nullptr) isas.push_back(isa);
  }
  return isas;
}

TEST(DispatchTest, ParseIsaName) {
  Isa isa = Isa::kNeon;
  EXPECT_TRUE(kernel::ParseIsaName("scalar", &isa));
  EXPECT_EQ(isa, Isa::kScalar);
  EXPECT_TRUE(kernel::ParseIsaName("AVX2", &isa));
  EXPECT_EQ(isa, Isa::kAvx2);
  EXPECT_TRUE(kernel::ParseIsaName("avx512", &isa));
  EXPECT_EQ(isa, Isa::kAvx512);
  EXPECT_TRUE(kernel::ParseIsaName("Neon", &isa));
  EXPECT_EQ(isa, Isa::kNeon);
  EXPECT_FALSE(kernel::ParseIsaName("sse9", &isa));
  EXPECT_FALSE(kernel::ParseIsaName("", &isa));
  EXPECT_FALSE(kernel::ParseIsaName(nullptr, &isa));
  for (Isa i : kAllIsas) {
    Isa round_trip;
    ASSERT_TRUE(kernel::ParseIsaName(kernel::IsaName(i), &round_trip));
    EXPECT_EQ(round_trip, i);
  }
}

TEST(DispatchTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(kernel::IsaSupported(Isa::kScalar));
  ASSERT_NE(kernel::KernelsFor(Isa::kScalar), nullptr);
  EXPECT_EQ(kernel::KernelsFor(Isa::kScalar)->isa, Isa::kScalar);
}

TEST(DispatchTest, ForceIsaClampsToSupported) {
  IsaGuard guard;
  for (Isa requested : kAllIsas) {
    const Isa installed = kernel::ForceIsa(requested);
    EXPECT_TRUE(kernel::IsaSupported(installed)) << kernel::IsaName(requested);
    EXPECT_EQ(kernel::ActiveIsa(), installed);
    if (kernel::IsaSupported(requested)) {
      EXPECT_EQ(installed, requested);
    } else {
      // Unsupported requests clamp to the widest supported path.
      EXPECT_EQ(installed, kernel::WidestSupportedIsa());
    }
  }
}

TEST(DispatchTest, EnvOverrideHonoredOnReset) {
  IsaGuard guard;
  ASSERT_EQ(setenv("MBI_FORCE_ISA", "scalar", /*overwrite=*/1), 0);
  kernel::ResetIsaForTesting();
  EXPECT_EQ(kernel::ActiveIsa(), Isa::kScalar);
  ASSERT_EQ(setenv("MBI_FORCE_ISA", "not-an-isa", 1), 0);
  kernel::ResetIsaForTesting();  // Unknown value falls back to cpuid.
  EXPECT_EQ(kernel::ActiveIsa(), kernel::WidestSupportedIsa());
  ASSERT_EQ(unsetenv("MBI_FORCE_ISA"), 0);
  kernel::ResetIsaForTesting();
  EXPECT_EQ(kernel::ActiveIsa(), kernel::WidestSupportedIsa());
}

// ---------------------------------------------------------------------------
// Raw match kernel equivalence.
// ---------------------------------------------------------------------------

TEST(MatchKernelTest, AllIsasMatchScalarAcrossShapes) {
  std::mt19937_64 rng(20260808);
  // 0..19 words spans 0..3 full AVX2 blocks (4 words), 0..2 AVX-512 blocks
  // (8 words), and every ragged tail in between.
  for (size_t words = 0; words <= 19; ++words) {
    for (size_t count : {size_t{0}, size_t{1}, size_t{3}, size_t{8},
                         size_t{17}}) {
      const size_t stride = words + (words % 3);  // Rows wider than read.
      // Over-allocate so misaligned views stay in bounds.
      std::vector<uint64_t> pool(stride * count + words + 8);
      for (uint64_t& w : pool) w = rng();
      std::vector<uint64_t> target(words + 4);
      for (uint64_t& w : target) w = rng();

      std::vector<uint32_t> ids(count);
      std::iota(ids.begin(), ids.end(), 0u);
      std::shuffle(ids.begin(), ids.end(), rng);

      for (size_t offset : {size_t{0}, size_t{1}, size_t{2}, size_t{3}}) {
        const uint64_t* rows = pool.data() + offset;
        const uint64_t* target_row = target.data() + offset % 2;
        std::vector<uint32_t> expected(count, 0xdeadbeef);
        kernel::MatchRowsScalar(target_row, rows, stride, words,
                                /*ids=*/nullptr, count, expected.data());
        std::vector<uint32_t> expected_gather(count, 0xdeadbeef);
        kernel::MatchRowsScalar(target_row, rows, stride, words, ids.data(),
                                count, expected_gather.data());
        for (Isa isa : SupportedIsas()) {
          const kernel::KernelOps* ops = kernel::KernelsFor(isa);
          std::vector<uint32_t> got(count, 0xfeedface);
          ops->match_rows(target_row, rows, stride, words, /*ids=*/nullptr,
                          count, got.data());
          EXPECT_EQ(got, expected)
              << kernel::IsaName(isa) << " streaming words=" << words
              << " count=" << count << " offset=" << offset;
          std::vector<uint32_t> got_gather(count, 0xfeedface);
          ops->match_rows(target_row, rows, stride, words, ids.data(), count,
                          got_gather.data());
          EXPECT_EQ(got_gather, expected_gather)
              << kernel::IsaName(isa) << " gather words=" << words
              << " count=" << count << " offset=" << offset;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Raw bounds kernel equivalence.
// ---------------------------------------------------------------------------

TEST(BoundsKernelTest, AllIsasMatchScalarAcrossCardinalities) {
  std::mt19937_64 rng(4242);
  std::uniform_int_distribution<int32_t> table_value(0, 500);
  for (uint32_t cardinality = 0; cardinality <= 31; ++cardinality) {
    std::vector<int32_t> d0(cardinality), d1(cardinality), m0(cardinality),
        m1(cardinality);
    for (uint32_t j = 0; j < cardinality; ++j) {
      d0[j] = table_value(rng);
      d1[j] = table_value(rng);
      m0[j] = table_value(rng);
      m1[j] = table_value(rng);
    }
    // Counts straddle every vector width (4/8/16 lanes) and their tails.
    for (size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{16},
                         size_t{33}, size_t{100}}) {
      std::vector<uint32_t> coords(count);
      for (uint32_t& c : coords) {
        // Full 32-bit range: bits at and above `cardinality` must be ignored.
        c = static_cast<uint32_t>(rng());
      }
      std::vector<int32_t> expected_dist(count, -1), expected_match(count, -1);
      kernel::BoundsBatchScalar(coords.data(), count, cardinality, d0.data(),
                                d1.data(), m0.data(), m1.data(),
                                expected_dist.data(), expected_match.data());
      for (Isa isa : SupportedIsas()) {
        std::vector<int32_t> dist(count, -2), match(count, -2);
        kernel::KernelsFor(isa)->bounds_batch(coords.data(), count,
                                              cardinality, d0.data(), d1.data(),
                                              m0.data(), m1.data(), dist.data(),
                                              match.data());
        EXPECT_EQ(dist, expected_dist)
            << kernel::IsaName(isa) << " K=" << cardinality << " n=" << count;
        EXPECT_EQ(match, expected_match)
            << kernel::IsaName(isa) << " K=" << cardinality << " n=" << count;
      }
    }
  }
}

TEST(BoundsKernelTest, ComputeBatchMatchesComputePerEntry) {
  IsaGuard guard;
  std::mt19937_64 rng(777);
  for (size_t k : {size_t{1}, size_t{5}, size_t{11}, size_t{20}, size_t{31}}) {
    for (int r : {1, 2, 4}) {
      std::vector<int> counts(k);
      for (int& c : counts) c = static_cast<int>(rng() % 12);
      BoundCalculator calculator(counts, r);
      std::vector<Supercoordinate> coords(257);
      for (Supercoordinate& c : coords) c = static_cast<uint32_t>(rng());
      for (Isa isa : SupportedIsas()) {
        kernel::ForceIsa(isa);
        std::vector<int32_t> match(coords.size()), dist(coords.size());
        calculator.ComputeBatch(coords.data(), coords.size(), match.data(),
                                dist.data());
        for (size_t i = 0; i < coords.size(); ++i) {
          const OptimisticBounds bounds = calculator.Compute(coords[i]);
          ASSERT_EQ(match[i], bounds.match_upper)
              << kernel::IsaName(isa) << " K=" << k << " r=" << r;
          ASSERT_EQ(dist[i], bounds.dist_lower)
              << kernel::IsaName(isa) << " K=" << k << " r=" << r;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Raw summary bound kernel equivalence.
// ---------------------------------------------------------------------------

/// Random SoA summaries for `count` entries, row stride `stride`, starting
/// `offset` bytes into each row (so vector loads run misaligned). Bytes span
/// the full range, the cap included, and lo > hi is allowed: the kernel
/// contract is bit-identity on any input, not only derived summaries.
struct RandomSummaries {
  std::vector<uint8_t> lo, hi, size_min;
  RandomSummaries(std::mt19937_64& rng, uint32_t cardinality, size_t stride) {
    lo.resize(cardinality * stride + 1);
    hi.resize(cardinality * stride + 1);
    size_min.resize(stride + 1);
    auto byte = [&rng]() {
      // Favour small counts and the cap, like real summaries.
      const uint64_t pick = rng() % 8;
      if (pick == 0) return kernel::kSummaryCap;
      return static_cast<uint8_t>(pick < 6 ? rng() % 8 : rng() % 256);
    };
    for (uint8_t& b : lo) b = byte();
    for (uint8_t& b : hi) b = byte();
    for (uint8_t& b : size_min) b = byte();
  }
};

/// Calls `fn` on the summaries for [offset, offset + count), as the engine's
/// chunked bound pass does.
void RunSummaryKernel(kernel::SummaryBoundsFn fn, const RandomSummaries& s,
                      size_t stride, size_t offset, size_t count,
                      uint32_t cardinality, const std::vector<int32_t>& r,
                      int32_t target_size, std::vector<int32_t>* dist,
                      std::vector<int32_t>* match) {
  dist->assign(count, -7);
  match->assign(count, -7);
  fn(s.lo.data() + offset, s.hi.data() + offset, s.size_min.data() + offset,
     stride, count, cardinality, r.data(), target_size, dist->data(),
     match->data());
}

TEST(SummaryKernelTest, AllIsasMatchScalarAcrossCountsTailsAndCaps) {
  std::mt19937_64 rng(9191);
  for (uint32_t cardinality : {0u, 1u, 2u, 7u, 15u, 16u, 31u}) {
    // Counts straddle every vector width (16/32/64 entries) and their tails.
    for (size_t count : {size_t{0}, size_t{1}, size_t{15}, size_t{16},
                         size_t{17}, size_t{31}, size_t{32}, size_t{33},
                         size_t{63}, size_t{64}, size_t{65}, size_t{130}}) {
      const size_t offset = rng() % 3;
      const size_t stride = count + offset + rng() % 5;
      const RandomSummaries summaries(rng, cardinality, stride);
      // Targets within the byte range (the vector path) and past it (the
      // scalar hand-off).
      for (int32_t max_count : {0, 9, 255, 700}) {
        std::vector<int32_t> r(cardinality);
        int32_t target_size = 0;
        for (int32_t& rj : r) {
          rj = static_cast<int32_t>(rng() % static_cast<uint64_t>(max_count + 1));
          target_size += rj;
        }
        std::vector<int32_t> expected_dist, expected_match;
        RunSummaryKernel(kernel::SummaryBoundsScalar, summaries, stride, offset,
                         count, cardinality, r, target_size, &expected_dist,
                         &expected_match);
        for (Isa isa : SupportedIsas()) {
          std::vector<int32_t> dist, match;
          RunSummaryKernel(kernel::KernelsFor(isa)->summary_bounds, summaries,
                           stride, offset, count, cardinality, r, target_size,
                           &dist, &match);
          EXPECT_EQ(dist, expected_dist)
              << kernel::IsaName(isa) << " K=" << cardinality
              << " n=" << count << " r<=" << max_count;
          EXPECT_EQ(match, expected_match)
              << kernel::IsaName(isa) << " K=" << cardinality
              << " n=" << count << " r<=" << max_count;
        }
      }
    }
  }
}

TEST(SummaryKernelTest, ComputeBatchMatchesComputePerEntry) {
  IsaGuard guard;
  std::mt19937_64 rng(6060);
  for (size_t k : {size_t{1}, size_t{5}, size_t{15}, size_t{31}}) {
    constexpr size_t kEntries = 301;
    const RandomSummaries data(rng, static_cast<uint32_t>(k), kEntries);
    const EntrySummaries summaries{data.lo.data(), data.hi.data(),
                                   data.size_min.data(), kEntries};
    for (int spread : {3, 40, 300}) {
      std::vector<int> counts(k);
      for (int& c : counts) c = static_cast<int>(rng() % static_cast<uint64_t>(spread));
      const BoundCalculator calculator(counts, 1);
      for (Isa isa : SupportedIsas()) {
        kernel::ForceIsa(isa);
        // Chunks of the entry range, as the parallel bound pass splits it.
        for (size_t begin = 0; begin < kEntries; begin += 97) {
          const size_t count = std::min<size_t>(97, kEntries - begin);
          std::vector<int32_t> match(count), dist(count);
          calculator.ComputeBatch(summaries, begin, count, match.data(),
                                  dist.data());
          for (size_t i = 0; i < count; ++i) {
            const OptimisticBounds bounds =
                calculator.Compute(summaries, begin + i);
            ASSERT_EQ(match[i], bounds.match_upper)
                << kernel::IsaName(isa) << " K=" << k << " e=" << begin + i;
            ASSERT_EQ(dist[i], bounds.dist_lower)
                << kernel::IsaName(isa) << " K=" << k << " e=" << begin + i;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Band map and blocked layout construction.
// ---------------------------------------------------------------------------

TEST(ItemBandMapTest, SmallUniverseIsFullyDense) {
  std::vector<uint64_t> freq(100, 1);
  const auto map = kernel::ItemBandMap::Build(freq, /*max_dense_bits=*/1024);
  EXPECT_EQ(map.universe_size(), 100u);
  EXPECT_EQ(map.dense_items(), 100u);
  EXPECT_EQ(map.dense_bits(), 128u);  // Rounded up to a word.
  EXPECT_EQ(map.dense_words(), 2u);
  for (uint32_t item = 0; item < 100; ++item) {
    EXPECT_EQ(map.DenseSlot(item), item);  // Identity mapping.
  }
}

TEST(ItemBandMapTest, WideUniverseKeepsMostFrequentItems) {
  // Item i has frequency i: the top-64 items are 936..999.
  std::vector<uint64_t> freq(1000);
  for (size_t i = 0; i < freq.size(); ++i) freq[i] = i;
  const auto map = kernel::ItemBandMap::Build(freq, /*max_dense_bits=*/100);
  EXPECT_EQ(map.dense_bits(), 64u);  // 100 rounds down to 64.
  EXPECT_EQ(map.dense_items(), 64u);
  for (uint32_t item = 0; item < 936; ++item) {
    EXPECT_EQ(map.DenseSlot(item), kernel::ItemBandMap::kNotDense);
  }
  // Chosen items get slots in ascending item-id order.
  for (uint32_t item = 936; item < 1000; ++item) {
    EXPECT_EQ(map.DenseSlot(item), item - 936);
  }
}

TEST(ItemBandMapTest, FrequencyTiesBreakTowardSmallerIds) {
  std::vector<uint64_t> freq(256, 7);  // All tied.
  const auto map = kernel::ItemBandMap::Build(freq, /*max_dense_bits=*/64);
  for (uint32_t item = 0; item < 64; ++item) {
    EXPECT_EQ(map.DenseSlot(item), item);
  }
  for (uint32_t item = 64; item < 256; ++item) {
    EXPECT_EQ(map.DenseSlot(item), kernel::ItemBandMap::kNotDense);
  }
}

TEST(ItemBandMapTest, ZeroCapacityIsAllSparse) {
  std::vector<uint64_t> freq(100, 3);
  const auto map = kernel::ItemBandMap::Build(freq, /*max_dense_bits=*/0);
  EXPECT_EQ(map.dense_bits(), 0u);
  EXPECT_EQ(map.dense_words(), 0u);
  for (uint32_t item = 0; item < 100; ++item) {
    EXPECT_EQ(map.DenseSlot(item), kernel::ItemBandMap::kNotDense);
  }
}

TEST(AlignedBufferTest, DataIs64ByteAlignedAndZeroed) {
  for (size_t words : {size_t{0}, size_t{1}, size_t{9}, size_t{1000}}) {
    kernel::AlignedWordBuffer buffer(words);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(buffer.data()) % 64, 0u);
    for (size_t w = 0; w < words; ++w) EXPECT_EQ(buffer.data()[w], 0u);
  }
}

TEST(BlockedLayoutTest, RowsAndTailsMatchNaivePacking) {
  std::mt19937_64 rng(99);
  const uint32_t universe = 500;
  std::vector<std::vector<uint32_t>> txns(64);
  std::vector<uint64_t> freq(universe, 0);
  for (auto& txn : txns) {
    const size_t len = rng() % 20;
    std::vector<bool> used(universe, false);
    for (size_t i = 0; i < len; ++i) {
      const auto item = static_cast<uint32_t>(rng() % universe);
      if (!used[item]) {
        used[item] = true;
        txn.push_back(item);
        ++freq[item];
      }
    }
    std::sort(txn.begin(), txn.end());
  }
  auto band = kernel::ItemBandMap::Build(freq, /*max_dense_bits=*/128);
  kernel::BlockedLayout::Builder builder(band, txns.size(), 0);
  for (const auto& txn : txns) builder.AddRow(txn.data(), txn.size());
  const kernel::BlockedLayout layout = std::move(builder).Build();

  ASSERT_EQ(layout.num_rows(), txns.size());
  EXPECT_EQ(layout.words_per_row(), band.dense_words());
  EXPECT_EQ(layout.stride_words() % 8, 0u);  // 64-byte row pitch.
  EXPECT_GE(layout.stride_words(), layout.words_per_row());
  for (size_t r = 0; r < txns.size(); ++r) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(layout.row(r)) % 64, 0u);
    EXPECT_EQ(layout.row_size(r), txns[r].size());
    // Rebuild the dense row + tail naively and compare.
    std::vector<uint64_t> expected_row(layout.words_per_row(), 0);
    std::vector<uint32_t> expected_tail;
    for (uint32_t item : txns[r]) {
      const uint32_t slot = band.DenseSlot(item);
      if (slot == kernel::ItemBandMap::kNotDense) {
        expected_tail.push_back(item);
      } else {
        expected_row[slot / 64] |= uint64_t{1} << (slot % 64);
      }
    }
    for (size_t w = 0; w < layout.words_per_row(); ++w) {
      EXPECT_EQ(layout.row(r)[w], expected_row[w]) << "row " << r;
    }
    const auto [tail, tail_count] = layout.tail(r);
    ASSERT_EQ(tail_count, expected_tail.size()) << "row " << r;
    EXPECT_TRUE(std::is_sorted(tail, tail + tail_count));
    for (size_t i = 0; i < tail_count; ++i) {
      EXPECT_EQ(tail[i], expected_tail[i]) << "row " << r;
    }
  }
}

// ---------------------------------------------------------------------------
// PackedTarget batch entry points vs the per-candidate probe / merge scan.
// ---------------------------------------------------------------------------

TransactionDatabase RandomDatabase(uint32_t universe, size_t size,
                                   uint64_t seed) {
  std::mt19937_64 rng(seed);
  TransactionDatabase db(universe);
  for (size_t i = 0; i < size; ++i) {
    const size_t len = 1 + rng() % 15;
    std::vector<ItemId> items;
    items.reserve(len);
    for (size_t j = 0; j < len; ++j) {
      // Zipf-ish skew: half the draws land in the first 10% of the universe.
      const bool head = (rng() & 1) != 0;
      const uint32_t span = head ? std::max(1u, universe / 10) : universe;
      items.push_back(static_cast<ItemId>(rng() % span));
    }
    db.Add(Transaction(std::move(items)));
  }
  return db;
}

TEST(PackedTargetBatchTest, BatchMatchesProbeAcrossBandSplitsAndIsas) {
  IsaGuard guard;
  for (uint32_t universe : {50u, 300u, 2000u}) {
    const TransactionDatabase db = RandomDatabase(universe, 200, universe);
    for (uint32_t max_dense_bits : {0u, 64u, 256u, 1024u}) {
      CandidateLayoutConfig config;
      config.max_dense_bits = max_dense_bits;
      const CandidateLayout layout = CandidateLayout::Build(db, config);
      ASSERT_EQ(layout.num_rows(), db.size());

      const Transaction target =
          RandomDatabase(universe, 1, universe + 17).Get(0);
      // Gather form over a shuffled id subset + streaming form over a
      // middle slice, all ISAs, against the per-candidate probe (itself
      // pinned to the merge scan by transaction_test).
      std::vector<TransactionId> ids(db.size());
      std::iota(ids.begin(), ids.end(), 0u);
      std::mt19937_64 rng(7);
      std::shuffle(ids.begin(), ids.end(), rng);
      ids.resize(db.size() / 2 + 1);

      PackedTarget probe;
      probe.Assign(target, universe);
      for (Isa isa : SupportedIsas()) {
        kernel::ForceIsa(isa);
        PackedTarget packed;
        packed.Assign(target, universe, &layout);
        ASSERT_TRUE(packed.has_layout());

        std::vector<uint32_t> match(ids.size()), hamming(ids.size());
        packed.MatchAndHammingBatch(ids.data(), ids.size(), match.data(),
                                    hamming.data());
        for (size_t i = 0; i < ids.size(); ++i) {
          size_t expected_match = 0, expected_hamming = 0;
          probe.MatchAndHamming(db.Get(ids[i]), &expected_match,
                                &expected_hamming);
          ASSERT_EQ(match[i], expected_match)
              << kernel::IsaName(isa) << " universe=" << universe
              << " dense=" << max_dense_bits << " id=" << ids[i];
          ASSERT_EQ(hamming[i], expected_hamming)
              << kernel::IsaName(isa) << " universe=" << universe
              << " dense=" << max_dense_bits << " id=" << ids[i];
        }

        const TransactionId first = static_cast<TransactionId>(db.size() / 3);
        const size_t count = db.size() / 2;
        std::vector<uint32_t> row_match(count), row_hamming(count);
        packed.MatchAndHammingRows(first, count, row_match.data(),
                                   row_hamming.data());
        for (size_t i = 0; i < count; ++i) {
          size_t expected_match = 0, expected_hamming = 0;
          probe.MatchAndHamming(db.Get(first + static_cast<TransactionId>(i)),
                                &expected_match, &expected_hamming);
          ASSERT_EQ(row_match[i], expected_match) << kernel::IsaName(isa);
          ASSERT_EQ(row_hamming[i], expected_hamming) << kernel::IsaName(isa);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-query equivalence under every forced ISA.
// ---------------------------------------------------------------------------

TEST(ForcedIsaSweepTest, FindKNearestBitIdenticalToReferenceUnderEveryIsa) {
  IsaGuard guard;
  QuestGeneratorConfig gen_config;
  gen_config.universe_size = 300;
  gen_config.num_large_itemsets = 70;
  gen_config.avg_itemset_size = 5.0;
  gen_config.avg_transaction_size = 9.0;
  gen_config.seed = 20260807;
  QuestGenerator generator(gen_config);
  const TransactionDatabase db = generator.GenerateDatabase(1200);
  IndexBuildConfig build;
  build.clustering.target_cardinality = 9;
  const SignatureTable table = BuildIndex(db, build);
  const BranchAndBoundEngine engine(&db, &table);
  const auto queries = generator.GenerateQueries(8);

  const MatchRatioFamily match_ratio;
  const InverseHammingFamily hamming;
  const CosineFamily cosine;
  const SimilarityFamily* const families[] = {&match_ratio, &hamming, &cosine};
  for (const SimilarityFamily* family : families) {
    for (const Transaction& target : queries) {
      const NearestNeighborResult reference = FindKNearestReference(
          engine.database(), engine.table(), target, *family, /*k=*/5);
      for (Isa isa : SupportedIsas()) {
        kernel::ForceIsa(isa);
        QueryContext context;
        NearestNeighborResult got;
        engine.FindKNearest(target, *family, /*k=*/5, {}, &context, &got);
        ASSERT_EQ(got.neighbors.size(), reference.neighbors.size())
            << kernel::IsaName(isa) << " " << family->name();
        for (size_t i = 0; i < got.neighbors.size(); ++i) {
          EXPECT_EQ(got.neighbors[i].id, reference.neighbors[i].id)
              << kernel::IsaName(isa) << " " << family->name();
          EXPECT_EQ(got.neighbors[i].similarity,
                    reference.neighbors[i].similarity)
              << kernel::IsaName(isa) << " " << family->name();
        }
        EXPECT_EQ(got.stats.is_exact, reference.stats.is_exact);
      }
    }
  }
}

TEST(ForcedIsaSweepTest, SteadyStateBatchPathIsAllocationFree) {
  IsaGuard guard;
  QuestGeneratorConfig gen_config;
  gen_config.universe_size = 200;
  gen_config.seed = 11;
  QuestGenerator generator(gen_config);
  const TransactionDatabase db = generator.GenerateDatabase(800);
  IndexBuildConfig build;
  build.clustering.target_cardinality = 8;
  const SignatureTable table = BuildIndex(db, build);
  const BranchAndBoundEngine engine(&db, &table);
  const MatchRatioFamily family;
  const auto queries = generator.GenerateQueries(6);

  for (Isa isa : SupportedIsas()) {
    kernel::ForceIsa(isa);
    QueryContext context;
    NearestNeighborResult result;
    // Warm-up pass grows every scratch buffer (including the new kernel
    // batch scratch), then the steady state must not allocate at all.
    for (const Transaction& target : queries) {
      engine.FindKNearest(target, family, /*k=*/4, {}, &context, &result);
    }
    {
      ScopedAllocationBan ban("kernel-batch steady-state FindKNearest");
      for (const Transaction& target : queries) {
        engine.FindKNearest(target, family, /*k=*/4, {}, &context, &result);
      }
    }
  }
}

}  // namespace
}  // namespace mbi
