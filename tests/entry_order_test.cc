// OrderByKeyDescending and OrderByBoundCell (core/entry_order.h) against
// their specification: std::stable_sort of the indices by key descending.
// Each case is an adversarial key array for the counting sort — one rank for
// everything, infinities, signed zeros, NaNs, more distinct keys than the
// hash table starts with, distinct cells of equal value, grids of every
// shape, a single entry — and one scratch is reused across the cases of a
// test, so a stale count, slot or grid cell from an earlier call would
// surface as a mismatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/entry_order.h"
#include "core/similarity.h"
#include "util/alloc_guard.h"

namespace mbi {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<uint32_t> StableSortedByKeyDescending(
    const std::vector<double>& keys) {
  std::vector<uint32_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(
      order.begin(), order.end(),
      [&keys](uint32_t a, uint32_t b) { return keys[a] > keys[b]; });
  return order;
}

class EntryOrderTest : public ::testing::Test {
 protected:
  void ExpectStableOrder(const std::vector<double>& keys,
                         const std::string& label) {
    OrderByKeyDescending(keys.data(), keys.size(), &scratch_, &order_);
    EXPECT_EQ(order_, StableSortedByKeyDescending(keys)) << label;
  }

  EntryOrderScratch scratch_;
  std::vector<uint32_t> order_;
};

TEST_F(EntryOrderTest, AllKeysEqualKeepIndexOrder) {
  ExpectStableOrder(std::vector<double>(5000, 0.25), "all 0.25");
  ExpectStableOrder(std::vector<double>(300, kInf), "all +inf");
}

TEST_F(EntryOrderTest, InfinityMixedWithFiniteKeys) {
  std::vector<double> keys;
  for (int i = 0; i < 2000; ++i) {
    keys.push_back(i % 3 == 0 ? kInf : 1.0 / static_cast<double>(1 + i % 11));
  }
  ExpectStableOrder(keys, "+inf and 1/h");
  keys.push_back(-kInf);
  keys.insert(keys.begin(), -kInf);
  ExpectStableOrder(keys, "+inf, -inf and 1/h");
}

TEST_F(EntryOrderTest, SignedZerosShareOneRank) {
  std::vector<double> keys;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back(i % 2 == 0 ? 0.0 : -0.0);
    if (i % 7 == 0) keys.push_back(0.5);
    if (i % 13 == 0) keys.push_back(-0.5);
  }
  ExpectStableOrder(keys, "0.0 / -0.0 interleaved");
}

TEST_F(EntryOrderTest, MoreDistinctKeysThanTheTableStartsWith) {
  // Every key distinct, shuffled, well past the initial table size, then a
  // run where each of many values repeats so the table grows mid-pass
  // after ids already carry counts.
  std::mt19937_64 rng(17);
  std::vector<double> keys(20000);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<double>(i) / 7.0;
  }
  std::shuffle(keys.begin(), keys.end(), rng);
  ExpectStableOrder(keys, "20000 distinct");

  std::vector<double> repeated(30000);
  for (double& key : repeated) key = static_cast<double>(rng() % 6000) / 3.0;
  ExpectStableOrder(repeated, "6000 distinct, repeated");
}

TEST_F(EntryOrderTest, SingleAndNoEntries) {
  ExpectStableOrder({0.75}, "one entry");
  ExpectStableOrder({-0.0}, "one negative zero");
  ExpectStableOrder({}, "no entries");
}

TEST_F(EntryOrderTest, ReusedScratchMatchesAcrossShapes) {
  // Large, then small, then large again through one scratch, with the
  // bounded value sets the engine's keys have (f over small integers).
  std::mt19937_64 rng(3);
  for (size_t n : {12000u, 7u, 900u, 15000u, 1u, 4096u}) {
    std::vector<double> keys(n);
    for (double& key : keys) {
      const int match = static_cast<int>(rng() % 12);
      const int dist = static_cast<int>(rng() % 20);
      key = dist == 0 ? kInf
                      : static_cast<double>(match) / static_cast<double>(dist);
    }
    ExpectStableOrder(keys, "n=" + std::to_string(n));
  }
}

TEST_F(EntryOrderTest, WarmScratchDoesNotAllocateForMoreDistinctKeys) {
  // Warm on keys with two values, then order as many keys that are all
  // distinct: the table must grow within what the first call reserved.
  std::vector<double> few(20000);
  std::vector<double> all_distinct(few.size());
  for (size_t i = 0; i < few.size(); ++i) {
    few[i] = static_cast<double>(i % 2);
    all_distinct[i] = static_cast<double>(i) / 3.0;
  }
  ExpectStableOrder(few, "two values");
  const uint64_t before = AllocGuardViolations();
  {
    ScopedAllocationBan ban("warm entry-order scratch");
    OrderByKeyDescending(all_distinct.data(), all_distinct.size(), &scratch_,
                         &order_);
  }
  EXPECT_EQ(AllocGuardViolations(), before)
      << "AllocGuardEnabled()=" << AllocGuardEnabled();
  EXPECT_EQ(order_, StableSortedByKeyDescending(all_distinct));
}

TEST_F(EntryOrderTest, CutoffLeavesOutKeysAtOrBelowIt) {
  // The order with a cutoff is the full order with the keys at or below the
  // cutoff removed; they are counted and their largest reported.
  std::mt19937_64 rng(29);
  std::vector<double> keys(5000);
  for (size_t i = 0; i < keys.size(); ++i) {
    const int match = static_cast<int>(rng() % 9);
    const int dist = static_cast<int>(rng() % 12);
    keys[i] = dist == 0 ? kInf
                        : static_cast<double>(match) / static_cast<double>(dist);
    if (i % 97 == 0) keys[i] = -0.0;
    if (i % 211 == 0) keys[i] = -kInf;
  }
  const std::vector<uint32_t> full = StableSortedByKeyDescending(keys);
  for (double cutoff : {-1.0, 0.0, 0.25, 1.0, 8.0, kInf}) {
    std::vector<uint32_t> expected;
    KeysLeftOut expected_left_out;
    for (uint32_t i : full) {
      if (keys[i] > cutoff) {
        expected.push_back(i);
      } else {
        ++expected_left_out.count;
        expected_left_out.max = std::max(expected_left_out.max, keys[i]);
      }
    }
    const KeysLeftOut left_out = OrderByKeyDescending(
        keys.data(), keys.size(), &scratch_, &order_, cutoff);
    EXPECT_EQ(order_, expected) << "cutoff " << cutoff;
    EXPECT_EQ(left_out.count, expected_left_out.count) << "cutoff " << cutoff;
    EXPECT_EQ(left_out.max, expected_left_out.max) << "cutoff " << cutoff;
  }
  // The default cutoff (-inf) leaves nothing out, -inf keys included.
  const KeysLeftOut none =
      OrderByKeyDescending(keys.data(), keys.size(), &scratch_, &order_);
  EXPECT_EQ(none.count, 0u);
  EXPECT_EQ(none.max, -kInf);
  EXPECT_EQ(order_, full);
}

// --- OrderByBoundCell ------------------------------------------------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Descending with NaN last: the order the engine visits keys in, and a
/// strict weak order std::stable_sort accepts even with NaN keys.
bool KeyRanksBefore(double a, double b) {
  return a > b || (std::isnan(b) && !std::isnan(a));
}

TEST_F(EntryOrderTest, NaNKeysRankLastAsOneGroup) {
  // Hashed keys (the multi-target mean) rank NaN the way the cells do: after
  // every other key, in index order, and never left out.
  std::vector<double> keys;
  for (int i = 0; i < 3000; ++i) {
    keys.push_back(i % 5 == 0 ? kNaN : static_cast<double>(i % 4) / 2.0);
  }
  std::vector<uint32_t> expected(keys.size());
  std::iota(expected.begin(), expected.end(), 0u);
  std::stable_sort(expected.begin(), expected.end(),
                   [&keys](uint32_t a, uint32_t b) {
                     return KeyRanksBefore(keys[a], keys[b]);
                   });
  OrderByKeyDescending(keys.data(), keys.size(), &scratch_, &order_);
  EXPECT_EQ(order_, expected);
  const KeysLeftOut left_out =
      OrderByKeyDescending(keys.data(), keys.size(), &scratch_, &order_, kInf);
  const auto nans = static_cast<std::ptrdiff_t>(keys.size() / 5);
  EXPECT_EQ(left_out.count, keys.size() - keys.size() / 5);
  EXPECT_EQ(order_, std::vector<uint32_t>(expected.end() - nans, expected.end()));
}

struct Cells {
  std::vector<int32_t> match;
  std::vector<int32_t> dist;
};

/// The specification of the cell order, written out per entry: f on every
/// entry's (M', D'), then a stable sort by that key descending, NaN last,
/// and the keys at or below the cutoff (never a NaN) left out.
struct CellOrder {
  std::vector<uint32_t> order;
  KeysLeftOut left_out;
};
CellOrder ExpectedCellOrder(const Cells& cells, const SimilarityFunction& f,
                            double cutoff) {
  const size_t n = cells.match.size();
  std::vector<double> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = f.Evaluate(cells.match[i], cells.dist[i]);
  std::vector<uint32_t> all(n);
  std::iota(all.begin(), all.end(), 0u);
  std::stable_sort(all.begin(), all.end(), [&keys](uint32_t a, uint32_t b) {
    return KeyRanksBefore(keys[a], keys[b]);
  });
  CellOrder expected;
  for (uint32_t i : all) {
    if (cutoff > -kInf && keys[i] <= cutoff) {
      ++expected.left_out.count;
      expected.left_out.max = std::max(expected.left_out.max, keys[i]);
    } else {
      expected.order.push_back(i);
    }
  }
  return expected;
}

bool SameKey(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

/// f(x, y) = 1/y-like values with every hazard the order must rank right:
/// distinct cells of one value (the ratio is rounded to quarters), -0.0
/// next to 0.0, +inf at y = 0, and NaN wherever x is 1 (which no built-in
/// family produces, so it ranks last).
double Hazards(int x, int y) {
  if (x == 1) return kNaN;
  if (y == 0) return kInf;
  if (x == 0) return y % 2 == 0 ? -0.0 : 0.0;
  return std::floor(4.0 * x / y) / 4.0;
}

class CellOrderTest : public ::testing::Test {
 protected:
  void ExpectCellOrder(const Cells& cells, const SimilarityFunction& f,
                       double cutoff, const std::string& label) {
    const size_t n = cells.match.size();
    const KeysLeftOut left_out =
        OrderByBoundCell(cells.match.data(), cells.dist.data(), n, f,
                         &scratch_, &order_, cutoff);
    const CellOrder expected = ExpectedCellOrder(cells, f, cutoff);
    EXPECT_EQ(order_, expected.order) << label;
    EXPECT_EQ(left_out.count, expected.left_out.count) << label;
    EXPECT_TRUE(SameKey(left_out.max, expected.left_out.max)) << label;
    // Every entry's bound reads back from its cell, -0.0 as 0.0.
    for (size_t i = 0; i < n; ++i) {
      const double key = f.Evaluate(cells.match[i], cells.dist[i]);
      ASSERT_TRUE(SameKey(scratch_.Key(i), key)) << label << " entry " << i;
      ASSERT_FALSE(std::signbit(scratch_.Key(i)) && scratch_.Key(i) == 0.0)
          << label << " entry " << i;
    }
  }

  static Cells RandomCells(size_t n, int max_match, int max_dist,
                           uint64_t seed) {
    std::mt19937_64 rng(seed);
    Cells cells;
    for (size_t i = 0; i < n; ++i) {
      cells.match.push_back(
          static_cast<int32_t>(rng() % static_cast<uint64_t>(max_match + 1)));
      cells.dist.push_back(
          static_cast<int32_t>(rng() % static_cast<uint64_t>(max_dist + 1)));
    }
    return cells;
  }

  EntryOrderScratch scratch_;
  std::vector<uint32_t> order_;
};

TEST_F(CellOrderTest, EqualValuedDistinctCellsShareOneTieGroup) {
  // match_ratio on (k, k) is 1 for every k, (k, 2k) is 0.5: many cells, two
  // values, interleaved so index order must survive across cells.
  MatchRatioSimilarity ratio;
  Cells cells;
  for (int i = 0; i < 3000; ++i) {
    const int k = 1 + i % 7;
    cells.match.push_back(k);
    cells.dist.push_back(i % 3 == 0 ? 2 * k : k);
  }
  ExpectCellOrder(cells, ratio, -kInf, "ratio ties");
  ExpectCellOrder(cells, ratio, 0.5, "ratio ties, cutoff 0.5");
}

TEST_F(CellOrderTest, SignedZerosInfinityAndNaNCells) {
  CustomSimilarity hazards("hazards", Hazards);
  const Cells cells = RandomCells(5000, 9, 14, 41);
  ExpectCellOrder(cells, hazards, -kInf, "hazards");
  ExpectCellOrder(cells, hazards, 0.0, "hazards, cutoff 0");
  ExpectCellOrder(cells, hazards, kInf, "hazards, cutoff +inf");
}

TEST_F(CellOrderTest, CutoffEqualToACellValueLeavesThatCellOut) {
  // The cutoff is inclusive: the cells whose value is exactly the cutoff go
  // with the left-out keys, and the largest left-out key is the cutoff.
  InverseHammingSimilarity hamming;
  const Cells cells = RandomCells(4000, 10, 12, 43);
  for (const int y : {1, 2, 4, 12}) {
    const double cutoff = 1.0 / y;
    ExpectCellOrder(cells, hamming, cutoff, "cutoff 1/" + std::to_string(y));
    EXPECT_EQ(OrderByBoundCell(cells.match.data(), cells.dist.data(),
                               cells.match.size(), hamming, &scratch_,
                               &order_, cutoff)
                  .max,
              cutoff);
  }
}

TEST_F(CellOrderTest, EveryEntryLeftOut) {
  JaccardSimilarity jaccard;
  const Cells cells = RandomCells(2000, 8, 9, 47);
  ExpectCellOrder(cells, jaccard, 1.0, "jaccard <= 1");
  EXPECT_TRUE(order_.empty());
  ExpectCellOrder(cells, jaccard, kInf, "cutoff +inf");
  EXPECT_TRUE(order_.empty());
}

TEST_F(CellOrderTest, NoEntriesAndOneEntry) {
  MatchRatioSimilarity ratio;
  ExpectCellOrder(Cells{}, ratio, -kInf, "no entries");
  ExpectCellOrder(Cells{}, ratio, 0.5, "no entries, cutoff");
  ExpectCellOrder(Cells{{3}, {4}}, ratio, -kInf, "one entry");
  ExpectCellOrder(Cells{{3}, {4}}, ratio, 0.75, "one entry left out");
  ExpectCellOrder(Cells{{3}, {4}}, ratio, 0.7, "one entry kept");
}

TEST_F(CellOrderTest, CustomFamilyFunction) {
  // A query-time function from a CustomFamily, bound the way the engine
  // binds it.
  CustomFamily family("quarter_ratio", [](int x, int y) {
    return y == 0 ? kInf : std::floor(4.0 * x / y) / 4.0;
  });
  const std::unique_ptr<SimilarityFunction> f = family.ForTarget(Transaction());
  const Cells cells = RandomCells(6000, 12, 30, 53);
  ExpectCellOrder(cells, *f, -kInf, "custom");
  ExpectCellOrder(cells, *f, 0.25, "custom, cutoff 0.25");
}

TEST_F(CellOrderTest, ReusedScratchMatchesAcrossGridShapes) {
  // Tall, wide, offset and single-cell grids through one scratch, including
  // D' far beyond |T| + 255 (rows that are all large) and a grid with more
  // cells than entries, then a small grid again: a cell left set by an
  // earlier grid would misfile an entry.
  CustomSimilarity hazards("hazards", Hazards);
  MatchRatioSimilarity ratio;
  struct Shape {
    size_t n;
    int max_match;
    int max_dist;
    int32_t dist_offset;
  };
  for (const Shape shape : {Shape{12000, 30, 60, 0}, Shape{7, 3, 2, 0},
                            Shape{900, 2, 5000, 300}, Shape{15000, 200, 3, 7},
                            Shape{1, 0, 0, 0}, Shape{4096, 0, 0, 5},
                            Shape{50, 40, 900, 1000}, Shape{3000, 9, 14, 0}}) {
    Cells cells = RandomCells(shape.n, shape.max_match, shape.max_dist,
                              shape.n + 7);
    for (int32_t& d : cells.dist) d += shape.dist_offset;
    const std::string label = "n=" + std::to_string(shape.n) + " grid " +
                              std::to_string(shape.max_match + 1) + "x" +
                              std::to_string(shape.max_dist + 1);
    ExpectCellOrder(cells, hazards, -kInf, label + " hazards");
    ExpectCellOrder(cells, ratio, 0.5, label + " ratio, cutoff 0.5");
  }
}

TEST_F(CellOrderTest, WarmScratchDoesNotAllocateForAnotherGrid) {
  // Warm on one grid, then order as many entries over a differently shaped
  // grid with more occupied cells (still no more cells than entries).
  MatchRatioSimilarity ratio;
  const Cells warm = RandomCells(20000, 3, 4, 59);
  const Cells other = RandomCells(20000, 60, 300, 61);
  ExpectCellOrder(warm, ratio, -kInf, "warm-up");
  const uint64_t before = AllocGuardViolations();
  {
    ScopedAllocationBan ban("warm cell-order scratch");
    OrderByBoundCell(other.match.data(), other.dist.data(), other.match.size(),
                     ratio, &scratch_, &order_);
    OrderByBoundCell(other.match.data(), other.dist.data(), other.match.size(),
                     ratio, &scratch_, &order_, 0.5);
  }
  EXPECT_EQ(AllocGuardViolations(), before)
      << "AllocGuardEnabled()=" << AllocGuardEnabled();
  EXPECT_EQ(order_, ExpectedCellOrder(other, ratio, 0.5).order);
}

TEST_F(CellOrderTest, AssignBoundCellsThenKeysAreTheBounds) {
  // The multi-target path reads each target's cells through Key(i) and
  // sums them; the sum must equal the per-entry evaluation exactly.
  CosineSimilarity cosine(11);
  InverseHammingSimilarity hamming;
  const Cells a = RandomCells(3000, 11, 25, 67);
  const Cells b = RandomCells(3000, 11, 25, 71);
  std::vector<double> sum(a.match.size(), 0.0);
  AssignBoundCells(a.match.data(), a.dist.data(), a.match.size(), cosine,
                   &scratch_);
  for (size_t i = 0; i < sum.size(); ++i) sum[i] += scratch_.Key(i);
  AssignBoundCells(b.match.data(), b.dist.data(), b.match.size(), hamming,
                   &scratch_);
  for (size_t i = 0; i < sum.size(); ++i) sum[i] += scratch_.Key(i);
  for (size_t i = 0; i < sum.size(); ++i) {
    double expected = 0.0;
    expected += cosine.Evaluate(a.match[i], a.dist[i]);
    expected += hamming.Evaluate(b.match[i], b.dist[i]);
    ASSERT_EQ(sum[i] / 2.0, expected / 2.0) << "entry " << i;
  }
}

}  // namespace
}  // namespace mbi
