#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/bounds.h"
#include "core/signature_partition.h"
#include "core/signature_table.h"
#include "core/similarity.h"
#include "core/supercoordinate.h"
#include "kernel/dispatch.h"
#include "kernel/kernels.h"
#include "txn/database.h"

namespace mbi {
namespace {

/// Exhaustive verification of the paper's §4.1 bound formulas on a small
/// universe: enumerating *every* possible transaction T ⊆ U, grouping them
/// by supercoordinate, the formulas must be
///
///  * admissible — M_opt >= matches and D_opt <= hamming for every member
///    of the coordinate's feasible set, and
///  * individually tight — some member attains the match bound and some
///    member attains the distance bound (they need not be the same member).
///
/// Tightness matters: it shows the bounds are the strongest possible given
/// only the activation bits, i.e. the index extracts all the information the
/// supercoordinate carries.

class BoundTightnessTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BoundTightnessTest, BoundsAreAdmissibleAndIndividuallyTight) {
  auto [activation_threshold, target_index] = GetParam();

  // Universe of 9 items in 3 signatures of 3.
  constexpr uint32_t kUniverse = 9;
  SignaturePartition partition(3, {0, 0, 0, 1, 1, 1, 2, 2, 2});

  // A few representative targets.
  const std::vector<Transaction> targets = {
      Transaction({0, 1, 3}),          // Spread over S0, S1.
      Transaction({0, 1, 2}),          // All of S0.
      Transaction({8}),                // Single item in S2.
      Transaction({0, 3, 6}),          // One per signature.
      Transaction({0, 1, 2, 3, 4, 5, 6, 7, 8}),  // Everything.
      Transaction{},                   // Empty basket.
  };
  const Transaction& target = targets[static_cast<size_t>(target_index)];

  BoundCalculator calc(partition.CountsPerSignature(target),
                       activation_threshold);

  // Enumerate the full feasible set: all 2^9 subsets.
  struct Extremes {
    int max_match = -1;
    int min_dist = INT32_MAX;
  };
  std::map<Supercoordinate, Extremes> by_coordinate;
  for (uint32_t mask = 0; mask < (1u << kUniverse); ++mask) {
    std::vector<ItemId> items;
    for (uint32_t bit = 0; bit < kUniverse; ++bit) {
      if (mask & (1u << bit)) items.push_back(bit);
    }
    Transaction candidate(std::move(items));
    Supercoordinate coordinate =
        ComputeSupercoordinate(candidate, partition, activation_threshold);
    size_t match = 0, hamming = 0;
    MatchAndHamming(target, candidate, &match, &hamming);
    Extremes& extremes = by_coordinate[coordinate];
    extremes.max_match =
        std::max(extremes.max_match, static_cast<int>(match));
    extremes.min_dist = std::min(extremes.min_dist, static_cast<int>(hamming));
  }

  for (const auto& [coordinate, extremes] : by_coordinate) {
    OptimisticBounds bounds = calc.Compute(coordinate);
    // Admissible over the whole feasible set.
    EXPECT_GE(bounds.match_upper, extremes.max_match)
        << "coordinate " << SupercoordinateToString(coordinate, 3);
    EXPECT_LE(bounds.dist_lower, extremes.min_dist)
        << "coordinate " << SupercoordinateToString(coordinate, 3);
    // Individually tight: attained by some feasible transaction.
    EXPECT_EQ(bounds.match_upper, extremes.max_match)
        << "match bound not tight for coordinate "
        << SupercoordinateToString(coordinate, 3);
    EXPECT_EQ(bounds.dist_lower, extremes.min_dist)
        << "distance bound not tight for coordinate "
        << SupercoordinateToString(coordinate, 3);
  }

  // Sanity: at r = 1 the all-zero coordinate is exactly the empty basket;
  // at r > 1 it also holds sparse baskets.
  ASSERT_TRUE(by_coordinate.count(0));
}

INSTANTIATE_TEST_SUITE_P(
    ThresholdsAndTargets, BoundTightnessTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(0, 1, 2, 3, 4, 5)));

// ---------------------------------------------------------------------------
// The count-summary bound (core/bounds.h): M' and D' from each entry's
// per-signature count ranges and smallest row size.
// ---------------------------------------------------------------------------

/// The paper's three functions, Jaccard, and a custom admissible function
/// (increasing in matches, decreasing in distance over all integers).
std::vector<std::unique_ptr<SimilarityFamily>> AllFamilies() {
  std::vector<std::unique_ptr<SimilarityFamily>> families;
  for (const char* name : {"hamming", "match_ratio", "cosine", "jaccard"}) {
    families.push_back(MakeSimilarityFamily(name));
  }
  families.push_back(std::make_unique<CustomFamily>(
      "two_matches_minus_distance",
      [](int matches, int hamming) { return 2.0 * matches - hamming; }));
  return families;
}

/// Every subset of a `universe`-item universe, as transactions.
std::vector<Transaction> AllSubsets(uint32_t universe) {
  std::vector<Transaction> subsets;
  for (uint32_t mask = 0; mask < (1u << universe); ++mask) {
    std::vector<ItemId> items;
    for (uint32_t bit = 0; bit < universe; ++bit) {
      if (mask & (1u << bit)) items.push_back(bit);
    }
    subsets.emplace_back(std::move(items));
  }
  return subsets;
}

/// Checks one entry's summary bound against every target and every row of
/// the entry: no looser than the paper's bound for the entry's coordinate,
/// and f(M', D') >= f(x, y) for every row and every family. Also checks the
/// SIMD batch form against the scalar per-entry form.
void ExpectSoundAndNoLooser(const SignatureTable& table,
                            const std::vector<Transaction>& rows,
                            const std::vector<Transaction>& targets,
                            const std::string& label) {
  ASSERT_EQ(table.entries().size(), 1u) << label;
  const Supercoordinate coordinate = table.entries()[0].coordinate;
  const EntrySummaries summaries = table.summaries();
  const auto families = AllFamilies();
  for (const Transaction& target : targets) {
    const BoundCalculator calc(table.partition().CountsPerSignature(target),
                               table.activation_threshold());
    const OptimisticBounds paper = calc.Compute(coordinate);
    const OptimisticBounds tight = calc.Compute(summaries, 0);
    int32_t batch_match = -1;
    int32_t batch_dist = -1;
    calc.ComputeBatch(summaries, 0, 1, &batch_match, &batch_dist);
    ASSERT_EQ(batch_match, tight.match_upper) << label;
    ASSERT_EQ(batch_dist, tight.dist_lower) << label;
    ASSERT_LE(tight.match_upper, paper.match_upper) << label;
    ASSERT_GE(tight.dist_lower, paper.dist_lower) << label;
    for (const Transaction& row : rows) {
      size_t match = 0, hamming = 0;
      MatchAndHamming(target, row, &match, &hamming);
      ASSERT_GE(tight.match_upper, static_cast<int>(match)) << label;
      ASSERT_LE(tight.dist_lower, static_cast<int>(hamming)) << label;
    }
    for (const auto& family : families) {
      const auto f = family->ForTarget(target);
      const double bound = f->Evaluate(tight.match_upper, tight.dist_lower);
      ASSERT_LE(bound, f->Evaluate(paper.match_upper, paper.dist_lower))
          << label << " " << family->name();
      for (const Transaction& row : rows) {
        size_t match = 0, hamming = 0;
        MatchAndHamming(target, row, &match, &hamming);
        ASSERT_GE(bound, f->Evaluate(static_cast<int>(match),
                                     static_cast<int>(hamming)))
            << label << " " << family->name();
      }
    }
  }
}

/// Exhaustive over a small universe: every target T ⊆ U, and every
/// nonempty set of rows sharing a supercoordinate — every entry a table can
/// hold — built into a one-entry table so the summaries come from the
/// table's own derivation.
class SummaryBoundTest
    : public ::testing::TestWithParam<
          std::tuple<int, std::vector<uint32_t>>> {};

TEST_P(SummaryBoundTest, SoundForEveryRowAndNoLooserThanThePaperBound) {
  const auto& [r, signature_of_item] = GetParam();
  const uint32_t universe = static_cast<uint32_t>(signature_of_item.size());
  uint32_t cardinality = 0;
  for (uint32_t s : signature_of_item) cardinality = std::max(cardinality, s + 1);
  const SignaturePartition partition(cardinality, signature_of_item);
  const std::vector<Transaction> everything = AllSubsets(universe);

  std::map<Supercoordinate, std::vector<Transaction>> rows_of;
  for (const Transaction& row : everything) {
    rows_of[ComputeSupercoordinate(row, partition, r)].push_back(row);
  }
  SignatureTableConfig config;
  config.activation_threshold = r;
  size_t entries_checked = 0;
  for (const auto& [coordinate, candidates] : rows_of) {
    ASSERT_LE(candidates.size(), 12u) << "keep the subset sweep small";
    for (uint32_t mask = 1; mask < (1u << candidates.size()); ++mask) {
      TransactionDatabase db(universe);
      std::vector<Transaction> rows;
      for (size_t i = 0; i < candidates.size(); ++i) {
        if (mask & (1u << i)) {
          rows.push_back(candidates[i]);
          db.Add(candidates[i]);
        }
      }
      const SignatureTable table = SignatureTable::Build(db, partition, config);
      ExpectSoundAndNoLooser(
          table, rows, everything,
          "r=" + std::to_string(r) + " coordinate " +
              SupercoordinateToString(coordinate, cardinality) + " rows " +
              std::to_string(mask));
      if (HasFatalFailure()) return;
      ++entries_checked;
    }
  }
  EXPECT_GT(entries_checked, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    SmallUniverses, SummaryBoundTest,
    ::testing::Values(
        // r = 1: signatures of 2, 2 and 1 items (at most 9 rows per entry).
        std::tuple<int, std::vector<uint32_t>>{1, {0, 0, 1, 1, 2}},
        // r = 2: signatures of 2 and 3 items (at most 12 rows per entry).
        std::tuple<int, std::vector<uint32_t>>{2, {0, 0, 1, 1, 1}}));

/// With the paper's bit-derived ranges — [r, cap) for b_j = 1, [0, r - 1]
/// for b_j = 0 — and s_min = 0, the summary bound is exactly the paper's.
TEST(SummaryBoundEdgeTest, BitDerivedRangesReduceToThePaperBound) {
  constexpr uint32_t kCardinality = 4;
  const SignaturePartition partition(kCardinality,
                                     {0, 0, 0, 1, 1, 2, 2, 2, 2, 3});
  for (int r : {1, 2, 3}) {
    for (const Transaction& target : AllSubsets(10)) {
      const BoundCalculator calc(partition.CountsPerSignature(target), r);
      for (Supercoordinate c = 0; c < (1u << kCardinality); ++c) {
        std::vector<uint8_t> lo(kCardinality), hi(kCardinality);
        for (uint32_t j = 0; j < kCardinality; ++j) {
          const bool active = (c >> j) & 1u;
          lo[j] = active ? static_cast<uint8_t>(r) : 0;
          hi[j] = active ? kernel::kSummaryCap : static_cast<uint8_t>(r - 1);
        }
        const uint8_t size_min = 0;
        const EntrySummaries bits{lo.data(), hi.data(), &size_min, 1};
        const OptimisticBounds paper = calc.Compute(c);
        const OptimisticBounds summary = calc.Compute(bits, 0);
        ASSERT_EQ(summary.match_upper, paper.match_upper);
        ASSERT_EQ(summary.dist_lower, paper.dist_lower);
      }
    }
  }
}

/// Targets and rows past the byte cap: r_j is never clamped, a row count at
/// the cap makes hi read as unbounded, and lo and s_min clamp down — the
/// bound stays sound, no looser than the paper's, and identical in every
/// ISA (the vector kernels hand such targets to the scalar one).
TEST(SummaryBoundEdgeTest, CountsPastTheByteCapStaySound) {
  // S0 = items [0, 300), S1 = items [300, 600).
  std::vector<uint32_t> signature_of_item(600, 0);
  std::fill(signature_of_item.begin() + 300, signature_of_item.end(), 1u);
  const SignaturePartition partition(2, signature_of_item);
  auto row = [](uint32_t s0_first, uint32_t s0_count, uint32_t s1_count) {
    std::vector<ItemId> items;
    for (uint32_t i = 0; i < s0_count; ++i) items.push_back(s0_first + i);
    for (uint32_t i = 0; i < s1_count; ++i) items.push_back(300 + i);
    return Transaction(std::move(items));
  };
  // All rows activate both signatures, so they share one entry at r = 1.
  const std::vector<Transaction> candidates = {
      row(0, 1, 1),    row(0, 254, 2),  row(40, 255, 3), row(0, 256, 1),
      row(10, 290, 4), row(299, 1, 270), row(0, 100, 260),
  };
  const std::vector<Transaction> targets = {
      row(0, 280, 2),   // r_0 = 280 > cap.
      row(20, 260, 290),  // Both past the cap.
      row(0, 3, 1),     // Small target.
      row(0, 255, 255),  // Exactly at the cap.
  };
  kernel::Isa isas[] = {kernel::Isa::kScalar, kernel::Isa::kAvx2,
                        kernel::Isa::kAvx512, kernel::Isa::kNeon};
  for (uint32_t mask = 1; mask < (1u << candidates.size()); ++mask) {
    TransactionDatabase db(600);
    std::vector<Transaction> rows;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (mask & (1u << i)) {
        rows.push_back(candidates[i]);
        db.Add(candidates[i]);
      }
    }
    const SignatureTable table = SignatureTable::Build(db, partition, {});
    for (kernel::Isa isa : isas) {
      if (kernel::KernelsFor(isa) == nullptr) continue;
      kernel::ForceIsa(isa);
      ExpectSoundAndNoLooser(table, rows, targets,
                             std::string("rows ") + std::to_string(mask) +
                                 " isa " + kernel::IsaName(isa));
      if (HasFatalFailure()) break;
    }
    kernel::ResetIsaForTesting();
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace mbi
