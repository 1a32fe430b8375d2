#include "core/bounds.h"

#include <gtest/gtest.h>

#include "core/clustering.h"
#include "core/signature_table.h"
#include "core/supercoordinate.h"
#include "gen/quest_generator.h"
#include "kernel/kernels.h"
#include "mining/support_counter.h"

namespace mbi {
namespace {

// --- Supercoordinate mechanics (the paper's §3 worked example) ---

TEST(SupercoordinateTest, PaperSection3Example) {
  // Items {1..20} partitioned into P = {1,2,4,6,8,11,18},
  // Q = {3,5,7,9,10,16,20}, R = {12,13,14,15,17,19}; transaction
  // T = {2,6,17,20} activates P, Q, R at r = 1 and only P at r = 2.
  std::vector<uint32_t> signature_of_item(21, 0);  // Index 0 unused.
  for (ItemId i : {1u, 2u, 4u, 6u, 8u, 11u, 18u}) signature_of_item[i] = 0;
  for (ItemId i : {3u, 5u, 7u, 9u, 10u, 16u, 20u}) signature_of_item[i] = 1;
  for (ItemId i : {12u, 13u, 14u, 15u, 17u, 19u}) signature_of_item[i] = 2;
  SignaturePartition partition(3, signature_of_item);

  Transaction t({2, 6, 17, 20});
  EXPECT_EQ(ComputeSupercoordinate(t, partition, 1), 0b111u);
  EXPECT_EQ(ComputeSupercoordinate(t, partition, 2), 0b001u);
  EXPECT_EQ(ComputeSupercoordinate(t, partition, 3), 0u);
}

TEST(SupercoordinateTest, FromCountsMatchesDirectComputation) {
  SignaturePartition partition(4, {0, 1, 2, 3, 0, 1, 2, 3});
  Transaction t({0, 4, 5, 3});
  auto counts = partition.CountsPerSignature(t);
  for (int r = 1; r <= 3; ++r) {
    EXPECT_EQ(SupercoordinateFromCounts(counts, r),
              ComputeSupercoordinate(t, partition, r));
  }
}

TEST(SupercoordinateTest, HelperFunctions) {
  EXPECT_EQ(ActivatedCount(0b1011u), 3);
  EXPECT_EQ(SupercoordinateToString(0b101u, 4), "1010");
  int match = 0, hamming = 0;
  SupercoordinateMatchAndHamming(0b1100u, 0b1010u, &match, &hamming);
  EXPECT_EQ(match, 1);    // Bit 3.
  EXPECT_EQ(hamming, 2);  // Bits 1 and 2.
}

// --- BoundCalculator formulas (paper §4.1) ---

TEST(BoundCalculatorTest, HandComputedExample) {
  // K = 3, r = 2, target counts r_j = {3, 1, 0}.
  BoundCalculator calc({3, 1, 0}, 2);

  // Entry 0b000: D = max(0,3-1) + max(0,1-1) + max(0,0-1) = 2;
  //              M = min(1,3) + min(1,1) + min(1,0) = 2.
  OptimisticBounds b000 = calc.Compute(0b000);
  EXPECT_EQ(b000.dist_lower, 2);
  EXPECT_EQ(b000.match_upper, 2);

  // Entry 0b111: D = max(0,2-3) + max(0,2-1) + max(0,2-0) = 3;
  //              M = 3 + 1 + 0 = 4.
  OptimisticBounds b111 = calc.Compute(0b111);
  EXPECT_EQ(b111.dist_lower, 3);
  EXPECT_EQ(b111.match_upper, 4);

  // Entry 0b001 (only S0 active): D = 0 (S0: r_0=3>=r) + 0 (S1: r_1-r+1=0)
  //              + 0 (S2: max(0, 0-2+1)) = 0; M = 3 + 1 + 0 = 4.
  OptimisticBounds b001 = calc.Compute(0b001);
  EXPECT_EQ(b001.dist_lower, 0);
  EXPECT_EQ(b001.match_upper, 4);
}

TEST(BoundCalculatorTest, ActivationThresholdOneZeroBitGivesZeroMatches) {
  // With r = 1, a 0 bit means the entry's transactions share no item of that
  // signature with anyone: min(r-1, r_j) = 0 matches contributed.
  BoundCalculator calc({4, 2}, 1);
  OptimisticBounds bounds = calc.Compute(0b00);
  EXPECT_EQ(bounds.match_upper, 0);
  EXPECT_EQ(bounds.dist_lower, 4 + 2);
}

TEST(BoundCalculatorTest, SummaryBoundHandComputedExample) {
  // Target counts r = (3, 1, 0), so |T| = 4. One entry whose rows hold
  // 1..2 items of S0, any number of S1 (hi at the cap) and exactly 2 of S2,
  // and at least 6 items in all.
  BoundCalculator calc({3, 1, 0}, 2);
  const std::vector<uint8_t> lo = {1, 0, 2};
  const std::vector<uint8_t> hi = {2, kernel::kSummaryCap, 2};
  const std::vector<uint8_t> size_min = {6};
  const EntrySummaries summaries{lo.data(), hi.data(), size_min.data(), 1};
  const OptimisticBounds bounds = calc.Compute(summaries, 0);
  // M' = min(3, 2) + 1 + min(0, 2).
  EXPECT_EQ(bounds.match_upper, 3);
  // Per signature: (3 - 2) + 0 + (2 - 0) = 3; by size: 4 + 6 - 2 * 3 = 4.
  EXPECT_EQ(bounds.dist_lower, 4);
  int32_t match = -1;
  int32_t dist = -1;
  calc.ComputeBatch(summaries, 0, 1, &match, &dist);
  EXPECT_EQ(match, 3);
  EXPECT_EQ(dist, 4);
}

// --- The central invariant: admissibility. For every entry and every
// transaction indexed by it, M_opt >= x and D_opt <= y, hence
// f(M_opt, D_opt) >= f(x, y) for every admissible f (Lemma 2.1). Swept over
// activation thresholds and similarity families on generated data. ---

class BoundAdmissibilityTest
    : public ::testing::TestWithParam<std::tuple<int, const char*>> {};

TEST_P(BoundAdmissibilityTest, OptimisticBoundsDominateEveryIndexedTransaction) {
  auto [activation_threshold, family_name] = GetParam();

  QuestGeneratorConfig config;
  config.universe_size = 250;
  config.num_large_itemsets = 60;
  config.avg_itemset_size = 5.0;
  config.avg_transaction_size = 9.0;
  config.seed = 23;
  QuestGenerator generator(config);
  TransactionDatabase db = generator.GenerateDatabase(1500);
  SupportCounter supports(db);
  ClusteringConfig clustering;
  clustering.target_cardinality = 8;
  SignaturePartition partition =
      BuildSignaturesSingleLinkage(supports, clustering);

  SignatureTableConfig table_config;
  table_config.activation_threshold = activation_threshold;
  SignatureTable table = SignatureTable::Build(db, partition, table_config);

  auto family = MakeSimilarityFamily(family_name);
  auto queries = generator.GenerateQueries(10);

  for (const Transaction& target : queries) {
    BoundCalculator calc(table.partition().CountsPerSignature(target),
                         activation_threshold);
    auto function = family->ForTarget(target);
    for (size_t e = 0; e < table.entries().size(); ++e) {
      OptimisticBounds bounds = calc.Compute(table.entries()[e].coordinate);
      double optimistic =
          function->Evaluate(bounds.match_upper, bounds.dist_lower);
      IoStats io;
      for (TransactionId id : table.FetchEntryTransactions(e, &io)) {
        size_t x = 0, y = 0;
        MatchAndHamming(target, db.Get(id), &x, &y);
        ASSERT_GE(bounds.match_upper, static_cast<int>(x))
            << "match bound violated for entry " << e << " tx " << id;
        ASSERT_LE(bounds.dist_lower, static_cast<int>(y))
            << "distance bound violated for entry " << e << " tx " << id;
        double actual = function->Evaluate(static_cast<int>(x),
                                           static_cast<int>(y));
        ASSERT_GE(optimistic, actual)
            << family_name << " bound not optimistic for entry " << e
            << " tx " << id;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThresholdsAndFamilies, BoundAdmissibilityTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values("hamming", "match_ratio", "cosine")));

}  // namespace
}  // namespace mbi
