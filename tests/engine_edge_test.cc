#include <gtest/gtest.h>

#include <cmath>

#include "baseline/sequential_scan.h"
#include "core/branch_and_bound.h"
#include "core/index_builder.h"
#include "core/query_context.h"
#include "gen/quest_generator.h"

namespace mbi {
namespace {

/// Edge cases of the query engine that the main suites do not reach:
/// degenerate targets, degenerate databases, duplicate-heavy data, and the
/// interplay between the approximation knobs.

SignatureTable BuildOver(const TransactionDatabase& db, uint32_t k,
                         int r = 1) {
  IndexBuildConfig build;
  build.clustering.target_cardinality = k;
  build.table.activation_threshold = r;
  return BuildIndex(db, build);
}

TEST(EngineEdgeTest, EmptyTargetIsAnswered) {
  // An empty basket matches nothing; under inverse Hamming its nearest
  // neighbour is simply the smallest transaction.
  QuestGeneratorConfig config;
  config.universe_size = 100;
  config.num_large_itemsets = 20;
  config.seed = 1201;
  QuestGenerator generator(config);
  TransactionDatabase db = generator.GenerateDatabase(500);
  SignatureTable table = BuildOver(db, 6);
  BranchAndBoundEngine engine(&db, &table);
  SequentialScanner scanner(&db);
  InverseHammingFamily family;

  Transaction empty;
  auto result = engine.FindKNearest(empty, family, 1);
  auto oracle = scanner.FindKNearest(empty, family, 1);
  EXPECT_TRUE(result.stats.is_exact);
  EXPECT_EQ(result.neighbors[0].similarity, oracle[0].similarity);
}

TEST(EngineEdgeTest, TargetCoveringTheWholeUniverse) {
  TransactionDatabase db(16);
  for (ItemId i = 0; i < 16; ++i) db.Add(Transaction({i}));
  SignaturePartition partition(
      4, {0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3});
  SignatureTable table = SignatureTable::Build(db, partition, {});
  BranchAndBoundEngine engine(&db, &table);
  MatchRatioFamily family;

  std::vector<ItemId> all;
  for (ItemId i = 0; i < 16; ++i) all.push_back(i);
  auto result = engine.FindKNearest(Transaction(all), family, 1);
  EXPECT_TRUE(result.stats.is_exact);
  // Every row shares exactly 1 item, differs in 15: similarity 1/15,
  // smallest id wins the tie.
  EXPECT_EQ(result.neighbors[0].id, 0u);
  EXPECT_DOUBLE_EQ(result.neighbors[0].similarity, 1.0 / 15.0);
}

TEST(EngineEdgeTest, SingleTransactionDatabase) {
  TransactionDatabase db(10);
  db.Add(Transaction({1, 2, 3}));
  SignaturePartition partition(2, {0, 0, 0, 0, 0, 1, 1, 1, 1, 1});
  SignatureTable table = SignatureTable::Build(db, partition, {});
  BranchAndBoundEngine engine(&db, &table);
  CosineFamily family;
  auto result = engine.FindKNearest(Transaction({1, 2, 3}), family, 5);
  ASSERT_EQ(result.neighbors.size(), 1u);
  EXPECT_EQ(result.neighbors[0].id, 0u);
  EXPECT_DOUBLE_EQ(result.neighbors[0].similarity, 1.0);
  EXPECT_TRUE(result.stats.is_exact);
}

TEST(EngineEdgeTest, AllIdenticalTransactions) {
  TransactionDatabase db(10);
  for (int i = 0; i < 50; ++i) db.Add(Transaction({2, 4, 6}));
  SignaturePartition partition(2, {0, 0, 0, 0, 0, 1, 1, 1, 1, 1});
  SignatureTable table = SignatureTable::Build(db, partition, {});
  EXPECT_EQ(table.entries().size(), 1u);
  BranchAndBoundEngine engine(&db, &table);
  InverseHammingFamily family;
  auto result = engine.FindKNearest(Transaction({2, 4, 6}), family, 3);
  ASSERT_EQ(result.neighbors.size(), 3u);
  // Identical rows: +inf similarity, ids in ascending order.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::isinf(result.neighbors[i].similarity));
    EXPECT_EQ(result.neighbors[i].id, i);
  }
}

TEST(EngineEdgeTest, GapAndTerminationCompose) {
  QuestGeneratorConfig config;
  config.universe_size = 250;
  config.num_large_itemsets = 60;
  config.seed = 1213;
  QuestGenerator generator(config);
  TransactionDatabase db = generator.GenerateDatabase(3000);
  SignatureTable table = BuildOver(db, 10);
  BranchAndBoundEngine engine(&db, &table);
  SequentialScanner scanner(&db);
  MatchRatioFamily family;

  SearchOptions options;
  options.optimality_gap = 0.25;
  options.max_access_fraction = 0.05;
  for (int q = 0; q < 6; ++q) {
    Transaction target = generator.NextTransaction();
    auto result = engine.FindKNearest(target, family, 1, options);
    auto oracle = scanner.FindKNearest(target, family, 1);
    // The uniform quality bound must hold with both knobs active.
    EXPECT_GE(std::max(result.neighbors[0].similarity,
                       result.stats.certificate_bound),
              oracle[0].similarity);
    EXPECT_LE(result.stats.transactions_evaluated, db.size());
  }
}

TEST(EngineEdgeTest, RangeQueryWithImpossibleThresholdScansNothing) {
  QuestGeneratorConfig config;
  config.universe_size = 200;
  config.num_large_itemsets = 40;
  config.seed = 1217;
  QuestGenerator generator(config);
  TransactionDatabase db = generator.GenerateDatabase(1000);
  SignatureTable table = BuildOver(db, 8);
  BranchAndBoundEngine engine(&db, &table);
  CosineFamily family;
  // Cosine can never exceed 1.
  auto result = engine.FindInRange(generator.NextTransaction(), family, 1.5);
  EXPECT_TRUE(result.matches.empty());
  EXPECT_TRUE(result.stats.is_exact);
  EXPECT_EQ(result.stats.entries_scanned, 0u);
  EXPECT_EQ(result.stats.entries_pruned, result.stats.entries_total);
}

TEST(EngineEdgeTest, RangeQueryWithMinusInfinityThresholdReturnsEverything) {
  QuestGeneratorConfig config;
  config.universe_size = 150;
  config.num_large_itemsets = 30;
  config.seed = 1223;
  QuestGenerator generator(config);
  TransactionDatabase db = generator.GenerateDatabase(400);
  SignatureTable table = BuildOver(db, 6);
  BranchAndBoundEngine engine(&db, &table);
  MatchRatioFamily family;
  auto result = engine.FindInRange(generator.NextTransaction(), family, 0.0);
  EXPECT_EQ(result.matches.size(), db.size());
}

TEST(EngineEdgeTest, HigherActivationThresholdStillExact) {
  // r = 3 with small transactions collapses most coordinates to zero — the
  // degenerate-but-legal regime must stay exact (just with weak pruning).
  QuestGeneratorConfig config;
  config.universe_size = 200;
  config.num_large_itemsets = 40;
  config.avg_transaction_size = 5.0;
  config.seed = 1229;
  QuestGenerator generator(config);
  TransactionDatabase db = generator.GenerateDatabase(800);
  SignatureTable table = BuildOver(db, 8, /*r=*/3);
  BranchAndBoundEngine engine(&db, &table);
  SequentialScanner scanner(&db);
  InverseHammingFamily family;
  for (int q = 0; q < 5; ++q) {
    Transaction target = generator.NextTransaction();
    auto result = engine.FindKNearest(target, family, 1);
    auto oracle = scanner.FindKNearest(target, family, 1);
    EXPECT_TRUE(result.stats.is_exact);
    bool both_inf = std::isinf(result.neighbors[0].similarity) &&
                    std::isinf(oracle[0].similarity);
    EXPECT_TRUE(both_inf ||
                result.neighbors[0].similarity == oracle[0].similarity);
  }
}

TEST(EngineEdgeTest, MultiTargetWithIdenticalTargets) {
  // Averaging n copies of the same target must equal the single-target
  // result.
  QuestGeneratorConfig config;
  config.universe_size = 200;
  config.num_large_itemsets = 40;
  config.seed = 1231;
  QuestGenerator generator(config);
  TransactionDatabase db = generator.GenerateDatabase(600);
  SignatureTable table = BuildOver(db, 8);
  BranchAndBoundEngine engine(&db, &table);
  MatchRatioFamily family;

  Transaction target = generator.NextTransaction();
  auto single = engine.FindKNearest(target, family, 3);
  const std::vector<Transaction> targets = {target, target, target};
  QueryContext context;
  NearestNeighborResult multi;
  engine.FindKNearestMultiTarget(targets, family, 3, {}, &context, &multi);
  ASSERT_EQ(single.neighbors.size(), multi.neighbors.size());
  for (size_t i = 0; i < single.neighbors.size(); ++i) {
    EXPECT_EQ(single.neighbors[i].id, multi.neighbors[i].id);
    EXPECT_DOUBLE_EQ(single.neighbors[i].similarity,
                     multi.neighbors[i].similarity);
  }
}

}  // namespace
}  // namespace mbi
