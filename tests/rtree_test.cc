#include "baseline/rtree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/sequential_scan.h"
#include "core/index_builder.h"
#include "gen/quest_generator.h"
#include "util/bitset.h"

namespace mbi {
namespace {

// --- Bitset ---

TEST(BitsetTest, SetGetClearCount) {
  Bitset bits(130);
  EXPECT_EQ(bits.Count(), 0u);
  bits.Set(0);
  bits.Set(64);
  bits.Set(129);
  EXPECT_TRUE(bits.Get(0));
  EXPECT_TRUE(bits.Get(64));
  EXPECT_TRUE(bits.Get(129));
  EXPECT_FALSE(bits.Get(1));
  EXPECT_EQ(bits.Count(), 3u);
  bits.Clear(64);
  EXPECT_FALSE(bits.Get(64));
  EXPECT_EQ(bits.Count(), 2u);
}

TEST(BitsetTest, SetAllRespectsSize) {
  Bitset bits(70);
  bits.SetAll();
  EXPECT_EQ(bits.Count(), 70u);
  bits.ClearAll();
  EXPECT_EQ(bits.Count(), 0u);
}

TEST(BitsetTest, BooleanCountOperations) {
  Bitset a(100), b(100);
  for (size_t i = 0; i < 100; i += 2) a.Set(i);   // Evens.
  for (size_t i = 0; i < 100; i += 3) b.Set(i);   // Multiples of 3.
  EXPECT_EQ(Bitset::AndCount(a, b), 17u);     // Multiples of 6 in [0,100).
  EXPECT_EQ(Bitset::AndNotCount(a, b), 33u);  // Evens not multiples of 3.
  EXPECT_EQ(Bitset::XorCount(a, b), 50u - 17u + 34u - 17u);
  a |= b;
  EXPECT_EQ(a.Count(), 50u + 34u - 17u);
}

TEST(BitsetTest, SizeMismatchAborts) {
  Bitset a(10), b(11);
  EXPECT_DEATH(Bitset::AndCount(a, b), "");
}

// --- BinaryRTree ---

QuestGeneratorConfig GeneratorConfig(uint64_t seed = 801,
                                     uint32_t universe = 200) {
  QuestGeneratorConfig config;
  config.universe_size = universe;
  config.num_large_itemsets = 50;
  config.avg_itemset_size = 5.0;
  config.avg_transaction_size = 8.0;
  config.seed = seed;
  return config;
}

TEST(BinaryRTreeTest, ExactNearestNeighborMatchesScan) {
  QuestGenerator generator(GeneratorConfig());
  TransactionDatabase db = generator.GenerateDatabase(1500);
  BinaryRTree tree(&db, RTreeConfig{});
  SequentialScanner scanner(&db);
  InverseHammingFamily family;

  for (int q = 0; q < 10; ++q) {
    Transaction target = generator.NextTransaction();
    auto result = tree.FindKNearestHamming(target, 3);
    auto oracle = scanner.FindKNearest(target, family, 3);
    ASSERT_EQ(result.neighbors.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      // The tree reports distance negated; the oracle reports 1/y. Both must
      // rank the same Hamming distances.
      size_t tree_distance =
          static_cast<size_t>(-result.neighbors[i].similarity);
      size_t oracle_distance =
          HammingDistance(target, db.Get(oracle[i].id));
      EXPECT_EQ(tree_distance, oracle_distance) << "query " << q << " rank "
                                                << i;
    }
  }
}

TEST(BinaryRTreeTest, KLargerThanDatabase) {
  QuestGenerator generator(GeneratorConfig(809));
  TransactionDatabase db = generator.GenerateDatabase(10);
  BinaryRTree tree(&db, RTreeConfig{});
  auto result = tree.FindKNearestHamming(generator.NextTransaction(), 50);
  EXPECT_EQ(result.neighbors.size(), 10u);
}

TEST(BinaryRTreeTest, NeighborsSortedByAscendingDistance) {
  QuestGenerator generator(GeneratorConfig(811));
  TransactionDatabase db = generator.GenerateDatabase(800);
  BinaryRTree tree(&db, RTreeConfig{});
  auto result = tree.FindKNearestHamming(generator.NextTransaction(), 8);
  for (size_t i = 1; i < result.neighbors.size(); ++i) {
    EXPECT_GE(result.neighbors[i - 1].similarity,
              result.neighbors[i].similarity);
  }
}

TEST(BinaryRTreeTest, TreeShapeIsSane) {
  QuestGenerator generator(GeneratorConfig(821));
  TransactionDatabase db = generator.GenerateDatabase(2000);
  RTreeConfig config;
  config.max_node_entries = 16;
  config.min_node_entries = 4;
  BinaryRTree tree(&db, config);
  auto stats = tree.ComputeTreeStats();
  EXPECT_GE(stats.height, 3u);
  EXPECT_GT(stats.leaf_nodes, 2000u / 16);
  EXPECT_GT(stats.internal_nodes, 0u);
}

TEST(BinaryRTreeTest, SignatureTablePrunesFarBetterOnBasketData) {
  // The comparison behind the paper's rejection of spatial indexes: on
  // sparse high-dimensional basket data the R-tree's MBRs saturate (most
  // dimensions free a level or two up), so MINDIST pruning is weak next to
  // the signature table's supercoordinate bounds on the very same database
  // and queries.
  QuestGenerator generator(GeneratorConfig(823, 500));
  TransactionDatabase db = generator.GenerateDatabase(4000);
  BinaryRTree tree(&db, RTreeConfig{});

  IndexBuildConfig build;
  build.clustering.target_cardinality = 13;
  SignatureTable table = BuildIndex(db, build);
  BranchAndBoundEngine engine(&db, &table);
  InverseHammingFamily family;

  double rtree_access = 0.0, table_access = 0.0;
  auto queries = generator.GenerateQueries(10);
  for (const Transaction& target : queries) {
    rtree_access += tree.FindKNearestHamming(target, 1).stats
                        .AccessedFraction();
    table_access +=
        engine.FindKNearest(target, family, 1).stats.AccessedFraction();
  }
  EXPECT_GT(rtree_access, 2.0 * table_access);

  // MBR saturation measure: a root child's box is free in *dozens* of
  // dimensions (many orders of magnitude more volume than the few-item
  // baskets it holds), even though items that never occur dilute the
  // fraction over the whole universe.
  auto stats = tree.ComputeTreeStats();
  EXPECT_GT(stats.root_child_free_dim_fraction, 0.05);
  EXPECT_LT(stats.root_child_free_dim_fraction, 1.0);
}

TEST(BinaryRTreeTest, StatsAccounting) {
  QuestGenerator generator(GeneratorConfig(829));
  TransactionDatabase db = generator.GenerateDatabase(500);
  BinaryRTree tree(&db, RTreeConfig{});
  auto result = tree.FindKNearestHamming(generator.NextTransaction(), 1);
  EXPECT_EQ(result.stats.database_size, 500u);
  EXPECT_GT(result.stats.nodes_visited, 0u);
  EXPECT_LE(result.stats.transactions_evaluated, 500u);
  EXPECT_GT(result.stats.transactions_evaluated, 0u);
}

TEST(BinaryRTreeTest, EmptyDatabase) {
  TransactionDatabase db(50);
  BinaryRTree tree(&db, RTreeConfig{});
  auto result = tree.FindKNearestHamming(Transaction({1, 2}), 3);
  EXPECT_TRUE(result.neighbors.empty());
}

}  // namespace
}  // namespace mbi
