#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "baseline/inverted_index.h"
#include "baseline/sequential_scan.h"
#include "core/branch_and_bound.h"
#include "core/index_builder.h"
#include "gen/quest_generator.h"

namespace mbi {
namespace {

/// End-to-end pipeline checks mirroring the paper's experimental setup at
/// test-friendly scale: generate Quest data, build one signature table, and
/// exercise all three similarity functions against the same table.

QuestGeneratorConfig PaperLikeConfig(double avg_transaction_size,
                                     uint64_t seed) {
  QuestGeneratorConfig config;
  config.universe_size = 500;
  config.num_large_itemsets = 200;
  config.avg_itemset_size = 6.0;
  config.avg_transaction_size = avg_transaction_size;
  config.seed = seed;
  return config;
}

TEST(IntegrationTest, OneTableServesAllThreeSimilarityFunctions) {
  QuestGenerator generator(PaperLikeConfig(10.0, 211));
  TransactionDatabase db = generator.GenerateDatabase(3000);
  IndexBuildConfig build;
  build.clustering.target_cardinality = 11;
  SignatureTable table = BuildIndex(db, build);
  BranchAndBoundEngine engine(&db, &table);
  SequentialScanner scanner(&db);
  auto queries = generator.GenerateQueries(8);

  for (const char* name : {"hamming", "match_ratio", "cosine"}) {
    auto family = MakeSimilarityFamily(name);
    for (const Transaction& target : queries) {
      auto result = engine.FindKNearest(target, *family, 1);
      auto oracle = scanner.FindKNearest(target, *family, 1);
      ASSERT_TRUE(result.stats.is_exact);
      bool both_inf = std::isinf(result.neighbors[0].similarity) &&
                      std::isinf(oracle[0].similarity);
      EXPECT_TRUE(both_inf ||
                  result.neighbors[0].similarity == oracle[0].similarity)
          << name;
    }
  }
}

TEST(IntegrationTest, PruningImprovesWithDatabaseSize) {
  // The paper's headline scalability property (Figures 6/9/12): percentage
  // pruning efficiency increases with the number of transactions. The
  // smaller table still holds several rows per occupied entry: on a table
  // of ~2 rows per entry the count-summary bound is close to each row's own
  // similarity, so its pruning is already near the floor that exactness
  // imposes and the trend only shows from there on.
  QuestGenerator generator(PaperLikeConfig(10.0, 223));
  TransactionDatabase big = generator.GenerateDatabase(64000);

  // Same distribution, smaller prefix.
  TransactionDatabase small(big.universe_size());
  for (TransactionId id = 0; id < 8000; ++id) small.Add(big.Get(id));

  IndexBuildConfig build;
  build.clustering.target_cardinality = 12;
  SignatureTable small_table = BuildIndex(small, build);
  SignatureTable big_table = BuildIndex(big, build);
  BranchAndBoundEngine small_engine(&small, &small_table);
  BranchAndBoundEngine big_engine(&big, &big_table);
  InverseHammingFamily family;

  auto queries = generator.GenerateQueries(10);
  double small_pruning = 0.0, big_pruning = 0.0;
  for (const Transaction& target : queries) {
    small_pruning += small_engine.FindKNearest(target, family, 1)
                         .stats.PruningEfficiencyPercent();
    big_pruning += big_engine.FindKNearest(target, family, 1)
                       .stats.PruningEfficiencyPercent();
  }
  EXPECT_GT(big_pruning / 10, small_pruning / 10);
}

TEST(IntegrationTest, HigherCardinalityPrunesMore) {
  // The paper's memory-availability axis: larger K gives finer partitions
  // and better pruning.
  QuestGenerator generator(PaperLikeConfig(10.0, 227));
  TransactionDatabase db = generator.GenerateDatabase(5000);
  InverseHammingFamily family;
  auto queries = generator.GenerateQueries(10);

  double pruning_low = 0.0, pruning_high = 0.0;
  for (auto [k, out] :
       {std::pair<uint32_t, double*>{6, &pruning_low}, {14, &pruning_high}}) {
    IndexBuildConfig build;
    build.clustering.target_cardinality = k;
    SignatureTable table = BuildIndex(db, build);
    BranchAndBoundEngine engine(&db, &table);
    for (const Transaction& target : queries) {
      *out += engine.FindKNearest(target, family, 1).stats
                  .PruningEfficiencyPercent();
    }
  }
  EXPECT_GT(pruning_high, pruning_low);
}

TEST(IntegrationTest, EarlyTerminationAccuracyIsHighAtTwoPercent) {
  // The paper's accuracy metric: fraction of queries whose early-terminated
  // answer equals the true nearest neighbour (by similarity value).
  QuestGenerator generator(PaperLikeConfig(10.0, 229));
  TransactionDatabase db = generator.GenerateDatabase(6000);
  IndexBuildConfig build;
  build.clustering.target_cardinality = 13;
  SignatureTable table = BuildIndex(db, build);
  BranchAndBoundEngine engine(&db, &table);
  MatchRatioFamily family;

  SearchOptions options;
  options.max_access_fraction = 0.02;
  auto queries = generator.GenerateQueries(20);
  int correct = 0;
  for (const Transaction& target : queries) {
    auto fast = engine.FindKNearest(target, family, 1, options);
    auto exact = engine.FindKNearest(target, family, 1);
    bool both_inf = std::isinf(fast.neighbors[0].similarity) &&
                    std::isinf(exact.neighbors[0].similarity);
    correct += both_inf ||
               fast.neighbors[0].similarity == exact.neighbors[0].similarity;
  }
  EXPECT_GE(correct, 15) << "accuracy at 2% termination collapsed";
}

TEST(IntegrationTest, SignatureTableBeatsInvertedIndexOnAccessVolume) {
  // The paper's §5.1 comparison: the signature table answers from 0.2–2% of
  // the data while the inverted index's candidate phase alone touches a
  // large fraction.
  QuestGenerator generator(PaperLikeConfig(10.0, 233));
  TransactionDatabase db = generator.GenerateDatabase(4000);
  IndexBuildConfig build;
  build.clustering.target_cardinality = 13;
  SignatureTable table = BuildIndex(db, build);
  BranchAndBoundEngine engine(&db, &table);
  InvertedIndex inverted(&db);
  MatchRatioFamily family;

  auto queries = generator.GenerateQueries(10);
  double table_access = 0.0, inverted_access = 0.0;
  for (const Transaction& target : queries) {
    table_access +=
        engine.FindKNearest(target, family, 1).stats.AccessedFraction();
    inverted_access +=
        inverted.FindKNearest(target, family, 1).accessed_fraction;
  }
  EXPECT_LT(table_access, inverted_access);
}

TEST(IntegrationTest, CorrelationAwareSignaturesBeatBalancedControlAtHigherR) {
  // Ablation backing §3.1: at activation threshold r = 2 a transaction only
  // activates a signature holding >= 2 of its items. With correlation-blind
  // balanced signatures the items of a basket scatter, almost nothing
  // activates, most transactions collapse onto a few supercoordinates, and
  // pruning degrades; correlation-aware signatures keep the coordinates
  // informative. (At r = 1 the two partitioners are nearly tied — the
  // ablation bench quantifies both regimes.)
  QuestGenerator generator(PaperLikeConfig(10.0, 239));
  TransactionDatabase db = generator.GenerateDatabase(5000);
  InverseHammingFamily family;
  auto queries = generator.GenerateQueries(10);

  double linked = 0.0, balanced = 0.0;
  for (auto [use_balanced, out] :
       {std::pair<bool, double*>{false, &linked}, {true, &balanced}}) {
    IndexBuildConfig build;
    build.clustering.target_cardinality = 12;
    build.table.activation_threshold = 2;
    build.use_balanced_partitioner = use_balanced;
    SignatureTable table = BuildIndex(db, build);
    BranchAndBoundEngine engine(&db, &table);
    for (const Transaction& target : queries) {
      *out += engine.FindKNearest(target, family, 1).stats
                  .PruningEfficiencyPercent();
    }
  }
  EXPECT_GT(linked, balanced);
}

}  // namespace
}  // namespace mbi
