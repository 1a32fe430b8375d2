#include "core/tuner.h"

#include <gtest/gtest.h>

#include "core/branch_and_bound.h"
#include "gen/quest_generator.h"

namespace mbi {
namespace {

QuestGeneratorConfig GeneratorConfig(uint64_t seed = 1001) {
  QuestGeneratorConfig config;
  config.universe_size = 400;
  config.num_large_itemsets = 100;
  config.avg_transaction_size = 9.0;
  config.seed = seed;
  return config;
}

TEST(TunerTest, RecommendationRespectsMemoryBudget) {
  QuestGenerator generator(GeneratorConfig());
  TransactionDatabase db = generator.GenerateDatabase(4000);
  auto queries = generator.GenerateQueries(10);
  InverseHammingFamily family;

  TunerConfig config;
  config.directory_memory_budget_bytes = 64 * 1024;  // K <= 13 at 8B slots.
  config.min_cardinality = 8;
  config.sample_size = 2000;
  TuningResult result = TuneIndex(db, queries, family, config);

  uint32_t k = result.recommended.clustering.target_cardinality;
  EXPECT_GE(k, 8u);
  EXPECT_LE((uint64_t{1} << k) * sizeof(void*),
            config.directory_memory_budget_bytes);
  EXPECT_FALSE(result.trials.empty());
  for (const TuningTrial& trial : result.trials) {
    EXPECT_LE(trial.directory_bytes, config.directory_memory_budget_bytes);
    EXPECT_GE(trial.pruning_efficiency, 0.0);
    EXPECT_LE(trial.pruning_efficiency, 100.0);
  }
}

TEST(TunerTest, RecommendedConfigBuildsAWorkingIndex) {
  QuestGenerator generator(GeneratorConfig(1009));
  TransactionDatabase db = generator.GenerateDatabase(3000);
  auto queries = generator.GenerateQueries(8);
  MatchRatioFamily family;

  TunerConfig config;
  config.directory_memory_budget_bytes = 256 * 1024;
  config.sample_size = 1500;
  TuningResult result = TuneIndex(db, queries, family, config);

  SignatureTable table = BuildIndex(db, result.recommended);
  BranchAndBoundEngine engine(&db, &table);
  auto answer = engine.FindKNearest(queries[0], family, 1);
  EXPECT_TRUE(answer.stats.is_exact);
  EXPECT_GT(answer.stats.PruningEfficiencyPercent(), 50.0);
}

TEST(TunerTest, LargerBudgetNeverRecommendsWorsePruning) {
  QuestGenerator generator(GeneratorConfig(1013));
  TransactionDatabase db = generator.GenerateDatabase(4000);
  auto queries = generator.GenerateQueries(10);
  InverseHammingFamily family;

  auto best_pruning = [&](uint64_t budget) {
    TunerConfig config;
    config.directory_memory_budget_bytes = budget;
    config.sample_size = 2000;
    TuningResult result = TuneIndex(db, queries, family, config);
    double best = 0.0;
    for (const TuningTrial& trial : result.trials) {
      best = std::max(best, trial.pruning_efficiency);
    }
    return best;
  };
  // The larger budget's sweep is a superset, so its best can only be >=.
  EXPECT_GE(best_pruning(1 << 20) + 1e-9, best_pruning(16 * 1024));
}

TEST(TunerTest, ToStringListsTrialsAndRecommendation) {
  QuestGenerator generator(GeneratorConfig(1019));
  TransactionDatabase db = generator.GenerateDatabase(1000);
  auto queries = generator.GenerateQueries(5);
  CosineFamily family;
  TunerConfig config;
  config.directory_memory_budget_bytes = 32 * 1024;
  config.sample_size = 800;
  TuningResult result = TuneIndex(db, queries, family, config);
  std::string text = result.ToString();
  EXPECT_NE(text.find("trials:"), std::string::npos);
  EXPECT_NE(text.find("recommended: K="), std::string::npos);
}

TEST(TunerTest, RejectsImpossibleBudget) {
  QuestGenerator generator(GeneratorConfig(1021));
  TransactionDatabase db = generator.GenerateDatabase(200);
  auto queries = generator.GenerateQueries(3);
  MatchRatioFamily family;
  TunerConfig config;
  config.directory_memory_budget_bytes = 128;  // Not even K=8.
  EXPECT_DEATH(TuneIndex(db, queries, family, config), "budget");
}

}  // namespace
}  // namespace mbi
