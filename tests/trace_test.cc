#include <gtest/gtest.h>

#include "core/branch_and_bound.h"
#include "core/index_builder.h"
#include "gen/quest_generator.h"

namespace mbi {
namespace {

struct Fixture {
  TransactionDatabase db;
  SignatureTable table;
  std::vector<Transaction> queries;
};

Fixture MakeFixture(uint64_t seed = 601) {
  QuestGeneratorConfig config;
  config.universe_size = 250;
  config.num_large_itemsets = 60;
  config.avg_transaction_size = 9.0;
  config.seed = seed;
  QuestGenerator generator(config);
  TransactionDatabase db = generator.GenerateDatabase(2000);
  IndexBuildConfig build;
  build.clustering.target_cardinality = 10;
  SignatureTable table = BuildIndex(db, build);
  auto queries = generator.GenerateQueries(5);
  return {std::move(db), std::move(table), std::move(queries)};
}

TEST(TraceTest, DisabledByDefault) {
  Fixture fixture = MakeFixture();
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  MatchRatioFamily family;
  auto result = engine.FindKNearest(fixture.queries[0], family, 1);
  EXPECT_TRUE(result.trace.empty());
}

TEST(TraceTest, CoversEveryEntryExactlyOnce) {
  Fixture fixture = MakeFixture();
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  MatchRatioFamily family;
  SearchOptions options;
  options.collect_trace = true;

  for (const Transaction& target : fixture.queries) {
    auto result = engine.FindKNearest(target, family, 1, options);
    EXPECT_EQ(result.trace.size(), fixture.table.entries().size());
    size_t scanned = 0, pruned = 0, unexplored = 0;
    uint64_t scanned_transactions = 0;
    for (const EntryTrace& entry : result.trace) {
      switch (entry.action) {
        case EntryTrace::Action::kScanned:
          ++scanned;
          scanned_transactions += entry.transaction_count;
          break;
        case EntryTrace::Action::kPruned:
          ++pruned;
          break;
        case EntryTrace::Action::kUnexplored:
          ++unexplored;
          break;
      }
    }
    EXPECT_EQ(scanned, result.stats.entries_scanned);
    EXPECT_EQ(pruned, result.stats.entries_pruned);
    EXPECT_EQ(unexplored, result.stats.entries_unexplored);
    EXPECT_EQ(scanned_transactions, result.stats.transactions_evaluated);
  }
}

TEST(TraceTest, PrunedEntriesNeverBeatThePessimisticBoundAtVisit) {
  Fixture fixture = MakeFixture(607);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  InverseHammingFamily family;
  SearchOptions options;
  options.collect_trace = true;
  auto result = engine.FindKNearest(fixture.queries[0], family, 1, options);
  for (const EntryTrace& entry : result.trace) {
    if (entry.action == EntryTrace::Action::kPruned) {
      EXPECT_LE(entry.optimistic_bound, entry.pessimistic_bound);
    }
  }
}

TEST(TraceTest, VisitOrderIsByDecreasingOptimisticBound) {
  Fixture fixture = MakeFixture(613);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  MatchRatioFamily family;
  SearchOptions options;
  options.collect_trace = true;
  auto result = engine.FindKNearest(fixture.queries[1], family, 1, options);
  for (size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_GE(result.trace[i - 1].optimistic_bound,
              result.trace[i].optimistic_bound);
  }
}

TEST(TraceTest, TraceDoesNotChangeTheAnswer) {
  Fixture fixture = MakeFixture(617);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  CosineFamily family;
  SearchOptions with_trace;
  with_trace.collect_trace = true;
  for (const Transaction& target : fixture.queries) {
    auto a = engine.FindKNearest(target, family, 3);
    auto b = engine.FindKNearest(target, family, 3, with_trace);
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id);
    }
    EXPECT_EQ(a.stats.transactions_evaluated, b.stats.transactions_evaluated);
  }
}

}  // namespace
}  // namespace mbi
