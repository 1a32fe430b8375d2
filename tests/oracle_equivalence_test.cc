// Oracle-equivalence suite for the overhauled query hot path: the
// counting-sort entry-ordering / packed-kernel / context-reusing engine must
// return *bit-identical* NearestNeighborResults — neighbors, exactness
// certificate, bounds, tie-breaks, stats, and traces — to
//
//  (a) the frozen pre-overhaul implementation
//      (FindKNearest*Reference in reference_knn.h: full std::sort,
//      fresh allocations, merge-scan MatchAndHamming), and
//  (b) the SequentialScanner ground truth (for exact searches).
//
// The sweep covers all three paper similarity families, both entry sort
// orders, early termination, optimality gaps, trace collection, and the
// multi-target aggregate — precisely the behaviours whose semantics the
// overhaul promised to preserve.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "baseline/sequential_scan.h"
#include "core/branch_and_bound.h"
#include "core/index_builder.h"
#include "core/query_context.h"
#include "gen/quest_generator.h"
#include "reference_knn.h"

namespace mbi {
namespace {

struct Fixture {
  TransactionDatabase db;
  SignatureTable table;
  std::vector<Transaction> queries;
};

Fixture MakeFixture(uint64_t seed, uint32_t cardinality,
                    int activation_threshold = 1, uint64_t db_size = 1500,
                    uint64_t num_queries = 10) {
  QuestGeneratorConfig config;
  config.universe_size = 300;
  config.num_large_itemsets = 70;
  config.avg_itemset_size = 5.0;
  config.avg_transaction_size = 9.0;
  config.seed = seed;
  QuestGenerator generator(config);
  TransactionDatabase db = generator.GenerateDatabase(db_size);
  IndexBuildConfig build;
  build.clustering.target_cardinality = cardinality;
  build.table.activation_threshold = activation_threshold;
  SignatureTable table = BuildIndex(db, build);
  auto queries = generator.GenerateQueries(num_queries);
  return {std::move(db), std::move(table), std::move(queries)};
}

/// Bit-identical doubles, treating equal infinities as equal (== already
/// does; the helper exists to give readable failure output for NaN-free
/// similarity values).
void ExpectSameDouble(double a, double b, const std::string& what) {
  EXPECT_EQ(a, b) << what;
}

void ExpectSameResult(const NearestNeighborResult& a,
                      const NearestNeighborResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.neighbors.size(), b.neighbors.size()) << label;
  for (size_t i = 0; i < a.neighbors.size(); ++i) {
    EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id)
        << label << " neighbor " << i;
    ExpectSameDouble(a.neighbors[i].similarity, b.neighbors[i].similarity,
                     label + " similarity of neighbor " + std::to_string(i));
  }
  EXPECT_EQ(a.stats.termination, b.stats.termination) << label;
  EXPECT_EQ(a.stats.is_exact, b.stats.is_exact) << label;
  ExpectSameDouble(a.stats.certificate_bound, b.stats.certificate_bound,
                   label + " certificate_bound");

  EXPECT_EQ(a.stats.database_size, b.stats.database_size) << label;
  EXPECT_EQ(a.stats.entries_total, b.stats.entries_total) << label;
  EXPECT_EQ(a.stats.entries_scanned, b.stats.entries_scanned) << label;
  EXPECT_EQ(a.stats.entries_pruned, b.stats.entries_pruned) << label;
  EXPECT_EQ(a.stats.entries_unexplored, b.stats.entries_unexplored) << label;
  EXPECT_EQ(a.stats.transactions_evaluated, b.stats.transactions_evaluated)
      << label;
  EXPECT_EQ(a.stats.io.pages_read, b.stats.io.pages_read) << label;
  EXPECT_EQ(a.stats.io.bytes_read, b.stats.io.bytes_read) << label;
  EXPECT_EQ(a.stats.io.transactions_fetched, b.stats.io.transactions_fetched)
      << label;

  ASSERT_EQ(a.trace.size(), b.trace.size()) << label;
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].coordinate, b.trace[i].coordinate)
        << label << " trace " << i;
    ExpectSameDouble(a.trace[i].optimistic_bound, b.trace[i].optimistic_bound,
                     label + " trace optimistic " + std::to_string(i));
    EXPECT_EQ(a.trace[i].transaction_count, b.trace[i].transaction_count)
        << label << " trace " << i;
    EXPECT_EQ(static_cast<int>(a.trace[i].action),
              static_cast<int>(b.trace[i].action))
        << label << " trace " << i;
    ExpectSameDouble(a.trace[i].pessimistic_bound, b.trace[i].pessimistic_bound,
                     label + " trace pessimistic " + std::to_string(i));
  }
}

// --- Full sweep: family x sort order x search-option shape. ---

struct OptionShape {
  const char* name;
  double max_access_fraction;
  double optimality_gap;
  bool collect_trace;
};

constexpr OptionShape kShapes[] = {
    {"exact", 1.0, 0.0, false},
    {"exact_trace", 1.0, 0.0, true},
    {"gap", 1.0, 0.08, false},
    {"terminate", 0.08, 0.0, false},
    {"terminate_trace", 0.08, 0.0, true},
    {"terminate_gap_trace", 0.3, 0.03, true},
};

class OracleEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<const char*, EntrySortOrder, size_t>> {};

TEST_P(OracleEquivalenceTest, OverhaulMatchesReferenceBitExactly) {
  auto [family_name, sort_order, k] = GetParam();
  Fixture fixture = MakeFixture(2024, 9);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  auto family = MakeSimilarityFamily(family_name);

  QueryContext context;  // One reused context across the whole sweep.
  for (const OptionShape& shape : kShapes) {
    SearchOptions options;
    options.sort_order = sort_order;
    options.max_access_fraction = shape.max_access_fraction;
    options.optimality_gap = shape.optimality_gap;
    options.collect_trace = shape.collect_trace;
    for (size_t q = 0; q < fixture.queries.size(); ++q) {
      const Transaction& target = fixture.queries[q];
      NearestNeighborResult reference = FindKNearestReference(
          fixture.db, fixture.table, target, *family, k, options);
      NearestNeighborResult fresh =
          engine.FindKNearest(target, *family, k, options);
      NearestNeighborResult reused;
      engine.FindKNearest(target, *family, k, options, &context, &reused);
      std::string label = std::string(family_name) + "/" + shape.name +
                          "/k=" + std::to_string(k) +
                          "/q=" + std::to_string(q);
      ExpectSameResult(fresh, reference, label + " (fresh ctx)");
      ExpectSameResult(reused, reference, label + " (reused ctx)");
    }
  }
}

TEST_P(OracleEquivalenceTest, ExactSearchMatchesSequentialScan) {
  auto [family_name, sort_order, k] = GetParam();
  Fixture fixture = MakeFixture(7, 8);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  SequentialScanner scanner(&fixture.db);
  auto family = MakeSimilarityFamily(family_name);

  SearchOptions options;
  options.sort_order = sort_order;
  QueryContext context;
  for (const Transaction& target : fixture.queries) {
    NearestNeighborResult result;
    engine.FindKNearest(target, *family, k, options, &context, &result);
    std::vector<Neighbor> oracle = scanner.FindKNearest(target, *family, k);
    EXPECT_TRUE(result.stats.is_exact);
    ASSERT_EQ(result.neighbors.size(), oracle.size());
    for (size_t i = 0; i < oracle.size(); ++i) {
      // Ids pin the tie-break ordering; similarities must agree bitwise
      // except both-infinite (hamming distance 0 under 1/y).
      EXPECT_EQ(result.neighbors[i].id, oracle[i].id) << family_name;
      bool both_inf = std::isinf(result.neighbors[i].similarity) &&
                      std::isinf(oracle[i].similarity);
      if (!both_inf) {
        EXPECT_EQ(result.neighbors[i].similarity, oracle[i].similarity)
            << family_name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OracleEquivalenceTest,
    ::testing::Combine(
        ::testing::Values("hamming", "match_ratio", "cosine"),
        ::testing::Values(EntrySortOrder::kOptimisticBound,
                          EntrySortOrder::kSupercoordinateSimilarity),
        ::testing::Values<size_t>(1, 7)));

// --- Multi-target aggregate. ---

TEST(OracleEquivalenceMultiTargetTest, MatchesReferenceAndSequentialScan) {
  Fixture fixture = MakeFixture(55, 9);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  SequentialScanner scanner(&fixture.db);
  QueryContext context;

  for (const char* family_name : {"hamming", "match_ratio", "cosine"}) {
    auto family = MakeSimilarityFamily(family_name);
    std::vector<Transaction> targets(fixture.queries.begin(),
                                     fixture.queries.begin() + 3);
    for (EntrySortOrder order : {EntrySortOrder::kOptimisticBound,
                                 EntrySortOrder::kSupercoordinateSimilarity}) {
      SearchOptions options;
      options.sort_order = order;
      NearestNeighborResult reference = FindKNearestMultiTargetReference(
          fixture.db, fixture.table, targets, *family, 5, options);
      NearestNeighborResult result;
      engine.FindKNearestMultiTarget(targets, *family, 5, options, &context,
                                     &result);
      ExpectSameResult(result, reference,
                       std::string(family_name) + " multi-target");

      std::vector<Neighbor> oracle =
          scanner.FindKNearestMultiTarget(targets, *family, 5);
      ASSERT_EQ(result.neighbors.size(), oracle.size());
      for (size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(result.neighbors[i].id, oracle[i].id) << family_name;
      }
    }
  }
}

// Many targets average their bounds, so a query's keys take many distinct
// values; the counting-sort order must still match the full sort, including
// the pruned and unexplored tails a trace records.
TEST(OracleEquivalenceMultiTargetTest, ManyTargetsMatchReferenceWithTrace) {
  Fixture fixture = MakeFixture(77, 9, 1, /*db_size=*/1500, /*num_queries=*/10);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  QueryContext context;
  std::vector<Transaction> targets(fixture.queries.begin(),
                                   fixture.queries.begin() + 9);
  for (const char* family_name : {"hamming", "match_ratio", "cosine"}) {
    auto family = MakeSimilarityFamily(family_name);
    for (EntrySortOrder order : {EntrySortOrder::kOptimisticBound,
                                 EntrySortOrder::kSupercoordinateSimilarity}) {
      for (const OptionShape& shape : kShapes) {
        SearchOptions options;
        options.sort_order = order;
        options.max_access_fraction = shape.max_access_fraction;
        options.optimality_gap = shape.optimality_gap;
        options.collect_trace = true;
        NearestNeighborResult reference = FindKNearestMultiTargetReference(
            fixture.db, fixture.table, targets, *family, 6, options);
        NearestNeighborResult result;
        engine.FindKNearestMultiTarget(targets, *family, 6, options, &context,
                                       &result);
        ExpectSameResult(result, reference,
                         std::string(family_name) + " 9 targets " + shape.name);
        if (shape.max_access_fraction == 1.0) {
          // An exact traced query records every entry: check the averaged
          // bounds really are mostly distinct.
          std::set<double> distinct;
          for (const EntryTrace& entry : result.trace) {
            distinct.insert(entry.optimistic_bound);
          }
          EXPECT_GT(2 * distinct.size(), fixture.table.entries().size())
              << family_name;
        }
      }
    }
  }
}

// --- Degenerate shapes the orderer must handle like the sort did. ---

TEST(OracleEquivalenceEdgeTest, KLargerThanDatabase) {
  Fixture fixture = MakeFixture(13, 7, 1, /*db_size=*/40, /*num_queries=*/4);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  auto family = MakeSimilarityFamily("match_ratio");
  QueryContext context;
  for (const Transaction& target : fixture.queries) {
    NearestNeighborResult reference =
        FindKNearestReference(fixture.db, fixture.table, target, *family, 100);
    NearestNeighborResult result;
    engine.FindKNearest(target, *family, 100, {}, &context, &result);
    ExpectSameResult(result, reference, "k > db");
  }
}

TEST(OracleEquivalenceEdgeTest, EmptyTargetAndTinyBudget) {
  Fixture fixture = MakeFixture(29, 7, 1, /*db_size=*/200, /*num_queries=*/2);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  auto family = MakeSimilarityFamily("hamming");
  QueryContext context;
  SearchOptions options;
  options.max_access_fraction = 0.005;  // Budget of a single transaction.
  options.collect_trace = true;
  Transaction empty;
  NearestNeighborResult reference = FindKNearestReference(
      fixture.db, fixture.table, empty, *family, 3, options);
  NearestNeighborResult result;
  engine.FindKNearest(empty, *family, 3, options, &context, &result);
  ExpectSameResult(result, reference, "empty target, tiny budget");
}

TEST(OracleEquivalenceEdgeTest, BoundDominanceHoldsOnOverhauledEngine) {
  Fixture fixture = MakeFixture(91, 8);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  for (const char* family_name : {"hamming", "match_ratio", "cosine"}) {
    auto family = MakeSimilarityFamily(family_name);
    // Aborts on any Lemma 2.1 violation; exercised here so the invariant
    // layer stays wired to the overhauled query path.
    engine.CheckBoundDominance(fixture.queries.front(), *family);
  }
  fixture.table.CheckInvariants(&fixture.db);
}

}  // namespace
}  // namespace mbi
