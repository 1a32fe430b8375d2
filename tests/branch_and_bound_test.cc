#include "core/branch_and_bound.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "baseline/sequential_scan.h"
#include "core/bounds.h"
#include "core/index_builder.h"
#include "core/query_context.h"
#include "gen/quest_generator.h"

namespace mbi {
namespace {

struct Fixture {
  TransactionDatabase db;
  SignatureTable table;
  std::vector<Transaction> queries;
};

Fixture MakeFixture(uint64_t seed, uint32_t cardinality,
                    int activation_threshold = 1, uint64_t db_size = 1200,
                    uint64_t num_queries = 12) {
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

QuestGeneratorConfig GeneratorConfig(uint64_t seed) {
  QuestGeneratorConfig config;
  config.universe_size = 250;
  config.num_large_itemsets = 60;
  config.avg_itemset_size = 5.0;
  config.avg_transaction_size = 9.0;
  config.seed = seed;
  return config;
}

bool SameSimilarities(const std::vector<Neighbor>& a,
                      const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    bool both_inf = std::isinf(a[i].similarity) && std::isinf(b[i].similarity);
    if (!both_inf && a[i].similarity != b[i].similarity) return false;
  }
  return true;
}

// --- Exactness against the sequential-scan oracle, swept over similarity
// family, k, activation threshold, and entry sort order. ---

class ExactnessTest
    : public ::testing::TestWithParam<
          std::tuple<const char*, size_t, int, EntrySortOrder>> {};

TEST_P(ExactnessTest, MatchesSequentialScan) {
  auto [family_name, k, activation_threshold, sort_order] = GetParam();
  Fixture fixture = MakeFixture(101, 9, activation_threshold);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  SequentialScanner scanner(&fixture.db);
  auto family = MakeSimilarityFamily(family_name);

  SearchOptions options;
  options.sort_order = sort_order;

  for (const Transaction& target : fixture.queries) {
    NearestNeighborResult result =
        engine.FindKNearest(target, *family, k, options);
    auto oracle = scanner.FindKNearest(target, *family, k);
    EXPECT_TRUE(result.stats.is_exact);
    ASSERT_EQ(result.neighbors.size(), std::min<size_t>(k, fixture.db.size()));
    EXPECT_TRUE(SameSimilarities(result.neighbors, oracle))
        << family_name << " k=" << k << " r=" << activation_threshold;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactnessTest,
    ::testing::Combine(
        ::testing::Values("hamming", "match_ratio", "cosine"),
        ::testing::Values(size_t{1}, size_t{5}),
        ::testing::Values(1, 2),
        ::testing::Values(EntrySortOrder::kOptimisticBound,
                          EntrySortOrder::kSupercoordinateSimilarity)));

// --- Result structure and statistics ---

TEST(BranchAndBoundTest, NeighborsSortedBestFirstWithIdTieBreak) {
  Fixture fixture = MakeFixture(7, 8);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  InverseHammingFamily family;
  auto result = engine.FindKNearest(fixture.queries[0], family, 10);
  for (size_t i = 1; i < result.neighbors.size(); ++i) {
    const Neighbor& prev = result.neighbors[i - 1];
    const Neighbor& here = result.neighbors[i];
    EXPECT_TRUE(prev.similarity > here.similarity ||
                (prev.similarity == here.similarity && prev.id < here.id));
  }
}

TEST(BranchAndBoundTest, StatsAccountForEveryEntry) {
  Fixture fixture = MakeFixture(13, 10);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  MatchRatioFamily family;
  for (const Transaction& target : fixture.queries) {
    auto result = engine.FindKNearest(target, family, 1);
    const QueryStats& stats = result.stats;
    EXPECT_EQ(stats.entries_total, fixture.table.entries().size());
    EXPECT_EQ(stats.entries_scanned + stats.entries_pruned +
                  stats.entries_unexplored,
              stats.entries_total);
    EXPECT_LE(stats.transactions_evaluated, fixture.db.size());
    EXPECT_GT(stats.transactions_evaluated, 0u);
    EXPECT_EQ(stats.io.transactions_fetched, stats.transactions_evaluated);
    EXPECT_GT(stats.io.pages_read, 0u);
    EXPECT_GE(stats.PruningEfficiencyPercent(), 0.0);
    EXPECT_LE(stats.PruningEfficiencyPercent(), 100.0);
  }
}

TEST(BranchAndBoundTest, PrunesSubstantiallyOnCorrelatedData) {
  Fixture fixture = MakeFixture(17, 12, 1, 4000);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  InverseHammingFamily family;
  double total_pruning = 0.0;
  for (const Transaction& target : fixture.queries) {
    auto result = engine.FindKNearest(target, family, 1);
    total_pruning += result.stats.PruningEfficiencyPercent();
  }
  EXPECT_GT(total_pruning / static_cast<double>(fixture.queries.size()), 50.0);
}

TEST(BranchAndBoundTest, DeterministicAcrossRuns) {
  Fixture fixture = MakeFixture(19, 9);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  CosineFamily family;
  auto first = engine.FindKNearest(fixture.queries[0], family, 5);
  auto second = engine.FindKNearest(fixture.queries[0], family, 5);
  ASSERT_EQ(first.neighbors.size(), second.neighbors.size());
  for (size_t i = 0; i < first.neighbors.size(); ++i) {
    EXPECT_EQ(first.neighbors[i].id, second.neighbors[i].id);
    EXPECT_EQ(first.neighbors[i].similarity, second.neighbors[i].similarity);
  }
}

TEST(BranchAndBoundTest, KLargerThanDatabaseReturnsEverything) {
  QuestGeneratorConfig config;
  config.universe_size = 50;
  config.num_large_itemsets = 10;
  config.seed = 3;
  QuestGenerator generator(config);
  TransactionDatabase db = generator.GenerateDatabase(20);
  IndexBuildConfig build;
  build.clustering.target_cardinality = 4;
  SignatureTable table = BuildIndex(db, build);
  BranchAndBoundEngine engine(&db, &table);
  MatchRatioFamily family;
  auto result = engine.FindKNearest(generator.NextTransaction(), family, 100);
  EXPECT_EQ(result.neighbors.size(), 20u);
  EXPECT_TRUE(result.stats.is_exact);
}

// --- Early termination (paper §4.2) ---

TEST(BranchAndBoundTest, EarlyTerminationRespectsBudget) {
  Fixture fixture = MakeFixture(23, 10, 1, 5000);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  InverseHammingFamily family;
  SearchOptions options;
  options.max_access_fraction = 0.02;
  uint64_t budget =
      static_cast<uint64_t>(0.02 * static_cast<double>(fixture.db.size()));
  // The budget check runs at entry granularity, so allow one max-bucket
  // overshoot.
  uint64_t max_bucket = 0;
  for (const auto& entry : fixture.table.entries()) {
    max_bucket = std::max<uint64_t>(max_bucket, entry.transaction_count);
  }
  for (const Transaction& target : fixture.queries) {
    auto result = engine.FindKNearest(target, family, 1, options);
    EXPECT_LE(result.stats.transactions_evaluated, budget + max_bucket);
    EXPECT_FALSE(result.neighbors.empty());
  }
}

TEST(BranchAndBoundTest, EarlyTerminationCertificateIsSound) {
  Fixture fixture = MakeFixture(29, 10, 1, 5000);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  SequentialScanner scanner(&fixture.db);
  MatchRatioFamily family;
  SearchOptions options;
  options.max_access_fraction = 0.01;
  for (const Transaction& target : fixture.queries) {
    auto result = engine.FindKNearest(target, family, 1, options);
    auto oracle = scanner.FindKNearest(target, family, 1);
    if (result.stats.is_exact) {
      // The certificate must never lie.
      EXPECT_TRUE(SameSimilarities(result.neighbors, oracle));
    } else {
      // The true optimum can never exceed max(found, certificate bound).
      EXPECT_GE(std::max(result.neighbors[0].similarity,
                         result.stats.certificate_bound),
                oracle[0].similarity);
    }
  }
}

TEST(BranchAndBoundTest, FullAccessFractionAlwaysExact) {
  Fixture fixture = MakeFixture(31, 8);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  CosineFamily family;
  SearchOptions options;
  options.max_access_fraction = 1.0;
  auto result = engine.FindKNearest(fixture.queries[0], family, 1, options);
  EXPECT_TRUE(result.stats.is_exact);
  EXPECT_EQ(result.stats.entries_unexplored, 0u);
}

// --- Caller floor (the dyn fan-out's shared threshold) ---

TEST(FloorTest, PrunesEveryEntryBoundedAtOrBelowTheFloor) {
  Fixture fixture = MakeFixture(41, 9, 1, 2000);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  InverseHammingFamily family;
  QueryContext context;
  NearestNeighborResult plain;
  NearestNeighborResult floored;
  SearchOptions options;
  options.collect_trace = true;
  for (const Transaction& target : fixture.queries) {
    engine.FindKNearest(target, family, 3, options, &context, &plain);
    ASSERT_FALSE(plain.trace.empty());
    // A floor at the bound of the middle entry in visit order.
    const double floor = plain.trace[plain.trace.size() / 2].optimistic_bound;
    engine.FindKNearest(target, family, 3, options, &context, &floored, floor);
    uint64_t scanned = 0;
    for (const EntryTrace& entry : floored.trace) {
      EXPECT_GE(entry.pessimistic_bound, floor);
      if (entry.action != EntryTrace::Action::kScanned) continue;
      ++scanned;
      EXPECT_GT(entry.optimistic_bound, floor);
    }
    EXPECT_EQ(scanned, floored.stats.entries_scanned);
    EXPECT_LE(floored.stats.transactions_evaluated,
              plain.stats.transactions_evaluated);
    // Every row of the plain top k above the floor is still found.
    for (size_t i = 0; i < plain.neighbors.size(); ++i) {
      if (plain.neighbors[i].similarity <= floor) break;
      ASSERT_LT(i, floored.neighbors.size());
      EXPECT_EQ(floored.neighbors[i].similarity, plain.neighbors[i].similarity);
    }
    EXPECT_TRUE(floored.stats.is_exact);

    // A floor at the best bound prunes the whole directory.
    const double best = plain.trace.front().optimistic_bound;
    engine.FindKNearest(target, family, 3, options, &context, &floored, best);
    EXPECT_EQ(floored.stats.entries_scanned, 0u);
    EXPECT_EQ(floored.stats.entries_pruned, floored.stats.entries_total);
    EXPECT_TRUE(floored.neighbors.empty());
    EXPECT_TRUE(floored.stats.is_exact);
    EXPECT_EQ(floored.stats.certificate_bound, best);
  }
}

TEST(FloorTest, CertificateIsJudgedAgainstTheFloorOrTheKthBest) {
  Fixture fixture = MakeFixture(43, 10, 1, 5000);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  MatchRatioFamily family;
  SearchOptions options;
  options.max_access_fraction = 0.01;
  QueryContext context;
  NearestNeighborResult cut;
  NearestNeighborResult floored;
  size_t certified_by_floor = 0;
  size_t not_certified = 0;
  for (const Transaction& target : fixture.queries) {
    engine.FindKNearest(target, family, 2, options, &context, &cut);
    if (cut.stats.is_exact || cut.neighbors.size() < 2) continue;
    const double kth = cut.neighbors.back().similarity;
    ASSERT_GT(cut.stats.certificate_bound, kth);

    // Floor at the cut search's certificate bound: the floor covers every
    // entry the search leaves behind, so the answer is certified although
    // its own k-th best is not.
    const double high = cut.stats.certificate_bound;
    engine.FindKNearest(target, family, 2, options, &context, &floored, high);
    EXPECT_LE(floored.stats.certificate_bound, high);
    EXPECT_TRUE(floored.stats.is_exact);
    if (floored.neighbors.size() == 2 &&
        floored.stats.certificate_bound > floored.neighbors.back().similarity) {
      ++certified_by_floor;
    }

    // Floor at the cut search's k-th best: no higher than its own k-th, so
    // the certificate stays where it was and is not met.
    engine.FindKNearest(target, family, 2, options, &context, &floored, kth);
    EXPECT_EQ(floored.stats.certificate_bound, cut.stats.certificate_bound);
    EXPECT_FALSE(floored.stats.is_exact);
    ++not_certified;
  }
  EXPECT_GT(certified_by_floor, 0u);
  EXPECT_GT(not_certified, 0u);
}

TEST(FloorTest, MinusInfinityFloorIsThePlainSearch) {
  Fixture fixture = MakeFixture(47, 9);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  CosineFamily family;
  QueryContext context;
  NearestNeighborResult floored;
  SearchOptions options;
  options.max_access_fraction = 0.2;
  for (const Transaction& target : fixture.queries) {
    const NearestNeighborResult plain =
        engine.FindKNearest(target, family, 4, options);
    engine.FindKNearest(target, family, 4, options, &context, &floored,
                        -std::numeric_limits<double>::infinity());
    ASSERT_EQ(plain.neighbors.size(), floored.neighbors.size());
    for (size_t i = 0; i < plain.neighbors.size(); ++i) {
      EXPECT_EQ(plain.neighbors[i].id, floored.neighbors[i].id);
      EXPECT_EQ(plain.neighbors[i].similarity, floored.neighbors[i].similarity);
    }
    EXPECT_EQ(plain.stats.entries_scanned, floored.stats.entries_scanned);
    EXPECT_EQ(plain.stats.is_exact, floored.stats.is_exact);
    EXPECT_EQ(plain.stats.certificate_bound, floored.stats.certificate_bound);
  }
}

TEST(FloorTest, EntriesBelowTheFloorSettledInBulkMatchTheVisitedOnes) {
  // Without a trace, entries bounded at or below floor + gap are left out of
  // the visit order and settled in bulk; a trace still visits every entry.
  // Both must report the same answer, counters and certificate, for floors
  // below, inside and above the bound range, with and without a gap, under
  // an entry budget and an access-fraction cut.
  Fixture fixture = MakeFixture(53, 10, 1, 3000);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  MatchRatioFamily family;
  QueryContext traced_context;
  QueryContext plain_context;
  NearestNeighborResult probe;
  NearestNeighborResult traced;
  NearestNeighborResult plain;
  SearchOptions trace_options;
  trace_options.collect_trace = true;
  size_t bulk_pruned_queries = 0;
  size_t stops_before_left_out = 0;
  for (const Transaction& target : fixture.queries) {
    engine.FindKNearest(target, family, 3, trace_options, &traced_context,
                        &probe);
    ASSERT_FALSE(probe.trace.empty());
    ASSERT_GE(probe.trace.size(), 3u);
    const double top = probe.trace.front().optimistic_bound;
    const double bottom = probe.trace.back().optimistic_bound;
    const double middle = probe.trace[probe.trace.size() / 3].optimistic_bound;
    // Floors at the 2nd and 3rd best bounds leave one or two entries above
    // them, so an entry budget of one or two can stop the search exactly
    // where only the left-out entries remain.
    const double second = probe.trace[1].optimistic_bound;
    const double third = probe.trace[2].optimistic_bound;
    for (double floor :
         {bottom - 1.0, bottom, middle, third, second, top, top + 1.0}) {
      for (double gap : {0.0, 0.05}) {
        for (uint64_t max_entries : {uint64_t{0}, uint64_t{1}, uint64_t{2}}) {
          for (double fraction : {1.0, 0.02}) {
            SearchOptions options;
            options.optimality_gap = gap;
            options.max_access_fraction = fraction;
            if (max_entries > 0) options.budget.max_entries = max_entries;
            SearchOptions with_trace = options;
            with_trace.collect_trace = true;
            engine.FindKNearest(target, family, 3, with_trace, &traced_context,
                                &traced, floor);
            engine.FindKNearest(target, family, 3, options, &plain_context,
                                &plain, floor);
            const QueryStats& a = traced.stats;
            const QueryStats& b = plain.stats;
            EXPECT_EQ(a.entries_scanned, b.entries_scanned);
            EXPECT_EQ(a.entries_pruned, b.entries_pruned);
            EXPECT_EQ(a.entries_unexplored, b.entries_unexplored);
            EXPECT_EQ(a.entries_total, b.entries_total);
            EXPECT_EQ(a.transactions_evaluated, b.transactions_evaluated);
            EXPECT_EQ(a.io.pages_read, b.io.pages_read);
            EXPECT_EQ(a.io.transactions_fetched, b.io.transactions_fetched);
            EXPECT_EQ(a.termination, b.termination);
            EXPECT_EQ(a.is_exact, b.is_exact);
            EXPECT_EQ(a.certificate_bound, b.certificate_bound);
            ASSERT_EQ(traced.neighbors.size(), plain.neighbors.size());
            for (size_t i = 0; i < plain.neighbors.size(); ++i) {
              EXPECT_EQ(traced.neighbors[i].id, plain.neighbors[i].id);
              EXPECT_EQ(traced.neighbors[i].similarity,
                        plain.neighbors[i].similarity);
            }
            if (b.entries_pruned > 0 && b.entries_scanned > 0) {
              ++bulk_pruned_queries;
            }
            // A stop with only left-out entries unexplored: every entry the
            // traced search left unexplored is bounded at or below the floor.
            bool only_left_out = b.entries_unexplored > 0;
            for (const EntryTrace& entry : traced.trace) {
              if (entry.action == EntryTrace::Action::kUnexplored &&
                  entry.optimistic_bound > floor + gap) {
                only_left_out = false;
              }
            }
            if (only_left_out) ++stops_before_left_out;
          }
        }
      }
    }
  }
  // The sweep reaches both the bulk prune after scanning and a stop in
  // front of the left-out entries.
  EXPECT_GT(bulk_pruned_queries, 0u);
  EXPECT_GT(stops_before_left_out, 0u);
}

// --- The cell order (core/entry_order.h) inside the engine ---

/// Entry indices in the order a traced query visited them (a trace records
/// every entry), read back through the directory's sorted coordinates.
std::vector<uint32_t> TracedVisitOrder(const SignatureTable& table,
                                       const NearestNeighborResult& result) {
  std::vector<uint32_t> visited;
  const auto& entries = table.entries();
  for (const EntryTrace& entry : result.trace) {
    const auto at = std::lower_bound(
        entries.begin(), entries.end(), entry.coordinate,
        [](const SignatureTable::Entry& e, Supercoordinate c) {
          return e.coordinate < c;
        });
    visited.push_back(static_cast<uint32_t>(at - entries.begin()));
  }
  return visited;
}

TEST(CellOrderTest, VisitOrderIsTheStableSortOfTheBounds) {
  // With one target the engine evaluates f once per (M', D') cell and ranks
  // cells; the visit order must still be std::stable_sort of the entries by
  // their bound f(M', D') descending (NaN last), and every traced bound f on
  // the entry's own summary bound. The custom function has every hazard: many
  // distinct cells of one value, -0.0 next to 0.0, +inf, and NaN.
  Fixture fixture = MakeFixture(61, 10, 1, 2500, 6);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  const double inf = std::numeric_limits<double>::infinity();
  CustomFamily hazards("hazards", [inf](int x, int y) {
    if (x == 1) return std::numeric_limits<double>::quiet_NaN();
    if (y == 0) return inf;
    if (x == 0) return y % 2 == 0 ? -0.0 : 0.0;
    return std::floor(4.0 * x / y) / 4.0;
  });
  MatchRatioFamily match_ratio;
  InverseHammingFamily hamming;
  CosineFamily cosine;
  const SimilarityFamily* families[] = {&hazards, &match_ratio, &hamming,
                                        &cosine};
  SearchOptions traced;
  traced.collect_trace = true;
  QueryContext context;  // One context across families and targets.
  NearestNeighborResult result;
  const EntrySummaries summaries = fixture.table.summaries();
  const size_t num_entries = fixture.table.entries().size();
  for (const SimilarityFamily* family : families) {
    for (const Transaction& target : fixture.queries) {
      const auto f = family->ForTarget(target);
      BoundCalculator calculator(
          fixture.table.partition().CountsPerSignature(target),
          fixture.table.activation_threshold());
      std::vector<double> bounds(num_entries);
      for (size_t i = 0; i < num_entries; ++i) {
        const OptimisticBounds b = calculator.Compute(summaries, i);
        bounds[i] = f->Evaluate(b.match_upper, b.dist_lower);
      }
      std::vector<uint32_t> expected(num_entries);
      std::iota(expected.begin(), expected.end(), 0u);
      std::stable_sort(expected.begin(), expected.end(),
                       [&bounds](uint32_t a, uint32_t b) {
                         return bounds[a] > bounds[b] ||
                                (std::isnan(bounds[b]) && !std::isnan(bounds[a]));
                       });
      engine.FindKNearest(target, *family, 4, traced, &context, &result);
      ASSERT_EQ(result.trace.size(), num_entries);
      EXPECT_EQ(TracedVisitOrder(fixture.table, result), expected)
          << family->name();
      for (size_t r = 0; r < num_entries; ++r) {
        const double bound = bounds[expected[r]];
        const double traced_bound = result.trace[r].optimistic_bound;
        EXPECT_TRUE(traced_bound == bound ||
                    (std::isnan(traced_bound) && std::isnan(bound)))
            << family->name() << " rank " << r;
      }
    }
  }
}

// --- Multi-target queries (paper §4.3) ---

TEST(BranchAndBoundTest, MultiTargetMatchesScanOracle) {
  Fixture fixture = MakeFixture(37, 9);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  SequentialScanner scanner(&fixture.db);
  MatchRatioFamily family;
  std::vector<Transaction> targets = {fixture.queries[0], fixture.queries[1],
                                      fixture.queries[2]};
  QueryContext context;
  NearestNeighborResult result;
  engine.FindKNearestMultiTarget(targets, family, 4, {}, &context, &result);
  auto oracle = scanner.FindKNearestMultiTarget(targets, family, 4);
  EXPECT_TRUE(result.stats.is_exact);
  EXPECT_TRUE(SameSimilarities(result.neighbors, oracle));
}

TEST(BranchAndBoundTest, MultiTargetCosineBindsEachTargetSize) {
  Fixture fixture = MakeFixture(41, 9);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  SequentialScanner scanner(&fixture.db);
  CosineFamily family;
  std::vector<Transaction> targets = {fixture.queries[3], fixture.queries[4]};
  QueryContext context;
  NearestNeighborResult result;
  engine.FindKNearestMultiTarget(targets, family, 3, {}, &context, &result);
  auto oracle = scanner.FindKNearestMultiTarget(targets, family, 3);
  EXPECT_TRUE(SameSimilarities(result.neighbors, oracle));
}

// --- Range queries (paper §4.3) ---

TEST(BranchAndBoundTest, RangeQueryMatchesScanOracle) {
  Fixture fixture = MakeFixture(43, 9);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  SequentialScanner scanner(&fixture.db);
  MatchRatioFamily family;
  for (double threshold : {0.25, 0.5, 1.0}) {
    for (size_t q = 0; q < 5; ++q) {
      auto result = engine.FindInRange(fixture.queries[q], family, threshold);
      auto oracle = scanner.FindInRange(fixture.queries[q], family, threshold);
      EXPECT_TRUE(result.stats.is_exact);
      ASSERT_EQ(result.matches.size(), oracle.size())
          << "threshold " << threshold << " query " << q;
      for (size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(result.matches[i].id, oracle[i].id);
      }
    }
  }
}

TEST(BranchAndBoundTest, RangeQueryPrunesEntries) {
  Fixture fixture = MakeFixture(47, 12, 1, 3000);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  MatchRatioFamily family;
  auto result = engine.FindInRange(fixture.queries[0], family, 2.0);
  EXPECT_GT(result.stats.entries_pruned, 0u);
}

TEST(BranchAndBoundTest, MultiRangeQueryIsConjunctive) {
  // "All transactions which have at least p items in common and at most q
  // items different from the target" (paper §2.1) — expressed as two custom
  // families over x and y.
  Fixture fixture = MakeFixture(53, 9);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  CustomFamily matches_family("matches", [](int x, int) {
    return static_cast<double>(x);
  });
  CustomFamily neg_hamming_family("neg_hamming", [](int, int y) {
    return -static_cast<double>(y);
  });
  const double min_matches = 3.0;
  const double max_hamming = 8.0;
  std::vector<const SimilarityFamily*> families = {&matches_family,
                                                   &neg_hamming_family};
  std::vector<double> thresholds = {min_matches, -max_hamming};

  for (size_t q = 0; q < 5; ++q) {
    const Transaction& target = fixture.queries[q];
    auto result = engine.FindInRangeMulti(target, families, thresholds);
    EXPECT_TRUE(result.stats.is_exact);

    // Brute-force the expected id set.
    std::vector<TransactionId> expected;
    for (TransactionId id = 0; id < fixture.db.size(); ++id) {
      size_t x = 0, y = 0;
      MatchAndHamming(target, fixture.db.Get(id), &x, &y);
      if (static_cast<double>(x) >= min_matches &&
          static_cast<double>(y) <= max_hamming) {
        expected.push_back(id);
      }
    }
    std::vector<TransactionId> got;
    for (const Neighbor& neighbor : result.matches) got.push_back(neighbor.id);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "query " << q;
  }
}

/// Per-entry range bounds as the paper defines them, for hand counts: each
/// entry's count-summary bound (BoundCalculator::Compute) under the first
/// family, and whether another family's bound rules the entry out although
/// the first family's reaches its threshold (a vetoed entry).
struct RangeEntryBounds {
  std::vector<double> first;
  std::vector<bool> vetoed;
};

RangeEntryBounds ComputeRangeEntryBounds(
    const Fixture& fixture, const Transaction& target,
    const std::vector<const SimilarityFamily*>& families,
    const std::vector<double>& thresholds) {
  BoundCalculator calculator(
      fixture.table.partition().CountsPerSignature(target),
      fixture.table.activation_threshold());
  std::vector<std::unique_ptr<SimilarityFunction>> functions;
  for (const SimilarityFamily* family : families) {
    functions.push_back(family->ForTarget(target));
  }
  const EntrySummaries summaries = fixture.table.summaries();
  RangeEntryBounds bounds;
  for (size_t i = 0; i < fixture.table.entries().size(); ++i) {
    const OptimisticBounds b = calculator.Compute(summaries, i);
    bounds.first.push_back(functions[0]->Evaluate(b.match_upper, b.dist_lower));
    bool vetoed = false;
    for (size_t j = 1; j < functions.size(); ++j) {
      vetoed = vetoed || functions[j]->Evaluate(b.match_upper, b.dist_lower) <
                             thresholds[j];
    }
    bounds.vetoed.push_back(bounds.first.back() >= thresholds[0] && vetoed);
  }
  return bounds;
}

/// The certificate of a range query whose entry cap stopped it after
/// `max_entries` scanned entries, visiting the entries in `order`: the
/// largest first-family bound over the entries it did not scan, leaving out
/// the entries it visited and vetoed (they hold no qualifying row).
double CappedRangeCertificate(const RangeEntryBounds& bounds,
                              const std::vector<uint32_t>& order,
                              double threshold, size_t max_entries) {
  size_t scanned = 0;
  double certificate = -std::numeric_limits<double>::infinity();
  for (uint32_t i : order) {
    if (bounds.first[i] >= threshold && scanned < max_entries) {
      if (!bounds.vetoed[i]) ++scanned;
      continue;
    }
    certificate = std::max(certificate, bounds.first[i]);
  }
  return certificate;
}

TEST(BranchAndBoundTest, RangeQueryScansAnEntryBoundedAtTheThreshold) {
  // f = x makes an entry's bound its M'. With the threshold at an entry's
  // M' and a row of that entry attaining it, the entry must be scanned and
  // the row returned: the range test is f >= τ, so the prune is strict.
  Fixture fixture = MakeFixture(67, 9);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  CustomFamily matches_family("matches", [](int x, int) {
    return static_cast<double>(x);
  });
  const EntrySummaries summaries = fixture.table.summaries();
  size_t checked = 0;
  for (const Transaction& target : fixture.queries) {
    BoundCalculator calculator(
        fixture.table.partition().CountsPerSignature(target),
        fixture.table.activation_threshold());
    // The entry with the largest M' that one of its rows attains.
    int threshold = 0;
    std::vector<TransactionId> attaining;
    for (size_t i = 0; i < fixture.table.entries().size(); ++i) {
      const int bound = calculator.Compute(summaries, i).match_upper;
      if (bound <= threshold) continue;
      std::vector<TransactionId> rows;
      for (TransactionId id : fixture.table.EntryTransactions(i, nullptr)) {
        size_t x = 0, y = 0;
        MatchAndHamming(target, fixture.db.Get(id), &x, &y);
        if (static_cast<int>(x) == bound) rows.push_back(id);
      }
      if (rows.empty()) continue;
      threshold = bound;
      attaining = std::move(rows);
    }
    if (threshold == 0) continue;
    ++checked;

    RangeQueryResult result = engine.FindInRange(
        target, matches_family, static_cast<double>(threshold));
    EXPECT_TRUE(result.stats.is_exact);
    size_t bounded_at_or_above = 0;
    for (size_t i = 0; i < fixture.table.entries().size(); ++i) {
      bounded_at_or_above +=
          calculator.Compute(summaries, i).match_upper >= threshold;
    }
    EXPECT_EQ(result.stats.entries_scanned, bounded_at_or_above);
    for (TransactionId id : attaining) {
      const bool returned =
          std::any_of(result.matches.begin(), result.matches.end(),
                      [&](const Neighbor& match) {
                        return match.id == id && match.similarity == threshold;
                      });
      EXPECT_TRUE(returned) << "row " << id << " at x = " << threshold;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(BranchAndBoundTest, RangeQueryEntryCountsMatchAHandCount) {
  Fixture fixture = MakeFixture(71, 9);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  MatchRatioFamily match_ratio;
  CustomFamily matches_family("matches", [](int x, int) {
    return static_cast<double>(x);
  });
  CustomFamily neg_hamming_family("neg_hamming", [](int, int y) {
    return -static_cast<double>(y);
  });
  const std::vector<std::pair<std::vector<const SimilarityFamily*>,
                              std::vector<double>>>
      queries = {{{&match_ratio}, {0.5}},
                 {{&matches_family, &neg_hamming_family}, {3.0, -8.0}}};
  for (const auto& [families, thresholds] : queries) {
    for (size_t q = 0; q < 5; ++q) {
      const Transaction& target = fixture.queries[q];
      const RangeEntryBounds bounds =
          ComputeRangeEntryBounds(fixture, target, families, thresholds);
      uint64_t scanned = 0, rows = 0;
      for (size_t i = 0; i < bounds.first.size(); ++i) {
        if (bounds.first[i] >= thresholds[0] && !bounds.vetoed[i]) {
          ++scanned;
          rows += fixture.table.entries()[i].transaction_count;
        }
      }
      RangeQueryResult result =
          engine.FindInRangeMulti(target, families, thresholds);
      EXPECT_TRUE(result.stats.is_exact);
      EXPECT_EQ(result.stats.entries_scanned, scanned) << "query " << q;
      EXPECT_EQ(result.stats.entries_pruned, bounds.first.size() - scanned)
          << "query " << q;
      EXPECT_EQ(result.stats.entries_unexplored, 0u);
      EXPECT_EQ(result.stats.transactions_evaluated, rows);
    }
  }
}

TEST(BranchAndBoundTest, BudgetedRangeQueryCertifiesTheHighestBoundsLeft) {
  // Under an entry cap the range query has scanned the highest-bounded
  // entries, so its certificate is the largest bound it left unscanned —
  // never above what the same cap gives when visiting in index order.
  Fixture fixture = MakeFixture(73, 9, 1, 2000);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  MatchRatioFamily match_ratio;
  CustomFamily matches_family("matches", [](int x, int) {
    return static_cast<double>(x);
  });
  CustomFamily neg_hamming_family("neg_hamming", [](int, int y) {
    return -static_cast<double>(y);
  });
  const std::vector<std::pair<std::vector<const SimilarityFamily*>,
                              std::vector<double>>>
      queries = {{{&match_ratio}, {0.25}},
                 {{&matches_family, &neg_hamming_family}, {2.0, -10.0}}};
  for (const auto& [families, thresholds] : queries) {
    for (size_t q = 0; q < 4; ++q) {
      const Transaction& target = fixture.queries[q];
      const RangeEntryBounds bounds =
          ComputeRangeEntryBounds(fixture, target, families, thresholds);
      std::vector<uint32_t> index_order(bounds.first.size());
      std::iota(index_order.begin(), index_order.end(), 0u);
      std::vector<uint32_t> bound_order = index_order;
      std::stable_sort(bound_order.begin(), bound_order.end(),
                       [&](uint32_t a, uint32_t b) {
                         return bounds.first[a] > bounds.first[b];
                       });
      for (uint64_t max_entries : {1u, 2u, 4u}) {
        SearchOptions options;
        options.budget.max_entries = max_entries;
        RangeQueryResult result =
            engine.FindInRangeMulti(target, families, thresholds, options);
        for (const Neighbor& match : result.matches) {
          EXPECT_GE(match.similarity, thresholds[0]);
        }
        const double expected = CappedRangeCertificate(
            bounds, bound_order, thresholds[0], max_entries);
        EXPECT_EQ(result.stats.certificate_bound, expected)
            << "query " << q << " cap " << max_entries;
        EXPECT_EQ(result.stats.is_exact, expected < thresholds[0]);
        EXPECT_LE(expected, CappedRangeCertificate(bounds, index_order,
                                                   thresholds[0], max_entries));
      }
    }
  }
}

TEST(BranchAndBoundTest, RejectsMismatchedUniverse) {
  Fixture fixture = MakeFixture(59, 8);
  TransactionDatabase other(999);
  EXPECT_DEATH(BranchAndBoundEngine(&other, &fixture.table), "universe");
}

TEST(BranchAndBoundTest, RejectsLayoutThatMissesTableRows) {
  // A table is immutable, so the layout is checked once, when it is bound:
  // one built over a prefix of the indexed rows is refused up front.
  Fixture fixture = MakeFixture(61, 8);
  TransactionDatabase prefix(fixture.db.universe_size());
  for (TransactionId id = 0; id < fixture.db.size() / 2; ++id) {
    prefix.Add(fixture.db.Get(id));
  }
  const CandidateLayout layout = CandidateLayout::Build(prefix);
  EXPECT_DEATH(BranchAndBoundEngine(&fixture.db, &fixture.table, &layout),
               "cover");
}

// --- Gap-bounded approximate search (paper §4.2, second mode) ---

TEST(OptimalityGapTest, GapZeroIsExactAndGapBoundsHold) {
  QuestGenerator generator(GeneratorConfig(317));
  TransactionDatabase db = generator.GenerateDatabase(2000);
  IndexBuildConfig build;
  build.clustering.target_cardinality = 10;
  SignatureTable table = BuildIndex(db, build);
  BranchAndBoundEngine engine(&db, &table);
  SequentialScanner scanner(&db);
  MatchRatioFamily family;

  for (int q = 0; q < 8; ++q) {
    Transaction target = generator.NextTransaction();
    auto oracle = scanner.FindKNearest(target, family, 1);
    for (double gap : {0.0, 0.1, 0.5}) {
      SearchOptions options;
      options.optimality_gap = gap;
      auto result = engine.FindKNearest(target, family, 1, options);
      double found = result.neighbors[0].similarity;
      double truth = oracle[0].similarity;
      if (std::isinf(truth)) {
        // Identical transaction exists; inf bounds prune only at inf.
        EXPECT_TRUE(std::isinf(found));
        continue;
      }
      EXPECT_GE(found + gap, truth) << "gap " << gap << " violated";
      if (gap == 0.0) {
        EXPECT_EQ(found, truth);
        EXPECT_TRUE(result.stats.is_exact);
      }
      // The uniform quality bound must always hold.
      EXPECT_GE(std::max(found, result.stats.certificate_bound), truth);
    }
  }
}

TEST(OptimalityGapTest, LargerGapPrunesMore) {
  QuestGenerator generator(GeneratorConfig(331));
  TransactionDatabase db = generator.GenerateDatabase(3000);
  IndexBuildConfig build;
  build.clustering.target_cardinality = 10;
  SignatureTable table = BuildIndex(db, build);
  BranchAndBoundEngine engine(&db, &table);
  MatchRatioFamily family;

  uint64_t evaluated_exact = 0, evaluated_gap = 0;
  for (int q = 0; q < 10; ++q) {
    Transaction target = generator.NextTransaction();
    evaluated_exact +=
        engine.FindKNearest(target, family, 1).stats.transactions_evaluated;
    SearchOptions options;
    options.optimality_gap = 0.5;
    auto result = engine.FindKNearest(target, family, 1, options);
    evaluated_gap += result.stats.transactions_evaluated;
  }
  EXPECT_LT(evaluated_gap, evaluated_exact);
}

TEST(OptimalityGapTest, RejectsNegativeGap) {
  QuestGenerator generator(GeneratorConfig(337));
  TransactionDatabase db = generator.GenerateDatabase(50);
  IndexBuildConfig build;
  build.clustering.target_cardinality = 4;
  SignatureTable table = BuildIndex(db, build);
  BranchAndBoundEngine engine(&db, &table);
  MatchRatioFamily family;
  SearchOptions options;
  options.optimality_gap = -0.1;
  EXPECT_DEATH(engine.FindKNearest(generator.NextTransaction(), family, 1,
                                  options),
               "non-negative");
}

}  // namespace
}  // namespace mbi
