#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <vector>

#include "baseline/inverted_index.h"
#include "baseline/sequential_scan.h"
#include "core/branch_and_bound.h"
#include "core/index_builder.h"
#include "core/query_context.h"
#include "dyn/dynamic_index.h"
#include "engine/engine.h"
#include "gen/quest_generator.h"
#include "util/alloc_guard.h"
#include "util/deadline_clock.h"

namespace mbi {
namespace {

/// Deadlines, cancellation, and entry budgets: on expiry every query path
/// must return a *certified degraded answer* — never crash, never come back
/// structurally empty — whose certificate (QueryStats::certificate_bound)
/// upper-bounds everything the query did not look at (paper §4.2's
/// a-posteriori guarantee, Lemma 2.1).

constexpr double kInf = std::numeric_limits<double>::infinity();

TransactionDatabase MakeDatabase(size_t rows, uint64_t seed = 4242) {
  QuestGeneratorConfig config;
  config.universe_size = 200;
  config.num_large_itemsets = 40;
  config.seed = seed;
  QuestGenerator generator(config);
  return generator.GenerateDatabase(rows);
}

SignatureTable BuildOver(const TransactionDatabase& db, uint32_t k = 8) {
  IndexBuildConfig build;
  build.clustering.target_cardinality = k;
  return BuildIndex(db, build);
}

Transaction QueryTarget(uint64_t seed = 77) {
  QuestGeneratorConfig config;
  config.universe_size = 200;
  config.num_large_itemsets = 40;
  config.seed = seed;
  QuestGenerator generator(config);
  return generator.GenerateQueries(1)[0];
}

/// The certificate contract (Lemma 2.1 applied a posteriori): every true
/// top-k neighbor the degraded answer does NOT return must be bounded by
/// max(k-th returned similarity, certificate). Returned neighbors are
/// covered by being in the answer — an exact duplicate with +inf similarity
/// that the first scanned entry happened to hold is fine.
void ExpectCertificateDominates(const NearestNeighborResult& result,
                                const std::vector<Neighbor>& oracle,
                                size_t k) {
  ASSERT_FALSE(result.neighbors.empty())
      << "degraded answers must never be structurally empty";
  const double kth_found = result.neighbors.back().similarity;
  const double reachable = std::max(kth_found, result.stats.certificate_bound);
  const size_t limit = std::min(k, oracle.size());
  for (size_t i = 0; i < limit; ++i) {
    const bool returned = std::any_of(
        result.neighbors.begin(), result.neighbors.end(),
        [&](const Neighbor& n) { return n.id == oracle[i].id; });
    if (returned) continue;
    EXPECT_GE(reachable, oracle[i].similarity)
        << "certificate misses oracle neighbor " << i;
  }
}

TEST(QueryBudgetTest, TightestMergePicksEveryMinimum) {
  ManualClock clock(100.0);
  QueryBudget a;
  a.deadline_us = 500.0;
  QueryBudget b;
  b.max_entries = 7;
  b.clock = &clock;
  QueryBudget merged = QueryBudget::Tightest(a, b);
  EXPECT_EQ(merged.deadline_us, 500.0);
  EXPECT_EQ(merged.max_entries, 7u);
  EXPECT_EQ(merged.clock, &clock);
  EXPECT_TRUE(merged.limited());
  EXPECT_FALSE(QueryBudget{}.limited());
}

TEST(QueryBudgetTest, WithDeadlineAfterMsUsesTheInjectedClock) {
  ManualClock clock(1000.0);
  QueryBudget budget = QueryBudget::WithDeadlineAfterMs(2.0, &clock);
  EXPECT_DOUBLE_EQ(budget.deadline_us, 3000.0);
  EXPECT_FALSE(budget.deadline_expired());
  clock.AdvanceUs(2500.0);
  EXPECT_TRUE(budget.deadline_expired());
}

TEST(QueryBudgetTest, PreExpiredDeadlineStillAnswersWithCertificate) {
  TransactionDatabase db = MakeDatabase(2000);
  SignatureTable table = BuildOver(db);
  BranchAndBoundEngine engine(&db, &table);
  SequentialScanner oracle_scanner(&db);
  MatchRatioFamily family;
  const Transaction target = QueryTarget();
  const size_t k = 5;

  ManualClock clock(1000.0);
  SearchOptions options;
  options.budget.clock = &clock;
  options.budget.deadline_us = 0.0;  // expired before the query even starts

  NearestNeighborResult result = engine.FindKNearest(target, family, k,
                                                     options);
  EXPECT_EQ(result.stats.termination, QueryTermination::kDeadline);
  EXPECT_FALSE(result.stats.is_exact);
  // Min-one-entry guarantee: exactly one entry was scanned before the
  // budget check was allowed to fire.
  EXPECT_EQ(result.stats.entries_scanned, 1u);
  ExpectCertificateDominates(result,
                             oracle_scanner.FindKNearest(target, family, k),
                             k);
}

TEST(QueryBudgetTest, ManualClockWalksTheQueryIntoItsDeadline) {
  TransactionDatabase db = MakeDatabase(2000);
  SignatureTable table = BuildOver(db);
  BranchAndBoundEngine engine(&db, &table);
  MatchRatioFamily family;
  const Transaction target = QueryTarget();

  // Unbudgeted baseline: how many entries does the full query scan?
  NearestNeighborResult full = engine.FindKNearest(target, family, 5);
  ASSERT_GT(full.stats.entries_scanned, 2u)
      << "need a multi-entry query to observe mid-flight expiry";

  // 10us per budget check, deadline 35us out: the query gets a scripted,
  // exact number of checks before time runs out — no sleeping, no flakes.
  ManualClock clock(0.0, /*auto_advance_us=*/10.0);
  SearchOptions options;
  options.budget.clock = &clock;
  options.budget.deadline_us = 35.0;
  NearestNeighborResult result = engine.FindKNearest(target, family, 5,
                                                     options);
  EXPECT_EQ(result.stats.termination, QueryTermination::kDeadline);
  EXPECT_FALSE(result.stats.is_exact);
  EXPECT_LT(result.stats.entries_scanned, full.stats.entries_scanned);
  EXPECT_GE(result.stats.entries_scanned, 1u);
}

TEST(QueryBudgetTest, DegradedAnswerIsDeterministic) {
  TransactionDatabase db = MakeDatabase(2000);
  SignatureTable table = BuildOver(db);
  BranchAndBoundEngine engine(&db, &table);
  CosineFamily family;
  const Transaction target = QueryTarget();

  auto run = [&] {
    ManualClock clock(0.0, /*auto_advance_us=*/7.0);
    SearchOptions options;
    options.budget.clock = &clock;
    options.budget.deadline_us = 50.0;
    return engine.FindKNearest(target, family, 5, options);
  };
  NearestNeighborResult first = run();
  NearestNeighborResult second = run();
  ASSERT_EQ(first.neighbors.size(), second.neighbors.size());
  for (size_t i = 0; i < first.neighbors.size(); ++i) {
    EXPECT_EQ(first.neighbors[i].id, second.neighbors[i].id);
    // Bit-identical, not approximately equal: the SIMD kernels guarantee
    // ISA-independent scores, so a scripted clock must reproduce the
    // degraded answer exactly (CI replays this under MBI_FORCE_ISA).
    EXPECT_EQ(first.neighbors[i].similarity, second.neighbors[i].similarity);
  }
  EXPECT_EQ(first.stats.certificate_bound, second.stats.certificate_bound);
  EXPECT_EQ(first.stats.entries_scanned, second.stats.entries_scanned);
}

TEST(QueryBudgetTest, CancellationTokenStopsTheQuery) {
  TransactionDatabase db = MakeDatabase(2000);
  SignatureTable table = BuildOver(db);
  BranchAndBoundEngine engine(&db, &table);
  SequentialScanner oracle_scanner(&db);
  InverseHammingFamily family;
  const Transaction target = QueryTarget();

  std::atomic<bool> cancel{true};  // cancelled before the query starts
  SearchOptions options;
  options.budget.cancel = &cancel;
  NearestNeighborResult result = engine.FindKNearest(target, family, 4,
                                                     options);
  EXPECT_EQ(result.stats.termination, QueryTermination::kCancelled);
  EXPECT_FALSE(result.stats.is_exact);
  ExpectCertificateDominates(result,
                             oracle_scanner.FindKNearest(target, family, 4),
                             4);
}

TEST(QueryBudgetTest, MaxEntriesCapsTheScan) {
  TransactionDatabase db = MakeDatabase(2000);
  SignatureTable table = BuildOver(db);
  BranchAndBoundEngine engine(&db, &table);
  MatchRatioFamily family;
  const Transaction target = QueryTarget();

  SearchOptions options;
  options.budget.max_entries = 2;
  NearestNeighborResult result = engine.FindKNearest(target, family, 5,
                                                     options);
  EXPECT_EQ(result.stats.entries_scanned, 2u);
  EXPECT_EQ(result.stats.termination, QueryTermination::kEntryBudget);
  EXPECT_FALSE(result.stats.is_exact);
}

TEST(QueryBudgetTest, ContextBudgetMergesTightestWins) {
  TransactionDatabase db = MakeDatabase(2000);
  SignatureTable table = BuildOver(db);
  BranchAndBoundEngine engine(&db, &table);
  MatchRatioFamily family;
  const Transaction target = QueryTarget();

  // The context carries the tight entry cap; the options budget is looser.
  QueryContext context;
  QueryBudget session;
  session.max_entries = 1;
  context.set_budget(session);
  SearchOptions options;
  options.budget.max_entries = 1000000;
  NearestNeighborResult result;
  engine.FindKNearest(target, family, 5, options, &context, &result);
  EXPECT_EQ(result.stats.entries_scanned, 1u);
  EXPECT_EQ(result.stats.termination, QueryTermination::kEntryBudget);
}

TEST(QueryBudgetTest, CompletedQueryReportsExactAndCompleted) {
  TransactionDatabase db = MakeDatabase(1000);
  SignatureTable table = BuildOver(db);
  BranchAndBoundEngine engine(&db, &table);
  MatchRatioFamily family;
  const Transaction target = QueryTarget();

  SearchOptions options;
  options.budget = QueryBudget::WithDeadlineAfterMs(60000.0);  // generous
  NearestNeighborResult result = engine.FindKNearest(target, family, 3,
                                                     options);
  EXPECT_EQ(result.stats.termination, QueryTermination::kCompleted);
  EXPECT_TRUE(result.stats.is_exact);
  // Exactness is certified *by* the bound: everything unevaluated (pruned
  // entries included) provably cannot beat the k-th returned similarity.
  EXPECT_LE(result.stats.certificate_bound, result.neighbors.back().similarity);
}

TEST(QueryBudgetTest, RangeQueryCarriesTheCertificate) {
  TransactionDatabase db = MakeDatabase(2000);
  SignatureTable table = BuildOver(db);
  BranchAndBoundEngine engine(&db, &table);
  MatchRatioFamily family;
  const Transaction target = QueryTarget();

  SearchOptions options;
  options.budget.max_entries = 1;
  RangeQueryResult result =
      engine.FindInRange(target, family, 0.2, options);
  EXPECT_EQ(result.stats.termination, QueryTermination::kEntryBudget);
  EXPECT_FALSE(result.stats.is_exact);
  for (const Neighbor& match : result.matches) {
    EXPECT_GE(match.similarity, 0.2);
  }
  // Unbudgeted, the same query completes exactly.
  RangeQueryResult full = engine.FindInRange(target, family, 0.2);
  EXPECT_EQ(full.stats.termination, QueryTermination::kCompleted);
  EXPECT_TRUE(full.stats.is_exact);
  EXPECT_GE(full.matches.size(), result.matches.size());
}

TEST(QueryBudgetTest, SequentialScannerBudgetedScanCertifies) {
  TransactionDatabase db = MakeDatabase(3000);
  SequentialScanner scanner(&db);
  MatchRatioFamily family;
  const Transaction target = QueryTarget();
  const size_t k = 5;

  QueryBudget budget;
  budget.max_entries = 1;  // rows; the min-one-chunk rule rounds up
  NearestNeighborResult result;
  scanner.FindKNearest(target, family, k, budget, &result);
  EXPECT_EQ(result.stats.termination, QueryTermination::kEntryBudget);
  EXPECT_FALSE(result.stats.is_exact);
  // Row-unit contract (DESIGN.md §13): entries_* count rows on the scan
  // path, so scanned == evaluated, and total is the database size.
  EXPECT_EQ(result.stats.entries_scanned, SequentialScanner::kScanChunk);
  EXPECT_EQ(result.stats.transactions_evaluated, SequentialScanner::kScanChunk);
  EXPECT_EQ(result.stats.entries_scanned, result.stats.transactions_evaluated);
  EXPECT_EQ(result.stats.entries_total, db.size());
  // f(|target|, 0) is a pointwise optimistic bound for every admissible
  // similarity, so it must dominate every score in the database.
  auto f = family.ForTarget(target);
  EXPECT_EQ(result.stats.certificate_bound,
            f->Evaluate(static_cast<int>(target.size()), 0));
  ExpectCertificateDominates(result, scanner.FindKNearest(target, family, k),
                             k);

  // Unlimited budget through the same entry point: exact, full coverage.
  NearestNeighborResult full;
  scanner.FindKNearest(target, family, k, QueryBudget{}, &full);
  EXPECT_TRUE(full.stats.is_exact);
  EXPECT_EQ(full.stats.termination, QueryTermination::kCompleted);
  std::vector<Neighbor> oracle = scanner.FindKNearest(target, family, k);
  ASSERT_EQ(full.neighbors.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(full.neighbors[i].id, oracle[i].id);
    EXPECT_EQ(full.neighbors[i].similarity, oracle[i].similarity);
  }
}

TEST(QueryBudgetTest, InvertedIndexRerankHonorsTheBudget) {
  TransactionDatabase db = MakeDatabase(3000);
  InvertedIndex index(&db);
  MatchRatioFamily family;
  const Transaction target = QueryTarget();

  QueryBudget budget;
  budget.max_entries = 1;
  InvertedIndex::Result limited = index.FindKNearest(target, family, 5,
                                                     budget);
  if (limited.stats.termination == QueryTermination::kEntryBudget) {
    EXPECT_FALSE(limited.stats.is_exact);
    // Row units: one full re-rank slice was scored before the budget hit.
    EXPECT_EQ(limited.stats.entries_scanned, InvertedIndex::kScanChunk);
    auto f = family.ForTarget(target);
    EXPECT_EQ(limited.stats.certificate_bound,
              f->Evaluate(static_cast<int>(target.size()), 0));
  } else {
    // Fewer candidates than one chunk: the budget never came into play.
    EXPECT_EQ(limited.stats.termination, QueryTermination::kCompleted);
  }
  InvertedIndex::Result full = index.FindKNearest(target, family, 5);
  EXPECT_TRUE(full.stats.is_exact);
}

TEST(QueryBudgetTest, QuarantineFallbackPropagatesTerminationStats) {
  // Regression: the fallback path used to rebuild QueryStats by hand and
  // silently dropped the termination / certificate fields the scanner had
  // filled in. An engine with no index at all serves every query through
  // the fallback, which makes the drop observable.
  TransactionDatabase db = MakeDatabase(3000);
  SignatureTableEngine engine(&db);
  ASSERT_FALSE(engine.healthy());
  MatchRatioFamily family;
  const Transaction target = QueryTarget();

  ManualClock clock(500.0);
  SearchOptions options;
  options.budget.clock = &clock;
  options.budget.deadline_us = 0.0;  // pre-expired
  NearestNeighborResult result = engine.FindKNearest(target, family, 5,
                                                     options);
  EXPECT_EQ(result.stats.sequential_fallbacks, 1u);
  EXPECT_EQ(result.stats.termination, QueryTermination::kDeadline);
  EXPECT_FALSE(result.stats.is_exact);
  EXPECT_FALSE(result.neighbors.empty());
  EXPECT_GT(result.stats.certificate_bound, -kInf);
  EXPECT_EQ(engine.fallback_queries(), 1u);

  // Same drop risk on the range fallback.
  RangeQueryResult range = engine.FindInRange(target, family, 0.1, options);
  EXPECT_EQ(range.stats.sequential_fallbacks, 1u);
  EXPECT_EQ(range.stats.termination, QueryTermination::kDeadline);
  EXPECT_FALSE(range.stats.is_exact);
}

TEST(QueryBudgetTest, BudgetedSteadyStateAllocatesNothing) {
  TransactionDatabase db = MakeDatabase(2000);
  SignatureTable table = BuildOver(db);
  BranchAndBoundEngine engine(&db, &table);
  MatchRatioFamily family;
  const Transaction target = QueryTarget();

  ManualClock clock(0.0, /*auto_advance_us=*/1.0);
  SearchOptions options;
  options.budget.clock = &clock;
  options.budget.deadline_us = 1e9;
  options.budget.max_entries = 4;

  QueryContext context;
  NearestNeighborResult result;
  // Warm-up grows every scratch buffer to its high-water mark.
  engine.FindKNearest(target, family, 5, options, &context, &result);
  {
    ScopedAllocationBan ban("budget-limited FindKNearest steady state");
    for (int i = 0; i < 10; ++i) {
      engine.FindKNearest(target, family, 5, options, &context, &result);
    }
  }
  EXPECT_EQ(result.stats.termination, QueryTermination::kEntryBudget);
  EXPECT_FALSE(result.stats.is_exact);
}

TEST(QueryBudgetTest, EngineCountsDegradedAndExpiredQueries) {
  TransactionDatabase db = MakeDatabase(1000);
  SignatureTableEngine engine(&db);
  engine.AdoptTable(BuildOver(db));
  MetricsRegistry registry;
  engine.set_metrics(&registry);
  MatchRatioFamily family;
  const Transaction target = QueryTarget();

  ManualClock clock(500.0);
  SearchOptions options;
  options.budget.clock = &clock;
  options.budget.deadline_us = 0.0;
  (void)engine.FindKNearest(target, family, 3, options);
  (void)engine.FindKNearest(target, family, 3);  // healthy, unlimited

  const Counter* degraded = registry.FindCounter("mbi.engine.query.degraded");
  const Counter* expired =
      registry.FindCounter("mbi.engine.query.deadline_expired");
  ASSERT_NE(degraded, nullptr);
  ASSERT_NE(expired, nullptr);
  EXPECT_EQ(degraded->value(), 1u);
  EXPECT_EQ(expired->value(), 1u);
}

TEST(QueryBudgetTest, DynamicIndexReportsTheCapWhenCapAndDeadlineTripTogether) {
  // Every budget poll tests cancel -> entry cap -> deadline
  // (QueryBudget::Check), the dyn buffer scan and the fan-out skip included:
  // a check at which the cap and an expired deadline both trip reports the
  // cap.
  QuestGeneratorConfig config;
  config.universe_size = 200;
  config.num_large_itemsets = 40;
  config.seed = 4242;
  QuestGenerator generator(config);
  MatchRatioFamily family;
  const Transaction target = QueryTarget();
  ManualClock clock(1000.0);
  SearchOptions options;
  options.budget.clock = &clock;
  options.budget.deadline_us = 0.0;

  // Buffer scan: 300 buffered rows; the second chunk's check sees both.
  DynamicIndexOptions buffered_only;
  buffered_only.buffer_capacity = 512;
  DynamicIndex buffer_index(200, buffered_only);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(buffer_index.Insert(generator.NextTransaction()).ok());
  }
  ASSERT_EQ(buffer_index.num_components(), 0u);
  options.budget.max_entries = SequentialScanner::kScanChunk;
  NearestNeighborResult from_buffer =
      buffer_index.FindKNearest(target, family, 5, options);
  EXPECT_EQ(from_buffer.stats.termination, QueryTermination::kEntryBudget);
  EXPECT_EQ(from_buffer.stats.entries_scanned, SequentialScanner::kScanChunk);
  EXPECT_FALSE(from_buffer.stats.is_exact);

  // Fan-out skip: the buffer's 5 rows use up the cap of 5, so the first
  // component's check sees both.
  DynamicIndexOptions small;
  small.buffer_capacity = 8;
  small.level_fanout = 2;
  small.build.clustering.target_cardinality = 6;
  DynamicIndex index(200, small);
  for (int i = 0; i < 21; ++i) {
    ASSERT_TRUE(index.Insert(generator.NextTransaction()).ok());
  }
  ASSERT_EQ(index.buffered_rows(), 5u);
  ASSERT_GT(index.num_components(), 0u);
  options.budget.max_entries = 5;
  NearestNeighborResult fanned = index.FindKNearest(target, family, 5, options);
  EXPECT_EQ(fanned.stats.termination, QueryTermination::kEntryBudget);
  EXPECT_EQ(fanned.stats.entries_scanned, 5u);
  EXPECT_EQ(fanned.stats.entries_unexplored, 16u);
  EXPECT_FALSE(fanned.stats.is_exact);
}

}  // namespace
}  // namespace mbi
