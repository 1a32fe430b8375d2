// QueryContext reuse semantics: a context carries buffers between queries
// but never *state* — every query answered through a reused context must be
// bit-identical to one answered through a fresh context, across changes of
// target, k, similarity family, sort order, and target count, and under
// concurrent batch execution on shared pools. Also covers the deterministic
// parallel bound computation (bound_pool) and the caller-owned-pool batch
// overload.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/batch_query.h"
#include "core/branch_and_bound.h"
#include "core/index_builder.h"
#include "core/query_context.h"
#include "core/supercoordinate.h"
#include "engine/engine.h"
#include "gen/quest_generator.h"
#include "reference_knn.h"
#include "util/alloc_guard.h"
#include "util/thread_pool.h"

namespace mbi {
namespace {

struct Fixture {
  TransactionDatabase db;
  SignatureTable table;
  std::vector<Transaction> queries;
};

Fixture MakeFixture(uint64_t seed, uint32_t cardinality, uint64_t db_size,
                    uint64_t num_queries) {
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
  SignatureTable table = BuildIndex(db, build);
  auto queries = generator.GenerateQueries(num_queries);
  return {std::move(db), std::move(table), std::move(queries)};
}

void ExpectSameResult(const NearestNeighborResult& a,
                      const NearestNeighborResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.neighbors.size(), b.neighbors.size()) << label;
  for (size_t i = 0; i < a.neighbors.size(); ++i) {
    EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id) << label;
    EXPECT_EQ(a.neighbors[i].similarity, b.neighbors[i].similarity) << label;
  }
  EXPECT_EQ(a.stats.termination, b.stats.termination) << label;
  EXPECT_EQ(a.stats.is_exact, b.stats.is_exact) << label;
  EXPECT_EQ(a.stats.certificate_bound, b.stats.certificate_bound) << label;
  EXPECT_EQ(a.stats.entries_scanned, b.stats.entries_scanned) << label;
  EXPECT_EQ(a.stats.entries_pruned, b.stats.entries_pruned) << label;
  EXPECT_EQ(a.stats.transactions_evaluated, b.stats.transactions_evaluated)
      << label;
  EXPECT_EQ(a.stats.io.pages_read, b.stats.io.pages_read) << label;
}

/// Interleaves queries of different shape through ONE context and checks
/// each against a context-free call: any state leaking from a previous
/// query (stale heap entries, oversized calculator tables, leftover packed
/// bits from a larger target) would surface as a mismatch.
TEST(QueryContextTest, InterleavedShapesMatchFreshContexts) {
  Fixture fixture = MakeFixture(101, 9, 1200, 8);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  auto hamming = MakeSimilarityFamily("hamming");
  auto match_ratio = MakeSimilarityFamily("match_ratio");
  auto cosine = MakeSimilarityFamily("cosine");
  const SimilarityFamily* families[] = {hamming.get(), match_ratio.get(),
                                        cosine.get()};
  const size_t ks[] = {1, 3, 9, 2};
  const EntrySortOrder orders[] = {EntrySortOrder::kOptimisticBound,
                                   EntrySortOrder::kSupercoordinateSimilarity};

  QueryContext reused;
  for (size_t round = 0; round < 3; ++round) {
    for (size_t q = 0; q < fixture.queries.size(); ++q) {
      const SimilarityFamily& family = *families[(round + q) % 3];
      SearchOptions options;
      options.sort_order = orders[q % 2];
      options.max_access_fraction = (q % 3 == 2) ? 0.1 : 1.0;
      size_t k = ks[(round + q) % 4];
      NearestNeighborResult with_context;
      engine.FindKNearest(fixture.queries[q], family, k, options, &reused,
                          &with_context);
      NearestNeighborResult fresh =
          engine.FindKNearest(fixture.queries[q], family, k, options);
      ExpectSameResult(with_context, fresh,
                       "round " + std::to_string(round) + " q " +
                           std::to_string(q));
    }
  }
}

/// Shrinking the target count (3 targets, then 1) must not leave the two
/// stale per-target bindings participating in the next query.
TEST(QueryContextTest, MultiTargetToSingleTargetDoesNotLeak) {
  Fixture fixture = MakeFixture(202, 8, 900, 6);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  auto family = MakeSimilarityFamily("cosine");

  QueryContext context;
  std::vector<Transaction> many(fixture.queries.begin(),
                                fixture.queries.begin() + 3);
  NearestNeighborResult multi;
  engine.FindKNearestMultiTarget(many, *family, 4, {}, &context, &multi);

  NearestNeighborResult with_context;
  engine.FindKNearest(fixture.queries[4], *family, 4, {}, &context,
                      &with_context);
  NearestNeighborResult fresh =
      engine.FindKNearest(fixture.queries[4], *family, 4);
  ExpectSameResult(with_context, fresh, "after multi-target");

  // And back up to multi-target, which must match the reference path.
  engine.FindKNearestMultiTarget(many, *family, 4, {}, &context, &multi);
  NearestNeighborResult multi_ref = FindKNearestMultiTargetReference(
      fixture.db, fixture.table, many, *family, 4);
  ExpectSameResult(multi, multi_ref, "multi-target after single");
}

/// Parallel bound computation through a bound_pool must be deterministic and
/// bit-identical to the serial path, for any thread count and chunk size.
/// The thresholds are lowered so the parallel path actually runs on this
/// small test table.
TEST(QueryContextTest, ParallelBoundComputationIsDeterministic) {
  Fixture fixture = MakeFixture(303, 10, 1500, 6);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  auto family = MakeSimilarityFamily("match_ratio");

  for (size_t threads : {1u, 2u, 5u}) {
    ThreadPool pool(threads);
    for (size_t chunk : {1u, 7u, 64u, 100000u}) {
      QueryContext context;
      context.set_bound_pool(&pool);
      context.set_parallel_bound_min_entries(1);
      context.set_parallel_bound_chunk(chunk);
      for (const Transaction& target : fixture.queries) {
        SearchOptions options;
        options.collect_trace = true;
        NearestNeighborResult parallel;
        engine.FindKNearest(target, *family, 5, options, &context, &parallel);
        NearestNeighborResult serial =
            engine.FindKNearest(target, *family, 5, options);
        ExpectSameResult(parallel, serial,
                         "threads=" + std::to_string(threads) +
                             " chunk=" + std::to_string(chunk));
        ASSERT_EQ(parallel.trace.size(), serial.trace.size());
        for (size_t i = 0; i < parallel.trace.size(); ++i) {
          EXPECT_EQ(parallel.trace[i].optimistic_bound,
                    serial.trace[i].optimistic_bound);
        }
      }
    }
  }
}

TEST(QueryContextTest, BatchMatchesSerialWithAndWithoutCallerPool) {
  Fixture fixture = MakeFixture(404, 9, 1000, 24);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  auto family = MakeSimilarityFamily("hamming");
  SearchOptions options;
  options.max_access_fraction = 0.5;

  std::vector<NearestNeighborResult> serial;
  for (const Transaction& target : fixture.queries) {
    serial.push_back(engine.FindKNearest(target, *family, 6, options));
  }

  std::vector<NearestNeighborResult> owned_pool_batch =
      FindKNearestBatch(engine, fixture.queries, *family, 6, options,
                        /*num_threads=*/4);
  ASSERT_EQ(owned_pool_batch.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ExpectSameResult(owned_pool_batch[i], serial[i],
                     "temp pool, query " + std::to_string(i));
  }

  ThreadPool pool(4);
  std::vector<NearestNeighborResult> caller_pool_batch = FindKNearestBatch(
      engine, fixture.queries, *family, 6, options, /*num_threads=*/0, &pool);
  ASSERT_EQ(caller_pool_batch.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ExpectSameResult(caller_pool_batch[i], serial[i],
                     "caller pool, query " + std::to_string(i));
  }
}

/// Several batches in flight on one shared pool (stress_concurrency_test
/// style): per-shard contexts must not interfere across batches, and every
/// batch must return the same results as its serial run.
TEST(QueryContextTest, ConcurrentBatchesShareOnePool) {
  Fixture fixture = MakeFixture(505, 8, 800, 12);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  auto hamming = MakeSimilarityFamily("hamming");
  auto cosine = MakeSimilarityFamily("cosine");

  std::vector<NearestNeighborResult> serial_hamming, serial_cosine;
  for (const Transaction& target : fixture.queries) {
    serial_hamming.push_back(engine.FindKNearest(target, *hamming, 3));
    serial_cosine.push_back(engine.FindKNearest(target, *cosine, 5));
  }

  ThreadPool batch_pool(6);
  constexpr size_t kLaunchers = 4;
  std::vector<std::vector<NearestNeighborResult>> outputs(kLaunchers);
  std::atomic<int> failures{0};
  {
    // Launch the batches themselves from separate threads so they contend
    // for the shared pool simultaneously.
    std::vector<std::thread> launchers;
    launchers.reserve(kLaunchers);
    for (size_t b = 0; b < kLaunchers; ++b) {
      launchers.emplace_back([&, b] {
        const SimilarityFamily& family = (b % 2 == 0) ? *hamming : *cosine;
        size_t k = (b % 2 == 0) ? 3 : 5;
        outputs[b] = FindKNearestBatch(engine, fixture.queries, family, k, {},
                                       /*num_threads=*/0, &batch_pool);
        if (outputs[b].size() != fixture.queries.size()) failures.fetch_add(1);
      });
    }
    for (auto& t : launchers) t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  for (size_t b = 0; b < kLaunchers; ++b) {
    const auto& expected = (b % 2 == 0) ? serial_hamming : serial_cosine;
    ASSERT_EQ(outputs[b].size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ExpectSameResult(outputs[b][i], expected[i],
                       "batch " + std::to_string(b) + " query " +
                           std::to_string(i));
    }
  }
}

/// The MBI_HOT zero-allocation contract (util/hot_path.h), dynamically: once
/// a (context, result) pair is warm, repeating the same query sequence
/// through the result-out overloads must not touch the heap. mbi-lint proves
/// the hot path clean statically; this pins it at runtime via the debug-build
/// allocation interposer. In release builds (guard inert) the test still runs
/// the sequence and checks results, it just can't observe allocations.
///
/// One context per family: RebindTarget reuses a warm function object only
/// when the family matches the previous binding, so alternating families
/// through one context would (correctly) re-allocate the function.
TEST(QueryContextTest, SteadyStateQueriesDoNotAllocate) {
  Fixture fixture = MakeFixture(606, 9, 1000, 8);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  auto hamming = MakeSimilarityFamily("hamming");
  auto cosine = MakeSimilarityFamily("cosine");
  SearchOptions options;
  options.max_access_fraction = 0.5;

  QueryContext hamming_context;
  QueryContext cosine_context;
  NearestNeighborResult result;
  auto run_pass = [&] {
    for (const Transaction& target : fixture.queries) {
      engine.FindKNearest(target, *hamming, 5, options, &hamming_context,
                          &result);
      engine.FindKNearest(target, *cosine, 3, options, &cosine_context,
                          &result);
    }
  };
  run_pass();  // Cold pass: grows every buffer to its steady-state size.
  run_pass();  // Warm pass: confirms sizes are stable before the ban.

  const uint64_t before = AllocGuardViolations();
  {
    ScopedAllocationBan ban("steady-state FindKNearest");
    run_pass();
  }
  EXPECT_EQ(AllocGuardViolations(), before)
      << "warm FindKNearest allocated; AllocGuardEnabled()="
      << AllocGuardEnabled();

  // The banned pass must still produce correct answers.
  engine.FindKNearest(fixture.queries[0], *hamming, 5, options,
                      &hamming_context, &result);
  NearestNeighborResult fresh =
      engine.FindKNearest(fixture.queries[0], *hamming, 5, options);
  ExpectSameResult(result, fresh, "after banned passes");
}

/// The engine front door (SignatureTableEngine, the layer the CLI's
/// `query --repeat` drives) has the same steady state: a warm engine,
/// context and result answer repeat queries without allocating.
TEST(QueryContextTest, WarmEngineFrontDoorDoesNotAllocate) {
  Fixture fixture = MakeFixture(607, 9, 1000, 8);
  SignatureTableEngine engine(&fixture.db);
  engine.AdoptTable(std::move(fixture.table));
  ASSERT_TRUE(engine.healthy());
  auto hamming = MakeSimilarityFamily("hamming");
  SearchOptions options;
  options.max_access_fraction = 0.5;

  QueryContext context;
  NearestNeighborResult result;
  auto run_pass = [&] {
    for (const Transaction& target : fixture.queries) {
      engine.FindKNearest(target, *hamming, 5, options, &context, &result);
    }
  };
  run_pass();
  run_pass();

  const uint64_t before = AllocGuardViolations();
  {
    ScopedAllocationBan ban("warm SignatureTableEngine::FindKNearest");
    run_pass();
  }
  EXPECT_EQ(AllocGuardViolations(), before)
      << "warm engine front door allocated; AllocGuardEnabled()="
      << AllocGuardEnabled();

  NearestNeighborResult fresh =
      engine.FindKNearest(fixture.queries.back(), *hamming, 5, options);
  ExpectSameResult(result, fresh, "engine front door after banned pass");
}

/// The ordering scratch is sized by entry count, never by how many distinct
/// keys a query has. After warming on one target, three queries run
/// allocation-free: another target under the bound order, with more
/// distinct keys than any warm-up query; the same target under the
/// supercoordinate-similarity order, with more distinct keys than the
/// warm-up under that order; and then a second, smaller table through the
/// same context (how DynamicIndex reuses one context across its
/// components). The count-summary bounds take far more distinct values than
/// the supercoordinate similarities, so the second query cannot also beat
/// the warm-up's bound-order count.
TEST(QueryContextTest, OrderingScratchDoesNotAllocateOnceWarm) {
  Fixture large = MakeFixture(808, 9, 1500, 12);
  Fixture small = MakeFixture(809, 9, 300, 2);
  ASSERT_LT(small.table.entries().size(), large.table.entries().size());
  BranchAndBoundEngine large_engine(&large.db, &large.table);
  BranchAndBoundEngine small_engine(&small.db, &small.table);
  auto family = MakeSimilarityFamily("match_ratio");

  // Distinct keys per target under each order: the optimistic bounds,
  // read from an exact traced query (its trace records every entry), and
  // the supercoordinate similarities the alternative order ranks by.
  auto distinct_keys = [&](const Transaction& target) {
    SearchOptions traced;
    traced.collect_trace = true;
    NearestNeighborResult r =
        large_engine.FindKNearest(target, *family, 4, traced);
    EXPECT_EQ(r.trace.size(), large.table.entries().size());
    std::set<double> bounds;
    for (const EntryTrace& entry : r.trace) {
      bounds.insert(entry.optimistic_bound);
    }
    const Supercoordinate coordinate = ComputeSupercoordinate(
        target, large.table.partition(), large.table.activation_threshold());
    const auto function = family->ForTarget(target);
    std::set<double> similarities;
    for (const auto& entry : large.table.entries()) {
      int match = 0, hamming = 0;
      SupercoordinateMatchAndHamming(entry.coordinate, coordinate, &match,
                                     &hamming);
      similarities.insert(function->Evaluate(match, hamming));
    }
    return std::pair{bounds.size(), similarities.size()};
  };
  // Warm on the target whose larger count is smallest; query the one whose
  // smaller count is largest, which must beat the warm-up in each order,
  // and under the bound order every warm-up query.
  size_t warm = 0;
  size_t fresh = 0;
  std::vector<std::pair<size_t, size_t>> counts;
  for (size_t q = 0; q < large.queries.size(); ++q) {
    counts.push_back(distinct_keys(large.queries[q]));
    const auto [b, c] = counts[q];
    if (std::max(b, c) < std::max(counts[warm].first, counts[warm].second)) {
      warm = q;
    }
    if (std::min(b, c) > std::min(counts[fresh].first, counts[fresh].second)) {
      fresh = q;
    }
  }
  ASSERT_GT(counts[fresh].first,
            std::max(counts[warm].first, counts[warm].second));
  ASSERT_GT(counts[fresh].second, counts[warm].second);
  const Transaction& warm_target = large.queries[warm];
  const Transaction& new_target = large.queries[fresh];

  SearchOptions by_bound;
  SearchOptions by_coordinate;
  by_coordinate.sort_order = EntrySortOrder::kSupercoordinateSimilarity;
  QueryContext context;
  NearestNeighborResult result;
  // Warm-up on the one target: a k that scans every entry grows the
  // candidate buffers to the largest bucket, then both orders.
  large_engine.FindKNearest(warm_target, *family, large.db.size(), by_bound,
                            &context, &result);
  for (int pass = 0; pass < 2; ++pass) {
    large_engine.FindKNearest(warm_target, *family, 4, by_bound, &context,
                              &result);
    large_engine.FindKNearest(warm_target, *family, 4, by_coordinate,
                              &context, &result);
  }

  NearestNeighborResult more_keys;
  NearestNeighborResult coordinate_order;
  NearestNeighborResult small_table;
  more_keys.neighbors.reserve(4);
  coordinate_order.neighbors.reserve(4);
  small_table.neighbors.reserve(4);
  const uint64_t before = AllocGuardViolations();
  {
    ScopedAllocationBan ban("warm ordering scratch");
    large_engine.FindKNearest(new_target, *family, 4, by_bound, &context,
                              &more_keys);
    large_engine.FindKNearest(new_target, *family, 4, by_coordinate,
                              &context, &coordinate_order);
    small_engine.FindKNearest(new_target, *family, 4, by_bound, &context,
                              &small_table);
  }
  EXPECT_EQ(AllocGuardViolations(), before)
      << "a warm context allocated while ordering entries; "
         "AllocGuardEnabled()="
      << AllocGuardEnabled();

  ExpectSameResult(more_keys,
                   large_engine.FindKNearest(new_target, *family, 4, by_bound),
                   "more distinct keys");
  ExpectSameResult(
      coordinate_order,
      large_engine.FindKNearest(new_target, *family, 4, by_coordinate),
      "supercoordinate order");
  ExpectSameResult(small_table,
                   small_engine.FindKNearest(new_target, *family, 4, by_bound),
                   "smaller table");
}

/// Same contract for the batch entry point: a warm (workspace, results) pair
/// on the single-shard serial path answers the whole batch without
/// allocating.
TEST(QueryContextTest, SteadyStateBatchDoesNotAllocate) {
  Fixture fixture = MakeFixture(707, 8, 900, 10);
  BranchAndBoundEngine engine(&fixture.db, &fixture.table);
  auto family = MakeSimilarityFamily("match_ratio");

  BatchQueryWorkspace workspace;
  std::vector<NearestNeighborResult> results;
  auto run_batch = [&] {
    FindKNearestBatch(engine, fixture.queries, *family, 4, {},
                      /*num_threads=*/1, /*pool=*/nullptr, &workspace,
                      &results);
  };
  run_batch();
  run_batch();

  const uint64_t before = AllocGuardViolations();
  {
    ScopedAllocationBan ban("steady-state FindKNearestBatch");
    run_batch();
  }
  EXPECT_EQ(AllocGuardViolations(), before)
      << "warm single-shard batch allocated; AllocGuardEnabled()="
      << AllocGuardEnabled();

  ASSERT_EQ(results.size(), fixture.queries.size());
  for (size_t i = 0; i < fixture.queries.size(); ++i) {
    NearestNeighborResult fresh =
        engine.FindKNearest(fixture.queries[i], *family, 4);
    ExpectSameResult(results[i], fresh, "batch query " + std::to_string(i));
  }
}

}  // namespace
}  // namespace mbi
