#include "util/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "baseline/sequential_scan.h"
#include "core/branch_and_bound.h"
#include "core/index_builder.h"
#include "core/query_stats.h"
#include "engine/engine.h"
#include "gen/quest_generator.h"
#include "storage/buffer_pool.h"
#include "storage/env.h"
#include "storage/fault_injector.h"
#include "storage/page_store.h"
#include "txn/database.h"

namespace mbi {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// --- registry basics ----------------------------------------------------

TEST(MetricsRegistryTest, CounterRoundTrip) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("mbi.test.events", "events", "help");
  EXPECT_EQ(counter->value(), 0u);
  counter->Increment();
  counter->Increment(41);
  EXPECT_EQ(counter->value(), 42u);
  // Re-registration interns: same handle, value preserved.
  EXPECT_EQ(registry.GetCounter("mbi.test.events", "events", "other help"),
            counter);
  EXPECT_EQ(registry.FindCounter("mbi.test.events"), counter);
  EXPECT_EQ(registry.FindCounter("mbi.test.absent"), nullptr);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("mbi.test.level", "ratio", "help");
  gauge->Set(0.5);
  EXPECT_DOUBLE_EQ(gauge->value(), 0.5);
  gauge->Add(0.25);
  EXPECT_DOUBLE_EQ(gauge->value(), 0.75);
}

TEST(MetricsRegistryTest, SchemaViolationsAbort) {
  MetricsRegistry registry;
  registry.GetCounter("mbi.test.events", "events", "help");
  EXPECT_DEATH(registry.GetCounter("mbi.test.events", "queries", "help"),
               "unit");
  EXPECT_DEATH(registry.GetGauge("mbi.test.events", "events", "help"),
               "different kind");
  EXPECT_DEATH(registry.GetCounter("Bad.Name", "x", "help"), "invalid");
  EXPECT_DEATH(registry.GetCounter("trailing.", "x", "help"), "invalid");
  EXPECT_DEATH(registry.GetCounter("double..dot", "x", "help"), "invalid");
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsHandles) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("mbi.test.c", "events", "");
  Gauge* gauge = registry.GetGauge("mbi.test.g", "ratio", "");
  LatencyHistogram* histogram = registry.GetHistogram("mbi.test.h", "us", "");
  counter->Increment(7);
  gauge->Set(3.0);
  histogram->Record(12.0);
  registry.Reset();
  EXPECT_EQ(counter->value(), 0u);
  EXPECT_DOUBLE_EQ(gauge->value(), 0.0);
  EXPECT_EQ(histogram->count(), 0u);
  EXPECT_DOUBLE_EQ(histogram->GetSnapshot().sum, 0.0);
  counter->Increment();  // Handles stay live after Reset.
  EXPECT_EQ(counter->value(), 1u);
}

// --- latency histogram --------------------------------------------------

TEST(LatencyHistogramTest, BucketBoundaries) {
  MetricsRegistry registry;
  LatencyHistogram* histogram = registry.GetHistogram("mbi.test.h", "us", "");
  // Samples <= 1 land in the first bucket; (2^(i-1), 2^i] lands in bucket i.
  histogram->Record(0.0);
  histogram->Record(1.0);
  histogram->Record(1.5);
  histogram->Record(2.0);
  histogram->Record(2.1);
  histogram->Record(1e9);  // Past 2^26: overflow bucket.
  const LatencyHistogram::Snapshot snapshot = histogram->GetSnapshot();
  EXPECT_EQ(snapshot.count, 6u);
  EXPECT_EQ(snapshot.buckets[0], 2u);
  EXPECT_EQ(snapshot.buckets[1], 2u);
  EXPECT_EQ(snapshot.buckets[2], 1u);
  EXPECT_EQ(snapshot.buckets[LatencyHistogram::kFiniteBuckets], 1u);
  EXPECT_DOUBLE_EQ(snapshot.max, 1e9);
  EXPECT_DOUBLE_EQ(LatencyHistogram::Snapshot::BucketUpperBound(3), 8.0);
  EXPECT_TRUE(std::isinf(LatencyHistogram::Snapshot::BucketUpperBound(
      LatencyHistogram::kFiniteBuckets)));
}

TEST(LatencyHistogramTest, NegativeAndNanSamplesAreClamped) {
  MetricsRegistry registry;
  LatencyHistogram* histogram = registry.GetHistogram("mbi.test.h", "us", "");
  histogram->Record(-5.0);
  histogram->Record(std::nan(""));
  const LatencyHistogram::Snapshot snapshot = histogram->GetSnapshot();
  EXPECT_EQ(snapshot.count, 2u);
  EXPECT_EQ(snapshot.buckets[0], 2u);
  EXPECT_DOUBLE_EQ(snapshot.sum, 0.0);
}

TEST(LatencyHistogramTest, QuantileWalksBuckets) {
  MetricsRegistry registry;
  LatencyHistogram* histogram = registry.GetHistogram("mbi.test.h", "us", "");
  for (int i = 0; i < 90; ++i) histogram->Record(3.0);   // le 4.
  for (int i = 0; i < 10; ++i) histogram->Record(100.0);  // le 128.
  const LatencyHistogram::Snapshot snapshot = histogram->GetSnapshot();
  EXPECT_DOUBLE_EQ(snapshot.Quantile(0.5), 4.0);
  EXPECT_DOUBLE_EQ(snapshot.Quantile(0.9), 4.0);
  EXPECT_DOUBLE_EQ(snapshot.Quantile(0.95), 128.0);
  EXPECT_DOUBLE_EQ(snapshot.Quantile(1.0), 128.0);
  LatencyHistogram* empty = registry.GetHistogram("mbi.test.e", "us", "");
  EXPECT_DOUBLE_EQ(empty->GetSnapshot().Quantile(0.5), 0.0);
}

TEST(LatencyHistogramTest, ConcurrentRecordsAreLossless) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("mbi.test.c", "events", "");
  LatencyHistogram* histogram = registry.GetHistogram("mbi.test.h", "us", "");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        histogram->Record(static_cast<double>(t + 1));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  const LatencyHistogram::Snapshot snapshot = histogram->GetSnapshot();
  EXPECT_EQ(snapshot.count, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucketed = 0;
  for (uint64_t bucket : snapshot.buckets) bucketed += bucket;
  EXPECT_EQ(bucketed, snapshot.count);
  EXPECT_DOUBLE_EQ(snapshot.max, 8.0);
}

// --- JSON export --------------------------------------------------------

TEST(MetricsJsonTest, ExportIsStableAndTagged) {
  MetricsRegistry registry;
  registry.GetCounter("mbi.test.b", "events", "")->Increment(2);
  registry.GetCounter("mbi.test.a", "events", "")->Increment(1);
  registry.GetGauge("mbi.test.g", "bool", "")->Set(1.0);
  registry.GetHistogram("mbi.test.h", "us", "")->Record(3.0);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"schema\": \"mbi.metrics.v1\""), std::string::npos);
  // Sorted name order inside each section.
  EXPECT_LT(json.find("mbi.test.a"), json.find("mbi.test.b"));
  EXPECT_NE(json.find("\"mbi.test.a\": {\"unit\": \"events\", \"value\": 1}"),
            std::string::npos);
  EXPECT_NE(json.find("\"le\": \"+inf\""), std::string::npos);
  // Two identical exports are byte-identical (stability contract).
  EXPECT_EQ(json, registry.ToJson());
}

TEST(MetricsJsonTest, EmptyRegistryStillEmitsSections) {
  MetricsRegistry registry;
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"counters\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\": {}"), std::string::npos);
}

// --- tracing ------------------------------------------------------------

TEST(QueryTraceTest, ScopedTimerRecordsSpansInOrder) {
  QueryTrace trace;
  {
    ScopedTimer span(nullptr, &trace, "phase_one");
  }
  {
    ScopedTimer span(nullptr, &trace, "phase_two");
  }
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.spans()[0].name, "phase_one");
  EXPECT_EQ(trace.spans()[1].name, "phase_two");
  EXPECT_GE(trace.spans()[0].duration_us, 0.0);
  EXPECT_LE(trace.spans()[0].start_us, trace.spans()[1].start_us);
  EXPECT_NE(trace.ToString().find("span=phase_one"), std::string::npos);
  trace.Clear();
  EXPECT_TRUE(trace.spans().empty());
}

TEST(QueryTraceTest, TimerFeedsHistogramAndTraceTogether) {
  MetricsRegistry registry;
  LatencyHistogram* histogram = registry.GetHistogram("mbi.test.h", "us", "");
  QueryTrace trace;
  {
    ScopedTimer span(histogram, &trace, "work");
    EXPECT_GE(span.ElapsedUs(), 0.0);
  }
  EXPECT_EQ(histogram->count(), 1u);
  ASSERT_EQ(trace.spans().size(), 1u);
}

// --- QueryStats clamping (regression) -----------------------------------

TEST(QueryStatsTest, PruningEfficiencyIsClampedToValidRange) {
  QueryStats stats;
  stats.database_size = 100;
  stats.transactions_evaluated = 25;
  EXPECT_DOUBLE_EQ(stats.AccessedFraction(), 0.25);
  EXPECT_DOUBLE_EQ(stats.PruningEfficiencyPercent(), 75.0);

  // Re-evaluation (multi-entry indexing, fallback rescans) can push
  // evaluations past the database size; that must clamp, never go negative.
  stats.transactions_evaluated = 180;
  EXPECT_DOUBLE_EQ(stats.AccessedFraction(), 1.0);
  EXPECT_DOUBLE_EQ(stats.PruningEfficiencyPercent(), 0.0);

  stats.database_size = 0;
  EXPECT_DOUBLE_EQ(stats.AccessedFraction(), 0.0);
  EXPECT_DOUBLE_EQ(stats.PruningEfficiencyPercent(), 100.0);
}

// --- storage-layer instrumentation --------------------------------------

TEST(StorageMetricsTest, PageStoreCountsReadsAndOpenedPages) {
  MetricsRegistry registry;
  PageStore store(64);
  store.set_metrics(&registry);
  // 3 appends of 30 bytes open two pages (30+30 fits, the third spills);
  // sealing puts the fourth on a third.
  store.Append(0, 30);
  store.Append(1, 30);
  store.Append(2, 30);
  store.SealCurrentPage();
  store.Append(3, 30);
  EXPECT_EQ(registry.FindCounter("mbi.pagestore.pages_written")->value(), 3u);
  IoStats stats;
  store.Read(0, &stats);
  store.Read(1, nullptr);  // Metric counts even without a ledger.
  EXPECT_EQ(registry.FindCounter("mbi.pagestore.pages_read")->value(), 2u);
  EXPECT_EQ(stats.pages_read, 1u);
}

TEST(StorageMetricsTest, BufferPoolCountsHitsAndMisses) {
  MetricsRegistry registry;
  PageStore store(64);
  store.Append(0, 40);
  store.SealCurrentPage();
  store.Append(1, 40);
  BufferPool pool(&store, 2);
  pool.set_metrics(&registry);
  IoStats stats;
  pool.Read(0, &stats);  // miss
  pool.Read(0, &stats);  // hit
  pool.Read(1, &stats);  // miss
  pool.Read(1, &stats);  // hit
  EXPECT_EQ(registry.FindCounter("mbi.bufferpool.hit")->value(), 2u);
  EXPECT_EQ(registry.FindCounter("mbi.bufferpool.miss")->value(), 2u);
  EXPECT_EQ(pool.hits(), 2u);
  EXPECT_EQ(pool.misses(), 2u);
}

TEST(StorageMetricsTest, EnvCountsTransientFaultsRetriesAndBackoff) {
  MetricsRegistry registry;
  Env env(/*jitter_seed=*/7);
  FaultInjector injector(7);
  injector.TransientWrites(0, 2);  // First write: 2 rejections, then OK.
  env.set_fault_injector(&injector);
  RetryOptions options;
  options.sleep_ms = [](double) {};  // Run the schedule without sleeping.
  env.set_retry_options(options);
  env.set_metrics(&registry);

  auto file = env.NewWritableFile(TempPath("metrics_env.bin"));
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_TRUE((*file)->Append("hello", 5).ok());
  ASSERT_TRUE((*file)->Close().ok());

  EXPECT_EQ(registry.FindCounter("mbi.env.fault.injected")->value(), 2u);
  EXPECT_EQ(registry.FindCounter("mbi.env.write.retries")->value(), 2u);
  EXPECT_GT(registry.FindCounter("mbi.env.write.backoff")->value(), 0u);
}

// --- engine-level aggregation -------------------------------------------

struct EngineFixture {
  TransactionDatabase db;
  std::vector<Transaction> queries;
  SignatureTable table;

  EngineFixture() : db(1), table([this] {
    QuestGeneratorConfig config;
    config.universe_size = 200;
    config.num_large_itemsets = 50;
    config.seed = 4242;
    QuestGenerator generator(config);
    db = generator.GenerateDatabase(1500);
    queries = generator.GenerateQueries(8);
    IndexBuildConfig build;
    build.clustering.target_cardinality = 8;
    return BuildIndex(db, build);
  }()) {}
};

/// The acceptance property of the metrics layer: aggregate counters must
/// reconcile exactly with the per-query QueryStats the engine returns.
TEST(EngineMetricsTest, CountersReconcileWithQueryStats) {
  EngineFixture fixture;
  SignatureTableEngine engine(&fixture.db);
  engine.AdoptTable(fixture.table);
  MetricsRegistry registry;
  engine.set_metrics(&registry);
  MatchRatioFamily family;

  QueryStats sum;
  for (const Transaction& target : fixture.queries) {
    NearestNeighborResult result = engine.FindKNearest(target, family, 5);
    sum.entries_total += result.stats.entries_total;
    sum.entries_scanned += result.stats.entries_scanned;
    sum.entries_pruned += result.stats.entries_pruned;
    sum.entries_unexplored += result.stats.entries_unexplored;
    sum.transactions_evaluated += result.stats.transactions_evaluated;
    sum.io.pages_read += result.stats.io.pages_read;
    sum.io.pages_cached += result.stats.io.pages_cached;
    sum.io.bytes_read += result.stats.io.bytes_read;
    sum.io.transactions_fetched += result.stats.io.transactions_fetched;
  }
  RangeQueryResult range = engine.FindInRange(fixture.queries[0], family, 0.4);

  const auto counter = [&](const char* name) {
    const Counter* found = registry.FindCounter(name);
    EXPECT_NE(found, nullptr) << name;
    return found == nullptr ? 0 : found->value();
  };
  EXPECT_EQ(counter("mbi.engine.query.knn"), fixture.queries.size());
  EXPECT_EQ(counter("mbi.engine.query.range"), 1u);
  EXPECT_EQ(counter("mbi.engine.query.fallback"), 0u);
  EXPECT_EQ(counter("mbi.engine.entries.considered"),
            sum.entries_total + range.stats.entries_total);
  EXPECT_EQ(counter("mbi.engine.entries.scanned"),
            sum.entries_scanned + range.stats.entries_scanned);
  EXPECT_EQ(counter("mbi.engine.entries.pruned"),
            sum.entries_pruned + range.stats.entries_pruned);
  EXPECT_EQ(counter("mbi.engine.entries.unexplored"),
            sum.entries_unexplored + range.stats.entries_unexplored);
  EXPECT_EQ(counter("mbi.engine.transactions.evaluated"),
            sum.transactions_evaluated + range.stats.transactions_evaluated);
  EXPECT_EQ(counter("mbi.engine.io.pages_read"),
            sum.io.pages_read + range.stats.io.pages_read);
  EXPECT_EQ(counter("mbi.engine.io.bytes_read"),
            sum.io.bytes_read + range.stats.io.bytes_read);
  EXPECT_EQ(counter("mbi.engine.io.transactions_fetched"),
            sum.io.transactions_fetched + range.stats.io.transactions_fetched);
  EXPECT_EQ(registry.FindHistogram("mbi.engine.latency.knn")->count(),
            fixture.queries.size());
  EXPECT_EQ(registry.FindHistogram("mbi.engine.latency.range")->count(), 1u);
  EXPECT_DOUBLE_EQ(registry.FindGauge("mbi.engine.quarantined")->value(), 0.0);
  // Query traffic went through the instrumented page store too.
  EXPECT_EQ(registry.FindCounter("mbi.pagestore.pages_read")->value(),
            sum.io.pages_read + range.stats.io.pages_read);
}

/// Satellite regression: the sequential fallback used to drop the scanner's
/// I/O for range queries (SequentialInRange never passed an IoStats sink),
/// so quarantined range queries reported a physically free scan.
TEST(EngineMetricsTest, FallbackRangeQueryReportsScanIo) {
  EngineFixture fixture;
  SignatureTableEngine engine(&fixture.db);  // No table: every query falls
                                             // back, as in quarantine.
  MetricsRegistry registry;
  engine.set_metrics(&registry);
  MatchRatioFamily family;

  RangeQueryResult range = engine.FindInRange(fixture.queries[0], family, 0.5);
  EXPECT_EQ(range.stats.sequential_fallbacks, 1u);
  EXPECT_EQ(range.stats.io.transactions_fetched, fixture.db.size());
  EXPECT_GT(range.stats.io.pages_read, 0u);
  EXPECT_GT(range.stats.io.bytes_read, 0u);
  // Same contract as the k-NN fallback, whose I/O was always charged.
  NearestNeighborResult knn = engine.FindKNearest(fixture.queries[0], family, 3);
  EXPECT_EQ(knn.stats.io.transactions_fetched, fixture.db.size());
  EXPECT_EQ(range.stats.io.pages_read, knn.stats.io.pages_read);

  // And the aggregate layer sees both the fallbacks and the scan I/O.
  EXPECT_EQ(registry.FindCounter("mbi.engine.query.fallback")->value(), 2u);
  EXPECT_EQ(registry.FindCounter("mbi.scan.query.range")->value(), 1u);
  EXPECT_EQ(registry.FindCounter("mbi.scan.query.knn")->value(), 1u);
  EXPECT_EQ(registry.FindCounter("mbi.scan.transactions.scanned")->value(),
            2 * fixture.db.size());
  EXPECT_EQ(registry.FindCounter("mbi.engine.io.transactions_fetched")->value(),
            2 * fixture.db.size());
  // The clamp keeps fallback accounting in range even though the scan
  // re-evaluated everything.
  EXPECT_DOUBLE_EQ(range.stats.PruningEfficiencyPercent(), 0.0);
  EXPECT_DOUBLE_EQ(range.stats.AccessedFraction(), 1.0);
}

/// Satellite: the engine-level batch helper against a degraded engine must
/// aggregate fallbacks (the core batch helper only ever ran healthy).
TEST(EngineMetricsTest, BatchFallbackAggregatesAcrossTargets) {
  EngineFixture fixture;
  SignatureTableEngine engine(&fixture.db);  // Degraded: no table adopted.
  MetricsRegistry registry;
  engine.set_metrics(&registry);
  MatchRatioFamily family;

  std::vector<NearestNeighborResult> results =
      engine.FindKNearestBatch(fixture.queries, family, 5);
  ASSERT_EQ(results.size(), fixture.queries.size());
  for (const NearestNeighborResult& result : results) {
    EXPECT_EQ(result.stats.sequential_fallbacks, 1u);
    EXPECT_TRUE(result.stats.is_exact);
  }
  EXPECT_EQ(engine.fallback_queries(), fixture.queries.size());
  EXPECT_EQ(registry.FindCounter("mbi.engine.query.fallback")->value(),
            fixture.queries.size());
  EXPECT_EQ(registry.FindCounter("mbi.engine.query.knn")->value(),
            fixture.queries.size());

  // Degraded batch answers are the sequential oracle's answers.
  SequentialScanner scanner(&fixture.db);
  for (size_t i = 0; i < fixture.queries.size(); ++i) {
    std::vector<Neighbor> oracle =
        scanner.FindKNearest(fixture.queries[i], family, 5);
    ASSERT_EQ(results[i].neighbors.size(), oracle.size());
    for (size_t j = 0; j < oracle.size(); ++j) {
      EXPECT_EQ(results[i].neighbors[j].id, oracle[j].id);
      EXPECT_DOUBLE_EQ(results[i].neighbors[j].similarity,
                       oracle[j].similarity);
    }
  }
}

TEST(EngineMetricsTest, HealthyBatchMatchesSingleQueriesAndAggregates) {
  EngineFixture fixture;
  SignatureTableEngine engine(&fixture.db);
  engine.AdoptTable(fixture.table);
  MetricsRegistry registry;
  engine.set_metrics(&registry);
  MatchRatioFamily family;

  std::vector<NearestNeighborResult> batch =
      engine.FindKNearestBatch(fixture.queries, family, 5, {}, 2);
  ASSERT_EQ(batch.size(), fixture.queries.size());
  EXPECT_EQ(registry.FindCounter("mbi.engine.query.knn")->value(),
            fixture.queries.size());
  EXPECT_EQ(registry.FindCounter("mbi.engine.query.fallback")->value(), 0u);
  EXPECT_EQ(engine.fallback_queries(), 0u);

  uint64_t evaluated = 0;
  for (size_t i = 0; i < fixture.queries.size(); ++i) {
    EXPECT_EQ(batch[i].stats.sequential_fallbacks, 0u);
    evaluated += batch[i].stats.transactions_evaluated;
    NearestNeighborResult single =
        engine.FindKNearest(fixture.queries[i], family, 5);
    ASSERT_EQ(batch[i].neighbors.size(), single.neighbors.size());
    for (size_t j = 0; j < single.neighbors.size(); ++j) {
      EXPECT_EQ(batch[i].neighbors[j].id, single.neighbors[j].id);
    }
  }
  // The batch recorded counters but not latency (no per-query wall time).
  EXPECT_EQ(registry.FindHistogram("mbi.engine.latency.knn")->count(),
            fixture.queries.size());  // Only the singles above.
  EXPECT_GE(registry.FindCounter("mbi.engine.transactions.evaluated")->value(),
            evaluated);
}

TEST(EngineMetricsTest, DisablingMetricsStopsRecording) {
  EngineFixture fixture;
  SignatureTableEngine engine(&fixture.db);
  engine.AdoptTable(fixture.table);
  MetricsRegistry registry;
  engine.set_metrics(&registry);
  MatchRatioFamily family;
  engine.FindKNearest(fixture.queries[0], family, 3);
  EXPECT_EQ(registry.FindCounter("mbi.engine.query.knn")->value(), 1u);
  engine.set_metrics(nullptr);
  engine.FindKNearest(fixture.queries[0], family, 3);
  EXPECT_EQ(registry.FindCounter("mbi.engine.query.knn")->value(), 1u);
}

}  // namespace
}  // namespace mbi
