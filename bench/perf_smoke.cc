// Perf-regression smoke harness for the query hot path.
//
// Times the shipped k-NN path on one shared dataset: single-query latency
// through a reused QueryContext, batch throughput on a caller-owned pool,
// the packed-bitmap candidate kernel, and the MetricsOff/MetricsOn pair whose
// ratio CI gates at < 3% (tools/check_metrics_overhead.py). A deadline sweep
// then writes BENCH_overload.json.
//
// Run from the repo root of a Release build to (re)generate BENCH_core.json;
// the committed file uses 5 repetitions, so each family reports its mean,
// median, stddev and CV:
//
//   ./build/bench/perf_smoke --benchmark_repetitions=5
//
// CI runs it with --benchmark_min_time=0.05 as a build-and-run smoke test
// and uploads the JSON; numbers are recorded, not gated, except the
// MetricsOn/MetricsOff pair.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/bench_env.h"
#include "common/harness.h"
#include "core/batch_query.h"
#include "core/branch_and_bound.h"
#include "core/index_builder.h"
#include "core/query_context.h"
#include "engine/engine.h"
#include "gen/quest_generator.h"
#include "core/query_budget.h"
#include "txn/packed_target.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace mbi {
namespace {

/// One shared dataset + index for every benchmark: T10-style baskets over a
/// 1000-item universe, cardinality-11 signatures (a well-populated
/// directory, so entry ordering is a visible share of query cost).
struct SharedData {
  TransactionDatabase db;
  std::vector<Transaction> queries;
  // Must be declared after db/queries: its initializer populates both.
  SignatureTable table;

  static const SharedData& Get() {
    static const SharedData& instance = *new SharedData();
    return instance;
  }

 private:
  SharedData() : db(1000), table([this] {
    QuestGeneratorConfig config;
    config.universe_size = 1000;
    config.num_large_itemsets = 2000;
    config.avg_itemset_size = 6.0;
    config.avg_transaction_size = 10.0;
    config.seed = 42;
    QuestGenerator generator(config);
    db = generator.GenerateDatabase(50'000);
    queries = generator.GenerateQueries(64);
    IndexBuildConfig build;
    build.clustering.target_cardinality = 11;
    return BuildIndex(db, build);
  }()) {}
};

// --- Single-query latency: repeated k-NN queries through one reused
// QueryContext. ---

void BM_SingleQuery(benchmark::State& state) {
  const SharedData& data = SharedData::Get();
  BranchAndBoundEngine engine(&data.db, &data.table);
  MatchRatioFamily family;
  const auto k = static_cast<size_t>(state.range(0));
  QueryContext context;
  size_t i = 0;
  for (auto _ : state) {
    NearestNeighborResult result;
    engine.FindKNearest(data.queries[i % data.queries.size()], family, k, {},
                        &context, &result);
    benchmark::DoNotOptimize(result);
    ++i;
  }
}
BENCHMARK(BM_SingleQuery)->Arg(1)->Arg(10)->Unit(benchmark::kMicrosecond);

// --- Batch throughput: 64 queries per call on one caller-owned pool with
// per-shard contexts. ---

void BM_BatchThroughput(benchmark::State& state) {
  const SharedData& data = SharedData::Get();
  BranchAndBoundEngine engine(&data.db, &data.table);
  MatchRatioFamily family;
  ThreadPool pool(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindKNearestBatch(engine, data.queries, family,
                                               10, {}, /*num_threads=*/0,
                                               &pool));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.queries.size()));
}
BENCHMARK(BM_BatchThroughput)->Unit(benchmark::kMillisecond);

// --- Metrics overhead: the same steady-state k-NN hot path through the
// SignatureTableEngine front end, with instrumentation disabled vs enabled.
// CI gates MetricsOn/MetricsOff at < 3% on the median-of-repetitions
// (tools/check_metrics_overhead.py); the On variant also exports
// metric-derived counters into BENCH_core.json so the recorded numbers can
// be cross-checked against the registry. ---

void BM_SingleQuery_MetricsOff(benchmark::State& state) {
  const SharedData& data = SharedData::Get();
  SignatureTableEngine engine(&data.db);
  engine.AdoptTable(data.table);
  MatchRatioFamily family;
  QueryContext context;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.FindKNearest(
        data.queries[i % data.queries.size()], family, 10, {}, &context));
    ++i;
  }
}
BENCHMARK(BM_SingleQuery_MetricsOff)->Unit(benchmark::kMicrosecond);

void BM_SingleQuery_MetricsOn(benchmark::State& state) {
  const SharedData& data = SharedData::Get();
  SignatureTableEngine engine(&data.db);
  engine.AdoptTable(data.table);
  MetricsRegistry registry;
  engine.set_metrics(&registry);
  MatchRatioFamily family;
  QueryContext context;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.FindKNearest(
        data.queries[i % data.queries.size()], family, 10, {}, &context));
    ++i;
  }
  // Metric-derived fields for BENCH_core.json: the registry's own view of
  // the work this benchmark did (averaged per iteration by kAvgIterations).
  const Counter* queries = registry.FindCounter("mbi.engine.query.knn");
  const Counter* pages = registry.FindCounter("mbi.engine.io.pages_read");
  const Counter* evaluated =
      registry.FindCounter("mbi.engine.transactions.evaluated");
  const LatencyHistogram* latency =
      registry.FindHistogram("mbi.engine.latency.knn");
  state.counters["metric_queries"] = benchmark::Counter(
      static_cast<double>(queries->value()), benchmark::Counter::kAvgIterations);
  state.counters["metric_pages_read"] = benchmark::Counter(
      static_cast<double>(pages->value()), benchmark::Counter::kAvgIterations);
  state.counters["metric_txs_evaluated"] = benchmark::Counter(
      static_cast<double>(evaluated->value()),
      benchmark::Counter::kAvgIterations);
  state.counters["metric_p95_us"] =
      benchmark::Counter(latency->GetSnapshot().Quantile(0.95));
}
BENCHMARK(BM_SingleQuery_MetricsOn)->Unit(benchmark::kMicrosecond);

// --- Candidate kernel: score one target against the whole database by
// packed-bitmap probing. ---

void BM_CandidateKernel(benchmark::State& state) {
  const SharedData& data = SharedData::Get();
  PackedTarget packed;
  packed.Assign(data.queries[0], data.db.universe_size());
  for (auto _ : state) {
    size_t total = 0;
    for (TransactionId id = 0; id < data.db.size(); ++id) {
      size_t match = 0, hamming = 0;
      packed.MatchAndHamming(data.db.Get(id), &match, &hamming);
      total += match + hamming;
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.db.size()));
}
BENCHMARK(BM_CandidateKernel)->Unit(benchmark::kMillisecond);

// --- Overload sweep: latency and answer quality as the per-query deadline
// tightens. Hand-rolled (google-benchmark owns one --benchmark_out file per
// process, and this sweep wants its own BENCH_overload.json): for each
// deadline the 64 shared queries are replayed through a warm QueryContext,
// recording p50/p99 latency, the fraction still answered exactly, top-k
// overlap with the unbudgeted answer (the quality-vs-budget curve), and how
// much of the directory the cut-off queries managed to scan. ---

void RunDeadlineSweep(const char* out_path) {
  const SharedData& data = SharedData::Get();
  BranchAndBoundEngine engine(&data.db, &data.table);
  MatchRatioFamily family;
  constexpr size_t kK = 10;
  constexpr int kRounds = 4;  // 4 x 64 queries per sweep point

  // Unbudgeted ground truth, once per target.
  std::vector<NearestNeighborResult> full;
  full.reserve(data.queries.size());
  for (const Transaction& target : data.queries) {
    full.push_back(engine.FindKNearest(target, family, kK));
  }

  // -1 encodes "no deadline" (the quality baseline and latency floor).
  const double deadlines_us[] = {-1.0, 2000.0, 500.0, 200.0, 100.0, 50.0,
                                 20.0};
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perf_smoke: cannot write %s\n", out_path);
    return;
  }
  std::fprintf(out, "{\n  \"context\": {\n");
  std::fprintf(out, "    \"mbi_build_type\": \"%s\",\n", MBI_BENCH_BUILD_TYPE);
  std::fprintf(out, "    \"mbi_kernel_isa\": \"%s\",\n",
               kernel::IsaName(kernel::ActiveIsa()));
  std::fprintf(out, "    \"queries_per_point\": %zu,\n",
               data.queries.size() * kRounds);
  std::fprintf(out, "    \"k\": %zu\n  },\n", kK);
  std::fprintf(out, "  \"deadline_sweep\": [\n");

  bool first_row = true;
  for (double deadline_us : deadlines_us) {
    std::vector<double> latencies_us;
    latencies_us.reserve(data.queries.size() * kRounds);
    QueryContext context;
    NearestNeighborResult result;
    size_t exact = 0, deadline_cut = 0;
    double overlap_sum = 0.0, scanned_fraction_sum = 0.0;
    for (int round = 0; round < kRounds; ++round) {
      for (size_t i = 0; i < data.queries.size(); ++i) {
        SearchOptions options;
        if (deadline_us > 0.0) {
          options.budget =
              QueryBudget::WithDeadlineAfterMs(deadline_us / 1000.0);
        }
        Stopwatch timer;
        engine.FindKNearest(data.queries[i], family, kK, options, &context,
                            &result);
        latencies_us.push_back(timer.ElapsedMillis() * 1000.0);
        exact += result.stats.is_exact;
        deadline_cut += result.stats.termination == QueryTermination::kDeadline;
        size_t hits = 0;
        for (const Neighbor& neighbor : result.neighbors) {
          for (const Neighbor& truth : full[i].neighbors) {
            if (neighbor.id == truth.id) {
              ++hits;
              break;
            }
          }
        }
        overlap_sum += full[i].neighbors.empty()
                           ? 1.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(full[i].neighbors.size());
        scanned_fraction_sum +=
            result.stats.entries_total == 0
                ? 1.0
                : static_cast<double>(result.stats.entries_scanned) /
                      static_cast<double>(result.stats.entries_total);
      }
    }
    std::sort(latencies_us.begin(), latencies_us.end());
    const size_t n = latencies_us.size();
    auto quantile = [&](double q) {
      return latencies_us[static_cast<size_t>(q * static_cast<double>(n - 1))];
    };
    const double count = static_cast<double>(n);
    std::fprintf(out, "%s    {\"deadline_us\": %.0f, \"p50_us\": %.3f, "
                 "\"p99_us\": %.3f, \"exact_fraction\": %.4f, "
                 "\"mean_topk_overlap\": %.4f, "
                 "\"mean_entries_scanned_fraction\": %.4f, "
                 "\"deadline_cut\": %zu}",
                 first_row ? "" : ",\n", deadline_us, quantile(0.5),
                 quantile(0.99), static_cast<double>(exact) / count,
                 overlap_sum / count, scanned_fraction_sum / count,
                 deadline_cut);
    first_row = false;
  }
  std::fprintf(out, "\n  ]\n}\n");
  std::fclose(out);
  std::fprintf(stderr, "perf_smoke: wrote deadline sweep to %s\n", out_path);
}

}  // namespace
}  // namespace mbi

/// Like BENCHMARK_MAIN(), but defaults --benchmark_out to BENCH_core.json
/// (JSON format) so a bare `./build/bench/perf_smoke` from the repo root
/// regenerates the committed numbers. Any explicit --benchmark_out wins.
int main(int argc, char** argv) {
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_core.json";
  std::string format_flag = "--benchmark_out_format=json";
  std::vector<char*> args(argv, argv + argc);
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int effective_argc = static_cast<int>(args.size());
  benchmark::Initialize(&effective_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(effective_argc, args.data())) {
    return 1;
  }
  // Committed-numbers discipline: refuse (or loudly mark, with
  // MBI_ALLOW_DEBUG_BENCH=1) non-Release builds, stamp build + dispatched-ISA
  // provenance into the JSON context, and pin to one CPU with the dataset
  // paged in before any timed section (common/bench_env.h, common/harness.h).
  mbi::bench::RequireReleaseBuild("perf_smoke");
  mbi::bench::StampBuildContext();
  const int cpu = mbi::bench::PinBenchmarkThread();
  benchmark::AddCustomContext("mbi_pinned_cpu", std::to_string(cpu));
  benchmark::AddCustomContext(
      "mbi_warm_checksum",
      std::to_string(mbi::bench::WarmDatabase(mbi::SharedData::Get().db)));
  benchmark::RunSpecifiedBenchmarks();
  // The overload sweep writes its own JSON (google-benchmark owns the
  // --benchmark_out file). MBI_OVERLOAD_OUT overrides the path; an empty
  // value skips the sweep.
  const char* overload_out = std::getenv("MBI_OVERLOAD_OUT");
  if (overload_out == nullptr) overload_out = "BENCH_overload.json";
  if (overload_out[0] != '\0') mbi::RunDeadlineSweep(overload_out);
  benchmark::Shutdown();
  return 0;
}
