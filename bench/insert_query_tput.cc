// Dynamized-index throughput harness: sustained insert rates and query
// latency while background merges run — the numbers ISSUE 9's Bentley–Saxe
// leveling is accountable to.
//
// Four measurements:
//
//   BM_DynInsert          — sustained single-writer insert throughput with
//                           merges on a background pool, per buffer capacity
//                           (the knob trading ingest speed for query work);
//   BM_DynQueryQuiescent  — k-NN fan-out latency across settled levels, no
//                           concurrent writes (the read-side cost of the
//                           leveled shape vs. one monolithic table), over
//                           out-of-distribution targets;
//   BM_DynQueryUnderIngest — the same queries while a writer thread churns
//                           rows (insert + delete-oldest) and merges rebuild
//                           levels underneath; p50_us/p99_us counters record
//                           the tail the background work induces. The writer
//                           and the merge pool are pinned to a core other
//                           than the timed one whenever the host has two
//                           (writer_cpu = -1 when they share it);
//   BM_DynQueryDeletedFraction — k-NN latency with 0/10/30/50% of the rows
//                           deleted (oldest-first or uniform) and no merge
//                           to purge them, over in-distribution targets:
//                           every part skips its marked rows and prunes
//                           against the fan-out's shared k-th best, so the
//                           evaluated/fetched counters show how pruning
//                           holds up as deletes accumulate.
//
// Run from the repo root to (re)generate BENCH_dyn.json from a Release
// build (the committed file used five repetitions):
//
//   ./build/bench/insert_query_tput --benchmark_repetitions=5
//
// CI runs it with --benchmark_min_time=0.05 as a build-and-run smoke test
// and uploads the JSON; numbers are recorded, not gated.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_env.h"
#include "common/harness.h"
#include "dyn/dynamic_index.h"
#include "gen/quest_generator.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace mbi {
namespace {

constexpr size_t kUniverse = 1000;

/// The CPU main() pinned the timed thread to (-1: unpinned).
int g_bench_cpu = -1;

QuestGeneratorConfig DataConfig(uint64_t seed) {
  QuestGeneratorConfig config;
  config.universe_size = kUniverse;
  config.num_large_itemsets = 2000;
  config.avg_itemset_size = 6.0;
  config.avg_transaction_size = 10.0;
  config.seed = seed;
  return config;
}

DynamicIndexOptions DynOptions(size_t buffer_capacity, ThreadPool* pool) {
  DynamicIndexOptions options;
  options.buffer_capacity = buffer_capacity;
  options.level_fanout = 4;
  options.build.clustering.target_cardinality = 11;
  options.pool = pool;
  return options;
}

/// Pre-generated rows so the generator never sits inside a timed region.
const std::vector<Transaction>& SharedRows() {
  static const std::vector<Transaction>& rows = *new std::vector<Transaction>(
      [] {
        QuestGenerator generator(DataConfig(42));
        std::vector<Transaction> out;
        out.reserve(100'000);
        for (size_t i = 0; i < 100'000; ++i) {
          out.push_back(generator.NextTransaction());
        }
        return out;
      }());
  return rows;
}

void InsertRetrying(DynamicIndex* index, const Transaction& txn) {
  while (!index->Insert(txn).ok()) std::this_thread::yield();
}

// --- Sustained insert throughput, merges on a background pool. The index is
// rebuilt from scratch whenever the row budget is exhausted (outside the
// timed region), so every timed insert sees the steady leveled shape. ---

void BM_DynInsert(benchmark::State& state) {
  const std::vector<Transaction>& rows = SharedRows();
  const auto buffer_capacity = static_cast<size_t>(state.range(0));
  ThreadPool pool(2);
  auto index = std::make_unique<DynamicIndex>(
      kUniverse, DynOptions(buffer_capacity, &pool));
  size_t next = 0;
  for (auto _ : state) {
    if (next == rows.size()) {
      state.PauseTiming();
      index->WaitForMaintenance();
      index = std::make_unique<DynamicIndex>(
          kUniverse, DynOptions(buffer_capacity, &pool));
      next = 0;
      state.ResumeTiming();
    }
    InsertRetrying(index.get(), rows[next++]);
  }
  index->WaitForMaintenance();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["components"] =
      static_cast<double>(index->num_components());
}
BENCHMARK(BM_DynInsert)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

// --- Query latency across settled levels (no writers). The targets come
// from a generator seeded 7 while the rows come from seed 42, so they lie
// outside the rows' distribution; on them the fan-out's shared pruning
// floor leaves the latency about flat (BENCH_dyn.json), while
// BM_DynQueryDeletedFraction's in-distribution targets show what it
// saves. ---

void BM_DynQueryQuiescent(benchmark::State& state) {
  const std::vector<Transaction>& rows = SharedRows();
  constexpr size_t kRows = 50'000;
  ThreadPool pool(2);
  DynamicIndex index(kUniverse, DynOptions(256, &pool));
  for (size_t i = 0; i < kRows; ++i) InsertRetrying(&index, rows[i]);
  index.WaitForMaintenance();

  QuestGenerator generator(DataConfig(7));
  std::vector<Transaction> queries = generator.GenerateQueries(64);
  MatchRatioFamily family;
  const auto k = static_cast<size_t>(state.range(0));
  DynQueryContext context;
  NearestNeighborResult result;
  size_t i = 0;
  for (auto _ : state) {
    index.FindKNearest(queries[i % queries.size()], family, k,
                       SearchOptions{}, &context, &result);
    benchmark::DoNotOptimize(result);
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["components"] = static_cast<double>(index.num_components());
}
BENCHMARK(BM_DynQueryQuiescent)
    ->Arg(1)
    ->Arg(10)
    ->Unit(benchmark::kMicrosecond);

// --- Query latency while a writer churns rows and merges rebuild levels.
// The writer keeps the live size roughly constant (insert one, delete the
// oldest) so the benchmark measures interference, not index growth. ---

void BM_DynQueryUnderIngest(benchmark::State& state) {
  const std::vector<Transaction>& rows = SharedRows();
  constexpr size_t kWarmRows = 30'000;
  // The writer and the merge workers run off the timed core where the host
  // allows, so CPU contention is not mistaken for algorithmic cost. Workers
  // inherit the affinity of the thread that starts them.
  std::unique_ptr<ThreadPool> pool;
  std::thread([&pool] {
    bench::PinThreadAwayFrom(g_bench_cpu);
    pool = std::make_unique<ThreadPool>(2);
  }).join();
  DynamicIndex index(kUniverse, DynOptions(256, pool.get()));
  for (size_t i = 0; i < kWarmRows; ++i) InsertRetrying(&index, rows[i]);
  index.WaitForMaintenance();

  std::atomic<bool> stop{false};
  std::atomic<int> writer_cpu{-1};
  std::thread writer([&] {
    writer_cpu.store(bench::PinThreadAwayFrom(g_bench_cpu));
    size_t next = kWarmRows;
    TransactionId oldest = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      InsertRetrying(&index, rows[next % rows.size()]);
      ++next;
      index.Delete(oldest++).IgnoreError();  // Steady-state churn.
    }
  });

  QuestGenerator generator(DataConfig(7));
  std::vector<Transaction> queries = generator.GenerateQueries(64);
  MatchRatioFamily family;
  const auto k = static_cast<size_t>(state.range(0));
  DynQueryContext context;
  NearestNeighborResult result;
  std::vector<double> latencies_us;
  latencies_us.reserve(1 << 16);
  size_t i = 0;
  for (auto _ : state) {
    Stopwatch timer;
    index.FindKNearest(queries[i % queries.size()], family, k,
                       SearchOptions{}, &context, &result);
    latencies_us.push_back(timer.ElapsedMillis() * 1000.0);
    benchmark::DoNotOptimize(result);
    ++i;
  }
  stop.store(true);
  writer.join();
  index.WaitForMaintenance();

  std::sort(latencies_us.begin(), latencies_us.end());
  if (!latencies_us.empty()) {
    state.counters["p50_us"] = latencies_us[latencies_us.size() / 2];
    state.counters["p99_us"] =
        latencies_us[latencies_us.size() * 99 / 100];
  }
  state.counters["tombstones"] = static_cast<double>(index.tombstone_count());
  state.counters["writer_cpu"] = static_cast<double>(writer_cpu.load());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DynQueryUnderIngest)
    ->Arg(1)
    ->Arg(10)
    ->Unit(benchmark::kMicrosecond);

// --- Query cost against a deleted fraction. Merges run inline while the
// rows load, then the deletes only mark rows (nothing merges afterwards to
// purge them), which is the state every query sees between a delete and the
// merge that drops its row. ---

void BM_DynQueryDeletedFraction(benchmark::State& state) {
  const std::vector<Transaction>& rows = SharedRows();
  constexpr size_t kRows = 50'000;
  constexpr size_t kK = 10;
  const auto deleted_pct = static_cast<size_t>(state.range(0));
  const bool oldest_first = state.range(1) != 0;
  DynamicIndex index(kUniverse, DynOptions(1024, /*pool=*/nullptr));
  for (size_t i = 0; i < kRows; ++i) InsertRetrying(&index, rows[i]);
  std::vector<TransactionId> order(kRows);
  for (size_t i = 0; i < kRows; ++i) order[i] = static_cast<TransactionId>(i);
  if (!oldest_first) Rng(7).Shuffle(&order);
  for (size_t i = 0; i < kRows * deleted_pct / 100; ++i) {
    if (!index.Delete(order[i]).ok()) state.SkipWithError("delete failed");
  }

  // In-distribution targets: rows of the same stream that were never
  // inserted.
  constexpr size_t kTargets = 64;
  MatchRatioFamily family;
  DynQueryContext context;
  NearestNeighborResult result;
  double evaluated = 0.0;
  double fetched = 0.0;
  size_t i = 0;
  for (auto _ : state) {
    index.FindKNearest(rows[kRows + i % kTargets], family, kK,
                       SearchOptions{}, &context, &result);
    evaluated += static_cast<double>(result.stats.transactions_evaluated);
    fetched += static_cast<double>(result.stats.io.transactions_fetched);
    benchmark::DoNotOptimize(result);
    ++i;
  }
  const double n = static_cast<double>(std::max<size_t>(i, 1));
  state.counters["evaluated"] = evaluated / n;
  state.counters["fetched"] = fetched / n;
  state.counters["tombstones"] = static_cast<double>(index.tombstone_count());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DynQueryDeletedFraction)
    ->ArgNames({"deleted_pct", "oldest_first"})
    ->ArgsProduct({{0, 10, 30, 50}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace mbi

/// Like BENCHMARK_MAIN(), but defaults --benchmark_out to BENCH_dyn.json
/// (JSON format) so a bare `./build/bench/insert_query_tput` from the repo
/// root regenerates the committed numbers. Any explicit --benchmark_out wins.
int main(int argc, char** argv) {
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_dyn.json";
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
  mbi::bench::RequireReleaseBuild("insert_query_tput");
  mbi::bench::StampBuildContext();
  const int cpu = mbi::bench::PinBenchmarkThread();
  mbi::g_bench_cpu = cpu;
  benchmark::AddCustomContext("mbi_pinned_cpu", std::to_string(cpu));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
