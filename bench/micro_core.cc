// Google-benchmark microbenchmarks for the core index operations: similarity
// primitives, bound computation, supercoordinate mapping, table construction,
// the per-query bound pass plus entry ordering, end-to-end query latency vs
// signature cardinality, and the sequential-scan k-NN.

#include <benchmark/benchmark.h>

#include <limits>
#include <memory>
#include <vector>

#include "baseline/sequential_scan.h"
#include "core/branch_and_bound.h"
#include "core/bounds.h"
#include "core/entry_order.h"
#include "core/index_builder.h"
#include "gen/quest_generator.h"
#include "txn/candidate_layout.h"

namespace mbi {
namespace {

QuestGeneratorConfig BenchConfig() {
  QuestGeneratorConfig config;
  config.universe_size = 1000;
  config.num_large_itemsets = 2000;
  config.avg_itemset_size = 6.0;
  config.avg_transaction_size = 10.0;
  config.seed = 42;
  return config;
}

struct SharedData {
  TransactionDatabase db;
  std::vector<Transaction> queries;

  static const SharedData& Get() {
    static const SharedData& instance = *new SharedData();
    return instance;
  }

 private:
  SharedData() : db(1000) {
    QuestGenerator generator(BenchConfig());
    db = generator.GenerateDatabase(50'000);
    queries = generator.GenerateQueries(64);
  }
};

void BM_MatchAndHamming(benchmark::State& state) {
  const SharedData& data = SharedData::Get();
  size_t i = 0;
  for (auto _ : state) {
    size_t match = 0, hamming = 0;
    MatchAndHamming(data.queries[i % data.queries.size()],
                    data.db.Get(static_cast<TransactionId>(i % data.db.size())),
                    &match, &hamming);
    benchmark::DoNotOptimize(match + hamming);
    ++i;
  }
}
BENCHMARK(BM_MatchAndHamming);

void BM_SupercoordinateMapping(benchmark::State& state) {
  const SharedData& data = SharedData::Get();
  SignatureTable table =
      mbi::BuildIndex(data.db, [] {
        IndexBuildConfig config;
        config.clustering.target_cardinality = 15;
        return config;
      }());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSupercoordinate(
        data.db.Get(static_cast<TransactionId>(i % data.db.size())),
        table.partition(), 1));
    ++i;
  }
}
BENCHMARK(BM_SupercoordinateMapping);

void BM_BoundComputation(benchmark::State& state) {
  const SharedData& data = SharedData::Get();
  IndexBuildConfig config;
  config.clustering.target_cardinality =
      static_cast<uint32_t>(state.range(0));
  SignatureTable table = BuildIndex(data.db, config);
  BoundCalculator calc(table.partition().CountsPerSignature(data.queries[0]),
                       1);
  size_t i = 0;
  const auto& entries = table.entries();
  for (auto _ : state) {
    benchmark::DoNotOptimize(calc.Compute(entries[i % entries.size()].coordinate));
    ++i;
  }
}
BENCHMARK(BM_BoundComputation)->Arg(10)->Arg(15)->Arg(20);
TransactionDatabase PaperDatabase(QuestGenerator* generator) {
  return generator->GenerateDatabase(200'000);
}

IndexBuildConfig PaperBuildConfig() {
  IndexBuildConfig config;
  config.clustering.target_cardinality = 15;
  config.table.activation_threshold = 1;
  return config;
}

/// The paper's §5 setting (T10.I6.D200K, K = 15, r = 1): 200K rows, the
/// table over them, and 64 in-distribution targets.
struct PaperData {
  QuestGenerator generator;
  TransactionDatabase db;
  SignatureTable table;
  std::vector<Transaction> targets;

  static const PaperData& Get() {
    static const PaperData& instance = *new PaperData();
    return instance;
  }

 private:
  PaperData()
      : generator(BenchConfig()),
        db(PaperDatabase(&generator)),
        table(BuildIndex(db, PaperBuildConfig())),
        targets(generator.GenerateQueries(64)) {}
};

/// One query's bound pass plus entry ordering, the single-target path of
/// BranchAndBoundEngine::FindKNearestMultiTarget: the summary kernel's
/// (M', D') for every entry, then the visit order by f(M', D') with f
/// evaluated once per occupied cell. Arg 0 picks the family (hamming,
/// match_ratio, cosine); arg 1 = 1 orders only the entries above a floor, the
/// 10th-best similarity of the target's exact answer (what a dyn component
/// query receives from the components before it).
void BM_BoundPassAndOrder(benchmark::State& state) {
  const PaperData& data = PaperData::Get();
  static const InverseHammingFamily hamming;
  static const MatchRatioFamily match_ratio;
  static const CosineFamily cosine;
  const SimilarityFamily* const families[] = {&hamming, &match_ratio, &cosine};
  const SimilarityFamily& family = *families[state.range(0)];
  const bool with_floor = state.range(1) != 0;

  struct Bound {
    std::unique_ptr<SimilarityFunction> f;
    BoundCalculator calculator;
    double cutoff = -std::numeric_limits<double>::infinity();
  };
  std::vector<Bound> bound(data.targets.size());
  BranchAndBoundEngine engine(&data.db, &data.table);
  for (size_t t = 0; t < data.targets.size(); ++t) {
    bound[t].f = family.ForTarget(data.targets[t]);
    bound[t].calculator.Reset(
        data.table.partition().CountsPerSignature(data.targets[t]),
        data.table.activation_threshold());
    if (with_floor) {
      bound[t].cutoff =
          engine.FindKNearest(data.targets[t], family, 10).neighbors.back()
              .similarity;
    }
  }
  const EntrySummaries summaries = data.table.summaries();
  const size_t n = data.table.entries().size();
  std::vector<int32_t> match(n);
  std::vector<int32_t> dist(n);
  EntryOrderScratch scratch;
  std::vector<uint32_t> order;
  size_t i = 0;
  for (auto _ : state) {
    const Bound& b = bound[i++ % bound.size()];
    b.calculator.ComputeBatch(summaries, 0, n, match.data(), dist.data());
    const KeysLeftOut left_out = OrderByBoundCell(
        match.data(), dist.data(), n, *b.f, &scratch, &order, b.cutoff);
    benchmark::DoNotOptimize(left_out.count + order.size());
  }
  state.counters["entries"] = static_cast<double>(n);
}
BENCHMARK(BM_BoundPassAndOrder)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

/// One exact k-NN (k = 15) by SequentialScanner over the 200K paper rows,
/// the scan path every row of the database goes through: arg 1 = 0 scores
/// through the per-row probe (the layout-free oracle form), 1 through the
/// SIMD row kernel over a blocked layout. Arg 0 picks the family as in
/// BM_BoundPassAndOrder.
void BM_SequentialScanKnn(benchmark::State& state) {
  const PaperData& data = PaperData::Get();
  static const InverseHammingFamily hamming;
  static const MatchRatioFamily match_ratio;
  static const CosineFamily cosine;
  const SimilarityFamily* const families[] = {&hamming, &match_ratio, &cosine};
  const SimilarityFamily& family = *families[state.range(0)];
  static const CandidateLayout layout = CandidateLayout::Build(data.db);
  const SequentialScanner scanner(&data.db,
                                  state.range(1) != 0 ? &layout : nullptr);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scanner.FindKNearest(
        data.targets[i++ % data.targets.size()], family, 15));
  }
  state.counters["rows"] = static_cast<double>(data.db.size());
}
BENCHMARK(BM_SequentialScanKnn)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_TableBuild(benchmark::State& state) {
  const SharedData& data = SharedData::Get();
  const auto db_size = static_cast<uint64_t>(state.range(0));
  TransactionDatabase db(data.db.universe_size());
  for (TransactionId id = 0; id < db_size; ++id) db.Add(data.db.Get(id));
  for (auto _ : state) {
    IndexBuildConfig config;
    config.clustering.target_cardinality = 15;
    SignatureTable table = BuildIndex(db, config);
    benchmark::DoNotOptimize(table.entries().size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(db_size));
}
BENCHMARK(BM_TableBuild)->Arg(10'000)->Arg(50'000)->Unit(benchmark::kMillisecond);

void BM_NearestNeighborQuery(benchmark::State& state) {
  const SharedData& data = SharedData::Get();
  IndexBuildConfig config;
  config.clustering.target_cardinality =
      static_cast<uint32_t>(state.range(0));
  SignatureTable table = BuildIndex(data.db, config);
  BranchAndBoundEngine engine(&data.db, &table);
  InverseHammingFamily family;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.FindKNearest(data.queries[i % data.queries.size()], family, 1));
    ++i;
  }
}
BENCHMARK(BM_NearestNeighborQuery)->Arg(11)->Arg(13)->Arg(15)
    ->Unit(benchmark::kMillisecond);

void BM_KNearestQuery(benchmark::State& state) {
  const SharedData& data = SharedData::Get();
  IndexBuildConfig config;
  config.clustering.target_cardinality = 15;
  SignatureTable table = BuildIndex(data.db, config);
  BranchAndBoundEngine engine(&data.db, &table);
  MatchRatioFamily family;
  const auto k = static_cast<size_t>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.FindKNearest(data.queries[i % data.queries.size()], family, k));
    ++i;
  }
}
BENCHMARK(BM_KNearestQuery)->Arg(1)->Arg(10)->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mbi

BENCHMARK_MAIN();
