// Per-ISA microbenchmarks for the runtime-dispatched SIMD kernels.
//
// Every kernel benchmark is registered once per ISA the host actually
// supports (KernelsFor(isa) != nullptr), so one run of this binary produces
// directly comparable scalar/AVX2/AVX-512/NEON rows on the same data:
//
//   MatchRowsStream/<isa>/w<N> — AND+popcount match over 4096 contiguous
//       blocked-layout rows of N words (streaming form; bytes/second is the
//       number to compare against memory bandwidth);
//   MatchRowsGather/<isa>/w<N> — the same kernel through a shuffled id list
//       (the branch-and-bound entry shape; exercises the software prefetch);
//   BoundsBatch/<isa>        — the K=15 per-entry bound computation over
//       32768 supercoordinates (the paper's activation-bit bound);
//   SummaryBounds/<isa>      — the K=15 count-summary bound the query paths
//       use, over 32768 entries' SoA summaries (2K+1 bytes per entry);
//   PackedBatch/<isa>        — end-to-end PackedTarget::MatchAndHammingRows
//       over a QUEST T10 database (dense band + tail probe + Hamming);
//   BandedLayout/{banded,dense} — an 8192-item Zipf universe scored through
//       a 1024-bit frequent-item band vs a full-width dense bitmap: the
//       band split's bandwidth saving, measured not asserted.
//
// A bare run from the repo root writes BENCH_kernels.json; the binary
// refuses non-Release builds (see common/bench_env.h) and pins itself to
// one CPU before measuring.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "common/bench_env.h"
#include "common/harness.h"
#include "core/bounds.h"
#include "gen/quest_generator.h"
#include "kernel/aligned_buffer.h"
#include "kernel/dispatch.h"
#include "kernel/kernels.h"
#include "txn/candidate_layout.h"
#include "txn/packed_target.h"

namespace mbi {
namespace {

using kernel::Isa;
using kernel::KernelOps;

// --- Raw match kernel over synthetic blocked rows. ---

struct RawMatchData {
  size_t rows = 4096;
  size_t words;
  size_t stride;
  kernel::AlignedWordBuffer pool;
  kernel::AlignedWordBuffer target;
  std::vector<uint32_t> ids;            // Shuffled, for the gather form.
  std::vector<uint32_t> out;

  explicit RawMatchData(size_t words_in)
      : words(words_in),
        stride((words_in + 7) & ~size_t{7}),
        pool(stride * rows),
        target(words_in),
        ids(rows),
        out(rows) {
    std::mt19937_64 rng(words_in * 7919 + 1);
    for (size_t i = 0; i < stride * rows; ++i) pool.data()[i] = rng();
    for (size_t i = 0; i < words; ++i) target.data()[i] = rng();
    std::iota(ids.begin(), ids.end(), 0u);
    std::shuffle(ids.begin(), ids.end(), rng);
  }

  static RawMatchData& For(size_t words) {
    static RawMatchData w4(4), w8(8), w16(16);
    return words == 4 ? w4 : words == 8 ? w8 : w16;
  }
};

void BM_MatchRowsStream(benchmark::State& state, const KernelOps* ops,
                        size_t words) {
  RawMatchData& data = RawMatchData::For(words);
  for (auto _ : state) {
    ops->match_rows(data.target.data(), data.pool.data(), data.stride,
                    data.words, /*ids=*/nullptr, data.rows, data.out.data());
    benchmark::DoNotOptimize(data.out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.rows * data.words * 8));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.rows));
}

void BM_MatchRowsGather(benchmark::State& state, const KernelOps* ops,
                        size_t words) {
  RawMatchData& data = RawMatchData::For(words);
  for (auto _ : state) {
    ops->match_rows(data.target.data(), data.pool.data(), data.stride,
                    data.words, data.ids.data(), data.rows, data.out.data());
    benchmark::DoNotOptimize(data.out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.rows * data.words * 8));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.rows));
}

// --- Raw bounds kernel over synthetic signature tables. ---

struct BoundsData {
  static constexpr uint32_t kCardinality = 15;
  static constexpr size_t kCount = 32768;
  std::vector<int32_t> d0, d1, m0, m1;
  std::vector<uint32_t> coords;
  std::vector<int32_t> dist_out, match_out;

  BoundsData()
      : d0(kCardinality), d1(kCardinality), m0(kCardinality), m1(kCardinality),
        coords(kCount), dist_out(kCount), match_out(kCount) {
    std::mt19937_64 rng(5);
    for (uint32_t j = 0; j < kCardinality; ++j) {
      d0[j] = static_cast<int32_t>(rng() % 8);
      d1[j] = static_cast<int32_t>(rng() % 8);
      m0[j] = static_cast<int32_t>(rng() % 8);
      m1[j] = static_cast<int32_t>(rng() % 8);
    }
    for (uint32_t& c : coords) c = static_cast<uint32_t>(rng());
  }

  static BoundsData& Get() {
    static BoundsData data;
    return data;
  }
};

void BM_BoundsBatch(benchmark::State& state, const KernelOps* ops) {
  BoundsData& data = BoundsData::Get();
  for (auto _ : state) {
    ops->bounds_batch(data.coords.data(), data.coords.size(),
                      BoundsData::kCardinality, data.d0.data(), data.d1.data(),
                      data.m0.data(), data.m1.data(), data.dist_out.data(),
                      data.match_out.data());
    benchmark::DoNotOptimize(data.dist_out.data());
    benchmark::DoNotOptimize(data.match_out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.coords.size()));
}

// --- Raw summary bound kernel over synthetic per-entry summaries. ---

struct SummaryData {
  static constexpr uint32_t kCardinality = 15;
  static constexpr size_t kCount = 32768;
  // Shaped like T10 summaries at r = 1: small per-signature ranges, an
  // occasional uncapped hi, rows of a few to a dozen items.
  std::vector<uint8_t> lo, hi, size_min;
  std::vector<int32_t> target_counts;
  int32_t target_size = 0;
  std::vector<int32_t> dist_out, match_out;

  SummaryData()
      : lo(kCardinality * kCount), hi(kCardinality * kCount),
        size_min(kCount), target_counts(kCardinality), dist_out(kCount),
        match_out(kCount) {
    std::mt19937_64 rng(6);
    for (size_t i = 0; i < lo.size(); ++i) {
      lo[i] = static_cast<uint8_t>(rng() % 2);
      hi[i] = rng() % 64 == 0 ? kernel::kSummaryCap
                              : static_cast<uint8_t>(lo[i] + rng() % 4);
    }
    for (uint8_t& s : size_min) s = static_cast<uint8_t>(3 + rng() % 12);
    for (int32_t& r : target_counts) {
      r = static_cast<int32_t>(rng() % 3);
      target_size += r;
    }
  }

  static SummaryData& Get() {
    static SummaryData data;
    return data;
  }
};

void BM_SummaryBounds(benchmark::State& state, kernel::SummaryBoundsFn fn) {
  SummaryData& data = SummaryData::Get();
  for (auto _ : state) {
    fn(data.lo.data(), data.hi.data(), data.size_min.data(),
       SummaryData::kCount, SummaryData::kCount, SummaryData::kCardinality,
       data.target_counts.data(), data.target_size, data.dist_out.data(),
       data.match_out.data());
    benchmark::DoNotOptimize(data.dist_out.data());
    benchmark::DoNotOptimize(data.match_out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(SummaryData::kCount));
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(data.lo.size() + data.hi.size() +
                           data.size_min.size()));
}

// --- End-to-end PackedTarget batch on QUEST data. ---

struct QuestData {
  TransactionDatabase db;
  std::vector<Transaction> queries;
  CandidateLayout layout;

  QuestData() : db(1000) {
    QuestGeneratorConfig config;
    config.universe_size = 1000;
    config.num_large_itemsets = 2000;
    config.avg_itemset_size = 6.0;
    config.avg_transaction_size = 10.0;
    config.seed = 42;
    QuestGenerator generator(config);
    db = generator.GenerateDatabase(20'000);
    queries = generator.GenerateQueries(8);
    layout = CandidateLayout::Build(db);
  }

  static QuestData& Get() {
    static QuestData data;
    return data;
  }
};

void BM_PackedBatch(benchmark::State& state, Isa isa) {
  QuestData& data = QuestData::Get();
  kernel::ForceIsa(isa);
  PackedTarget packed;
  std::vector<uint32_t> match(data.db.size()), hamming(data.db.size());
  size_t q = 0;
  for (auto _ : state) {
    packed.Assign(data.queries[q % data.queries.size()],
                  data.db.universe_size(), &data.layout);
    packed.MatchAndHammingRows(0, data.db.size(), match.data(),
                               hamming.data());
    benchmark::DoNotOptimize(match.data());
    benchmark::DoNotOptimize(hamming.data());
    ++q;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.db.size()));
  kernel::ResetIsaForTesting();
}

/// The pre-kernel per-candidate probe on the same data — the "before" row
/// the PackedBatch/<isa> rows are read against.
void BM_PackedProbeLegacy(benchmark::State& state) {
  QuestData& data = QuestData::Get();
  PackedTarget packed;
  size_t q = 0;
  for (auto _ : state) {
    packed.Assign(data.queries[q % data.queries.size()],
                  data.db.universe_size());
    uint64_t total = 0;
    for (TransactionId id = 0; id < data.db.size(); ++id) {
      size_t match = 0, hamming = 0;
      packed.MatchAndHamming(data.db.Get(id), &match, &hamming);
      total += match + hamming;
    }
    benchmark::DoNotOptimize(total);
    ++q;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.db.size()));
}

// --- Band split vs full-width dense rows on a wide Zipf universe. ---

struct BandedData {
  static constexpr uint32_t kUniverse = 8192;
  TransactionDatabase db;
  Transaction target;
  CandidateLayout banded;  // 1024-bit frequent-item band + sparse tails.
  CandidateLayout dense;   // Full 8192-bit rows, no tails.

  BandedData() : db(kUniverse) {
    std::mt19937_64 rng(99);
    for (size_t i = 0; i < 20'000; ++i) {
      std::vector<ItemId> items;
      const size_t len = 10 + rng() % 20;
      for (size_t j = 0; j < len; ++j) {
        // Zipf-ish: most draws land in a small frequent head.
        const uint64_t u = rng() % kUniverse;
        items.push_back(static_cast<ItemId>((u * u) / kUniverse));
      }
      db.Add(Transaction(std::move(items)));
    }
    {
      std::vector<ItemId> items;
      for (size_t j = 0; j < 12; ++j) {
        const uint64_t u = rng() % kUniverse;
        items.push_back(static_cast<ItemId>((u * u) / kUniverse));
      }
      target = Transaction(std::move(items));
    }
    CandidateLayoutConfig banded_config;
    banded_config.max_dense_bits = 1024;
    banded = CandidateLayout::Build(db, banded_config);
    CandidateLayoutConfig dense_config;
    dense_config.max_dense_bits = kUniverse;
    dense = CandidateLayout::Build(db, dense_config);
  }

  static BandedData& Get() {
    static BandedData data;
    return data;
  }
};

void BM_BandedLayout(benchmark::State& state, const CandidateLayout* layout) {
  BandedData& data = BandedData::Get();
  PackedTarget packed;
  packed.Assign(data.target, BandedData::kUniverse, layout);
  std::vector<uint32_t> match(data.db.size()), hamming(data.db.size());
  for (auto _ : state) {
    packed.MatchAndHammingRows(0, data.db.size(), match.data(),
                               hamming.data());
    benchmark::DoNotOptimize(match.data());
    benchmark::DoNotOptimize(hamming.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.db.size()));
}

void RegisterAll() {
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512, Isa::kNeon}) {
    const KernelOps* ops = kernel::KernelsFor(isa);
    if (ops == nullptr) continue;
    const std::string name = kernel::IsaName(isa);
    for (size_t words : {size_t{4}, size_t{8}, size_t{16}}) {
      benchmark::RegisterBenchmark(
          ("MatchRowsStream/" + name + "/w" + std::to_string(words)).c_str(),
          BM_MatchRowsStream, ops, words)
          ->Unit(benchmark::kMicrosecond);
      benchmark::RegisterBenchmark(
          ("MatchRowsGather/" + name + "/w" + std::to_string(words)).c_str(),
          BM_MatchRowsGather, ops, words)
          ->Unit(benchmark::kMicrosecond);
    }
    benchmark::RegisterBenchmark(("BoundsBatch/" + name).c_str(),
                                 BM_BoundsBatch, ops)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(("SummaryBounds/" + name).c_str(),
                                 BM_SummaryBounds, ops->summary_bounds)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(("PackedBatch/" + name).c_str(),
                                 BM_PackedBatch, isa)
        ->Unit(benchmark::kMicrosecond);
  }
  benchmark::RegisterBenchmark("PackedProbeLegacy", BM_PackedProbeLegacy)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("BandedLayout/banded", BM_BandedLayout,
                               &BandedData::Get().banded)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("BandedLayout/dense", BM_BandedLayout,
                               &BandedData::Get().dense)
      ->Unit(benchmark::kMicrosecond);
}

}  // namespace
}  // namespace mbi

/// Like perf_smoke: a bare run writes BENCH_kernels.json (explicit
/// --benchmark_out wins); refuses non-Release builds; pins one CPU and warms
/// the fixture data before any timed section.
int main(int argc, char** argv) {
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_kernels.json";
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
  mbi::bench::RequireReleaseBuild("micro_kernels");
  mbi::bench::StampBuildContext();
  const int cpu = mbi::bench::PinBenchmarkThread();
  benchmark::AddCustomContext("mbi_pinned_cpu", std::to_string(cpu));
  benchmark::AddCustomContext(
      "mbi_warm_checksum",
      std::to_string(mbi::bench::WarmDatabase(mbi::QuestData::Get().db) +
                     mbi::bench::WarmDatabase(mbi::BandedData::Get().db)));
  mbi::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
