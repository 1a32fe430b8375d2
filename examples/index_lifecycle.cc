// Index lifecycle: everything a deployment does around the paper's
// algorithm — build an index, persist it, reopen it without re-mining,
// append new transactions incrementally, and answer a parallel batch of
// queries against the updated index.
//
// Writes go through DynamicIndex (Bentley–Saxe leveling, DESIGN.md §13):
// the initial rows are inserted and compacted into one signature-table
// component, new rows land in a buffer that spills into fresh components,
// and every built table stays immutable.
//
//   ./index_lifecycle [--transactions=30000] [--inserts=5000] [--seed=23]

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "dyn/dyn_io.h"
#include "dyn/dynamic_index.h"
#include "gen/quest_generator.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace {

// Inserts `count` generated rows; false (after reporting) on the first error.
bool InsertRows(mbi::DynamicIndex* index, mbi::QuestGenerator* generator,
                int64_t count) {
  for (int64_t i = 0; i < count; ++i) {
    auto gid = index->Insert(generator->NextTransaction());
    if (!gid.ok()) {
      std::fprintf(stderr, "error: %s\n", gid.status().ToString().c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  mbi::FlagParser flags("Index persistence, incremental growth, batches.");
  int64_t transactions, inserts, seed;
  std::string dir;
  flags.AddInt64("transactions", 30'000, "initial database size",
                 &transactions);
  flags.AddInt64("inserts", 5'000, "transactions appended after reopening",
                 &inserts);
  flags.AddInt64("seed", 23, "generator seed", &seed);
  flags.AddString("dir", "/tmp", "directory for the index files", &dir);
  if (!flags.Parse(argc, argv)) return 0;

  const std::string index_prefix = dir + "/lifecycle.mbdyn";

  // Day 0: build and persist. The initial rows fit the buffer, so Compact
  // mines and builds one component over all of them — the offline index.
  mbi::QuestGeneratorConfig gen_config;
  gen_config.universe_size = 1000;
  gen_config.num_large_itemsets = 2000;
  gen_config.avg_transaction_size = 10.0;
  gen_config.seed = static_cast<uint64_t>(seed);
  mbi::QuestGenerator generator(gen_config);

  mbi::DynamicIndexOptions options;
  options.build.clustering.target_cardinality = 14;
  options.buffer_capacity = static_cast<size_t>(transactions);
  mbi::Stopwatch timer;
  mbi::DynamicIndex built(gen_config.universe_size, options);
  if (!InsertRows(&built, &generator, transactions)) return 1;
  if (mbi::Status status = built.Compact(); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("built index over %zu transactions in %.2fs\n",
              built.live_size(), timer.ElapsedSeconds());

  if (!mbi::DynIo::Save(built, index_prefix).ok()) {
    std::fprintf(stderr, "error: cannot write to %s\n", dir.c_str());
    return 1;
  }
  const size_t saved_components = built.num_components();
  std::printf("persisted index -> %s (%zu components)\n", index_prefix.c_str(),
              saved_components);

  // Day 1: reopen without re-mining or re-clustering. New sales spill
  // through a smaller buffer into their own components.
  timer.Reset();
  options.buffer_capacity = 1024;
  auto reopened = mbi::DynIo::Load(index_prefix, options);
  if (!reopened.ok()) {
    std::fprintf(stderr, "error: %s\n", reopened.status().ToString().c_str());
    return 1;
  }
  mbi::DynamicIndex& index = **reopened;
  std::printf("reopened in %.2fs (no support mining, no clustering)\n",
              timer.ElapsedSeconds());

  timer.Reset();
  if (!InsertRows(&index, &generator, inserts)) return 1;
  index.WaitForMaintenance();
  std::printf(
      "appended %lld transactions in %.2fs (%zu components, %zu buffered)\n",
      static_cast<long long>(inserts), timer.ElapsedSeconds(),
      index.num_components(), index.buffered_rows());

  // Evening batch job: score a batch of query baskets in parallel.
  mbi::MatchRatioFamily family;
  auto batch = generator.GenerateQueries(64);
  mbi::SearchOptions search;
  search.max_access_fraction = 0.02;
  mbi::DynBatchWorkspace workspace;
  std::vector<mbi::NearestNeighborResult> results;
  timer.Reset();
  index.FindKNearestBatch(batch, family, 5, search,
                          std::thread::hardware_concurrency(),
                          /*pool=*/nullptr, &workspace, &results);
  double elapsed = timer.ElapsedSeconds();

  double avg_access = 0.0;
  int certified = 0;
  for (const auto& result : results) {
    avg_access += result.stats.AccessedFraction();
    certified += result.stats.is_exact;
  }
  std::printf(
      "batch of %zu queries in %.2fs (%.1f ms/query): avg access %.2f%%, "
      "%d/%zu certified exact at 2%% termination\n",
      batch.size(), elapsed,
      1e3 * elapsed / static_cast<double>(batch.size()),
      100.0 * avg_access / static_cast<double>(results.size()), certified,
      results.size());

  std::remove(index_prefix.c_str());
  for (size_t i = 0; i < saved_components; ++i) {
    std::remove(mbi::DynIo::RowsPath(index_prefix, i).c_str());
    std::remove(mbi::DynIo::TablePath(index_prefix, i).c_str());
  }
  return 0;
}
