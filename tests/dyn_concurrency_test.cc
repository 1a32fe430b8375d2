// TSan-oriented interleaving tests for the dynamized index: concurrent
// inserts, deletes, queries, background merges, and a foreground compaction
// all race against one DynamicIndex. Like stress_concurrency_test.cc the
// assertions stay simple (no lost rows, invariants hold, every answer
// internally consistent) — the point is to give the thread sanitizer
// interleavings to object to, with a final differential check proving
// nothing was silently corrupted. CI runs this under -DMBI_SANITIZE=thread
// across an MBI_FAULT_SEED matrix that varies the workload shape.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "baseline/sequential_scan.h"
#include "dyn/dynamic_index.h"
#include "gen/quest_generator.h"
#include "util/thread_pool.h"

namespace mbi {
namespace {

uint64_t FaultSeed() {
  const char* env = std::getenv("MBI_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 0;
}

TEST(DynConcurrencyTest, InsertsQueriesAndMergesInterleave) {
  const uint64_t seed = FaultSeed();
  QuestGeneratorConfig config;
  config.universe_size = 150;
  config.num_large_itemsets = 30;
  config.seed = 4000 + seed;

  ThreadPool merge_pool(2);
  DynamicIndexOptions options;
  options.buffer_capacity = 8;
  options.level_fanout = 2 + static_cast<size_t>(seed % 2);
  options.build.clustering.target_cardinality = 6;
  options.pool = &merge_pool;
  DynamicIndex index(150, options);

  constexpr size_t kRows = 160;
  QuestGenerator generator(config);
  std::vector<Transaction> rows;
  rows.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) rows.push_back(generator.NextTransaction());

  std::atomic<bool> writer_done{false};
  std::atomic<size_t> inserted{0};
  std::thread writer([&] {
    for (const Transaction& txn : rows) {
      for (;;) {  // Backpressure is a retry signal, never data loss.
        StatusOr<TransactionId> gid = index.Insert(txn);
        if (gid.ok()) break;
        ASSERT_EQ(gid.status().code(), StatusCode::kUnavailable);
        std::this_thread::yield();
      }
      inserted.fetch_add(1);
    }
    writer_done.store(true);
  });

  std::vector<std::thread> readers;
  const MatchRatioFamily family;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      QuestGeneratorConfig qconfig;
      qconfig.universe_size = 150;
      qconfig.seed = 5000 + seed * 10 + static_cast<uint64_t>(r);
      QuestGenerator queries(qconfig);
      DynQueryContext context;
      NearestNeighborResult result;
      while (!writer_done.load()) {
        const Transaction target = queries.NextTransaction();
        const size_t visible = inserted.load();
        index.FindKNearest(target, family, 5, SearchOptions{}, &context,
                           &result);
        // A snapshot can only see rows that were fully inserted; it must
        // see at least the rows published before the query started minus
        // nothing (components never drop live rows).
        EXPECT_GE(result.stats.database_size, std::min<size_t>(visible, 1));
        for (size_t i = 1; i < result.neighbors.size(); ++i) {
          EXPECT_GE(result.neighbors[i - 1].similarity,
                    result.neighbors[i].similarity);
        }
        EXPECT_TRUE(result.stats.is_exact);
      }
    });
  }

  writer.join();
  for (std::thread& reader : readers) reader.join();
  index.WaitForMaintenance();
  EXPECT_EQ(index.live_size(), kRows);
  EXPECT_TRUE(index.CheckInvariants().ok());

  // Differential epilogue: after the dust settles the index must agree with
  // a scan over everything inserted.
  TransactionDatabase oracle(150);
  for (const Transaction& txn : rows) oracle.Add(txn);
  const SequentialScanner scanner(&oracle);
  QuestGeneratorConfig qconfig;
  qconfig.universe_size = 150;
  qconfig.seed = 6000 + seed;
  QuestGenerator queries(qconfig);
  for (int q = 0; q < 3; ++q) {
    const Transaction target = queries.NextTransaction();
    NearestNeighborResult result = index.FindKNearest(target, family, 8);
    const std::vector<Neighbor> expected =
        scanner.FindKNearest(target, family, 8);
    ASSERT_EQ(result.neighbors.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.neighbors[i].similarity, expected[i].similarity);
    }
  }
}

TEST(DynConcurrencyTest, DeletesAndCompactionRaceQueries) {
  const uint64_t seed = FaultSeed();
  QuestGeneratorConfig config;
  config.universe_size = 150;
  config.num_large_itemsets = 30;
  config.seed = 4100 + seed;
  QuestGenerator generator(config);

  ThreadPool merge_pool(2);
  DynamicIndexOptions options;
  options.buffer_capacity = 8;
  options.level_fanout = 2;
  options.build.clustering.target_cardinality = 6;
  options.pool = &merge_pool;
  DynamicIndex index(150, options);

  constexpr size_t kRows = 96;
  std::vector<TransactionId> gids;
  for (size_t i = 0; i < kRows; ++i) {
    for (;;) {
      StatusOr<TransactionId> gid = index.Insert(generator.NextTransaction());
      if (gid.ok()) {
        gids.push_back(gid.value());
        break;
      }
      std::this_thread::yield();
    }
  }
  index.WaitForMaintenance();

  std::atomic<bool> done{false};
  std::thread deleter([&] {
    for (size_t i = 0; i < gids.size(); i += 3) {
      EXPECT_TRUE(index.Delete(gids[i]).ok());
      std::this_thread::yield();
    }
    done.store(true);
  });
  std::thread compactor([&] {
    EXPECT_TRUE(index.Compact().ok());
  });
  std::thread reader([&] {
    const MatchRatioFamily family;
    QuestGeneratorConfig qconfig;
    qconfig.universe_size = 150;
    qconfig.seed = 5100 + seed;
    QuestGenerator queries(qconfig);
    DynQueryContext context;
    NearestNeighborResult result;
    while (!done.load()) {
      index.FindKNearest(queries.NextTransaction(), family, 4,
                         SearchOptions{}, &context, &result);
      EXPECT_TRUE(result.stats.is_exact);
    }
  });
  deleter.join();
  compactor.join();
  reader.join();
  index.WaitForMaintenance();

  EXPECT_TRUE(index.CheckInvariants().ok());
  EXPECT_EQ(index.live_size(), kRows - (gids.size() + 2) / 3);

  // Every deleted gid is gone, every surviving gid findable.
  const MatchRatioFamily family;
  NearestNeighborResult all = index.FindKNearest(
      generator.NextTransaction(), family, index.live_size());
  std::set<TransactionId> returned;
  for (const Neighbor& neighbor : all.neighbors) returned.insert(neighbor.id);
  for (size_t i = 0; i < gids.size(); ++i) {
    if (i % 3 == 0) {
      EXPECT_EQ(returned.count(gids[i]), 0u) << "deleted gid came back";
    }
  }
}

TEST(DynConcurrencyTest, DeletesRaceMergeWindowsAndQueries) {
  // Each delete targets a row four inserts back, which usually sits in the
  // buffer or in a level-0 run that a background merge is gathering or about
  // to publish: the mark writes race the merge's reads, the publish's
  // re-marking, and the readers' scans. A row whose delete finished before
  // a query started must never be returned by it.
  const uint64_t seed = FaultSeed();
  QuestGeneratorConfig config;
  config.universe_size = 150;
  config.num_large_itemsets = 30;
  config.seed = 4200 + seed;
  QuestGenerator generator(config);

  ThreadPool merge_pool(1);
  DynamicIndexOptions options;
  options.buffer_capacity = 8;
  options.level_fanout = 2;
  options.build.clustering.target_cardinality = 6;
  options.pool = &merge_pool;
  DynamicIndex index(150, options);

  constexpr size_t kRows = 192;
  constexpr size_t kLag = 4;
  std::vector<Transaction> rows;
  for (size_t i = 0; i < kRows; ++i) rows.push_back(generator.NextTransaction());
  // Deleted gids are 0, 3, 6, ... in order; `deletes_done` counts those
  // whose Delete has returned.
  std::atomic<size_t> deletes_done{0};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (size_t i = 0; i < kRows; ++i) {
      for (;;) {
        StatusOr<TransactionId> gid = index.Insert(rows[i]);
        if (gid.ok()) {
          EXPECT_EQ(gid.value(), i);
          break;
        }
        std::this_thread::yield();
      }
      if (i >= kLag && (i - kLag) % 3 == 0) {
        EXPECT_TRUE(index.Delete(static_cast<TransactionId>(i - kLag)).ok());
        deletes_done.fetch_add(1);
      }
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      const MatchRatioFamily family;
      QuestGeneratorConfig qconfig;
      qconfig.universe_size = 150;
      qconfig.seed = 5200 + seed * 10 + static_cast<uint64_t>(r);
      QuestGenerator queries(qconfig);
      DynQueryContext context;
      NearestNeighborResult result;
      while (!done.load()) {
        const size_t finished = deletes_done.load();
        index.FindKNearest(queries.NextTransaction(), family, 6,
                           SearchOptions{}, &context, &result);
        EXPECT_TRUE(result.stats.is_exact);
        for (const Neighbor& neighbor : result.neighbors) {
          EXPECT_FALSE(neighbor.id % 3 == 0 && neighbor.id / 3 < finished)
              << "gid " << neighbor.id << " deleted before the query";
        }
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();
  index.WaitForMaintenance();

  const size_t num_deleted = deletes_done.load();
  EXPECT_TRUE(index.CheckInvariants().ok());
  EXPECT_EQ(index.live_size(), kRows - num_deleted);
  TransactionDatabase oracle(150);
  for (size_t i = 0; i < kRows; ++i) {
    if (!(i % 3 == 0 && i / 3 < num_deleted)) oracle.Add(rows[i]);
  }
  const MatchRatioFamily family;
  const Transaction target = generator.NextTransaction();
  NearestNeighborResult all =
      index.FindKNearest(target, family, index.live_size());
  const std::vector<Neighbor> expected =
      SequentialScanner(&oracle).FindKNearest(target, family, oracle.size());
  ASSERT_EQ(all.neighbors.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(all.neighbors[i].similarity, expected[i].similarity);
    EXPECT_FALSE(all.neighbors[i].id % 3 == 0 &&
                 all.neighbors[i].id / 3 < num_deleted)
        << "deleted gid " << all.neighbors[i].id << " came back";
  }
}

}  // namespace
}  // namespace mbi
