// Unit tests for the Bentley–Saxe dynamization (src/dyn/): buffer and spill
// mechanics, leveling/merge policy, delete marks and their purging
// (including the merge window and parts with fewer than k live rows),
// admission control, compaction, persistence (including per-component
// quarantine), and the KnnMerger invariants. Cross-checking against the sequential-scan oracle
// lives in dyn_differential_test.cc; TSan interleavings in
// dyn_concurrency_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baseline/sequential_scan.h"
#include "dyn/dyn_io.h"
#include "dyn/dynamic_index.h"
#include "dyn/knn_merger.h"
#include "dyn/mutable_buffer.h"
#include "dyn/scheduler.h"
#include "gen/quest_generator.h"
#include "storage/env.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace mbi {
namespace {

QuestGeneratorConfig GeneratorConfig(uint64_t seed = 711) {
  QuestGeneratorConfig config;
  config.universe_size = 200;
  config.num_large_itemsets = 40;
  config.seed = seed;
  return config;
}

DynamicIndexOptions SmallOptions() {
  DynamicIndexOptions options;
  options.buffer_capacity = 8;
  options.level_fanout = 2;
  options.build.clustering.target_cardinality = 6;
  return options;
}

/// Inserts `n` generated rows, asserting each insert is admitted (the
/// inline scheduler never leaves a merge in flight, so backpressure cannot
/// trip here).
std::vector<TransactionId> FillIndex(DynamicIndex* index,
                                     QuestGenerator* generator, size_t n) {
  std::vector<TransactionId> gids;
  gids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto gid = index->Insert(generator->NextTransaction());
    EXPECT_TRUE(gid.ok()) << gid.status().ToString();
    gids.push_back(gid.value());
  }
  return gids;
}

/// Asserts `index` answers `target` with exactly the scan oracle's values
/// over `live` (rows in ascending-gid order), certified exact, and with no
/// gid outside `live_gids`.
void ExpectExactOverLive(const DynamicIndex& index,
                         const TransactionDatabase& live,
                         const std::set<TransactionId>& live_gids,
                         const Transaction& target, size_t k) {
  const MatchRatioFamily family;
  NearestNeighborResult result = index.FindKNearest(target, family, k);
  const std::vector<Neighbor> expected =
      SequentialScanner(&live).FindKNearest(target, family, k);
  EXPECT_TRUE(result.guaranteed_exact);
  EXPECT_TRUE(result.stats.is_exact);
  ASSERT_EQ(result.neighbors.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.neighbors[i].similarity, expected[i].similarity);
    EXPECT_EQ(live_gids.count(result.neighbors[i].id), 1u)
        << "deleted gid " << result.neighbors[i].id << " returned";
  }
}

/// Saves `index` and reloads it with component 0's table trashed, so that
/// component answers through its (mask-bound) sequential scanner.
std::unique_ptr<DynamicIndex> ReloadWithComponentZeroQuarantined(
    const DynamicIndex& index, const DynamicIndexOptions& options,
    const std::string& name) {
  const std::string prefix = ::testing::TempDir() + name;
  EXPECT_TRUE(DynIo::Save(index, prefix).ok());
  auto file_or = Env::Default()->NewWritableFile(DynIo::TablePath(prefix, 0));
  EXPECT_TRUE(file_or.ok());
  const char garbage[] = "not a signature table";
  EXPECT_TRUE(file_or.value()->Append(garbage, sizeof(garbage)).ok());
  EXPECT_TRUE(file_or.value()->Close().ok());
  auto loaded_or = DynIo::Load(prefix, options);
  EXPECT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  return std::move(loaded_or).value();
}

TEST(MutableBufferTest, AppendsUntilFullAndPublishesInOrder) {
  MutableBuffer buffer(3);
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_TRUE(buffer.Append(10, Transaction({1, 2})));
  EXPECT_TRUE(buffer.Append(11, Transaction({3})));
  EXPECT_FALSE(buffer.full());
  EXPECT_TRUE(buffer.Append(12, Transaction({})));
  EXPECT_TRUE(buffer.full());
  EXPECT_FALSE(buffer.Append(13, Transaction({4})));
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.row(0).gid, 10u);
  EXPECT_EQ(buffer.row(2).gid, 12u);
  EXPECT_EQ(buffer.row(0).txn.size(), 2u);
}

TEST(SchedulerTest, InlineModeRunsJobsSynchronously) {
  Scheduler scheduler(nullptr);
  int ran = 0;
  EXPECT_TRUE(scheduler.Submit([&ran](const QueryBudget& budget) {
    EXPECT_FALSE(budget.cancelled());
    ++ran;
  }));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(scheduler.in_flight(), 0u);
}

TEST(SchedulerTest, StopDropsFutureJobsAndCancelsBudgets) {
  ThreadPool pool(2);
  Scheduler scheduler(&pool);
  scheduler.RequestStop();
  int ran = 0;
  EXPECT_FALSE(scheduler.Submit([&ran](const QueryBudget&) { ++ran; }));
  scheduler.Drain();
  EXPECT_EQ(ran, 0);
}

TEST(SchedulerTest, JobDeadlineReachesTheBudget) {
  Scheduler scheduler(nullptr, /*job_deadline_ms=*/1e6);
  bool saw_deadline = false;
  scheduler.Submit([&saw_deadline](const QueryBudget& budget) {
    saw_deadline = budget.deadline_us !=
                   std::numeric_limits<double>::infinity();
  });
  EXPECT_TRUE(saw_deadline);
}

TEST(DynamicIndexTest, SpillsAtCapacityAndMergesGeometrically) {
  QuestGenerator generator(GeneratorConfig());
  DynamicIndex index(200, SmallOptions());
  FillIndex(&index, &generator, 64);

  // 64 rows / capacity 8 = 8 spills; fanout 2 cascades them into one run.
  EXPECT_EQ(index.live_size(), 64u);
  EXPECT_EQ(index.buffered_rows(), 0u);
  size_t total_rows = 0;
  for (const auto& level : index.LevelBreakdown()) {
    EXPECT_LT(level.components, SmallOptions().level_fanout)
        << "level " << level.level << " left overflowing";
    total_rows += level.rows;
  }
  EXPECT_EQ(total_rows, 64u);
  EXPECT_TRUE(index.CheckInvariants().ok());
}

TEST(DynamicIndexTest, QueriesSpanBufferAndComponents) {
  QuestGenerator generator(GeneratorConfig());
  DynamicIndex index(200, SmallOptions());
  FillIndex(&index, &generator, 21);  // 2 spills + 5 buffered rows.
  EXPECT_EQ(index.buffered_rows(), 5u);

  MatchRatioFamily family;
  const Transaction target = generator.NextTransaction();
  NearestNeighborResult result = index.FindKNearest(target, family, 10);
  EXPECT_EQ(result.neighbors.size(), 10u);
  EXPECT_TRUE(result.guaranteed_exact);
  EXPECT_TRUE(result.stats.is_exact);
  EXPECT_EQ(result.stats.termination, QueryTermination::kCompleted);
  // database_size sums the partitioned components + buffer.
  EXPECT_EQ(result.stats.database_size, 21u);
  for (size_t i = 1; i < result.neighbors.size(); ++i) {
    EXPECT_GE(result.neighbors[i - 1].similarity,
              result.neighbors[i].similarity);
  }
}

TEST(DynamicIndexTest, DeleteHidesRowsEverywhere) {
  QuestGenerator generator(GeneratorConfig());
  DynamicIndex index(200, SmallOptions());
  std::vector<TransactionId> gids = FillIndex(&index, &generator, 20);

  // One victim in a static component, one in the buffer.
  ASSERT_TRUE(index.Delete(gids[3]).ok());
  ASSERT_TRUE(index.Delete(gids[18]).ok());
  EXPECT_EQ(index.live_size(), 18u);
  EXPECT_EQ(index.tombstone_count(), 2u);

  MatchRatioFamily family;
  NearestNeighborResult result =
      index.FindKNearest(generator.NextTransaction(), family, 18);
  EXPECT_EQ(result.neighbors.size(), 18u);
  for (const Neighbor& neighbor : result.neighbors) {
    EXPECT_NE(neighbor.id, gids[3]);
    EXPECT_NE(neighbor.id, gids[18]);
  }
  EXPECT_TRUE(index.CheckInvariants().ok());
}

TEST(DynamicIndexTest, DeleteErrorTaxonomy) {
  QuestGenerator generator(GeneratorConfig());
  DynamicIndex index(200, SmallOptions());
  std::vector<TransactionId> gids = FillIndex(&index, &generator, 4);

  EXPECT_EQ(index.Delete(999).code(), StatusCode::kNotFound);
  ASSERT_TRUE(index.Delete(gids[1]).ok());
  EXPECT_EQ(index.Delete(gids[1]).code(), StatusCode::kNotFound);

  // After a merge purges the row, a re-delete still reports kNotFound.
  ASSERT_TRUE(index.Compact().ok());
  EXPECT_EQ(index.tombstone_count(), 0u);
  EXPECT_EQ(index.Delete(gids[1]).code(), StatusCode::kNotFound);
}

TEST(DynamicIndexTest, MergePurgesTombstonesAndPreservesAnswers) {
  QuestGenerator generator(GeneratorConfig());
  DynamicIndex index(200, SmallOptions());
  std::vector<TransactionId> gids = FillIndex(&index, &generator, 40);
  for (size_t i = 0; i < 40; i += 5) {
    ASSERT_TRUE(index.Delete(gids[i]).ok());
  }
  const Transaction target = generator.NextTransaction();
  MatchRatioFamily family;
  NearestNeighborResult before = index.FindKNearest(target, family, 12);

  ASSERT_TRUE(index.Compact().ok());
  EXPECT_EQ(index.tombstone_count(), 0u);
  EXPECT_EQ(index.num_components(), 1u);
  EXPECT_EQ(index.live_size(), 32u);
  EXPECT_TRUE(index.CheckInvariants().ok());

  NearestNeighborResult after = index.FindKNearest(target, family, 12);
  ASSERT_EQ(after.neighbors.size(), before.neighbors.size());
  for (size_t i = 0; i < after.neighbors.size(); ++i) {
    EXPECT_EQ(after.neighbors[i].similarity, before.neighbors[i].similarity);
  }
}

TEST(DynamicIndexTest, PartsWithFewerThanKLiveRowsStayExact) {
  // 16 rows merge into one level-1 component; 3 more stay buffered.
  QuestGenerator generator(GeneratorConfig());
  DynamicIndexOptions options = SmallOptions();
  DynamicIndex index(200, options);
  std::vector<TransactionId> gids = FillIndex(&index, &generator, 19);
  ASSERT_EQ(index.num_components(), 1u);
  ASSERT_EQ(index.buffered_rows(), 3u);
  // Keep two live rows in the component and two in the buffer.
  for (size_t i = 0; i < 19; ++i) {
    if (i == 4 || i == 11 || i == 16 || i == 18) continue;
    ASSERT_TRUE(index.Delete(gids[i]).ok());
  }
  ASSERT_TRUE(index.CheckInvariants().ok());

  std::vector<Transaction> rows;
  {
    QuestGenerator replay(GeneratorConfig());
    for (size_t i = 0; i < 19; ++i) rows.push_back(replay.NextTransaction());
  }
  auto live_of = [&](const std::vector<size_t>& keep, TransactionDatabase* db,
                     std::set<TransactionId>* live_gids) {
    for (size_t i : keep) {
      db->Add(rows[i]);
      live_gids->insert(gids[i]);
    }
  };
  const Transaction target = generator.NextTransaction();

  // Healthy path: the component's branch and bound holds 2 < k live rows.
  TransactionDatabase live(200);
  std::set<TransactionId> live_gids;
  live_of({4, 11, 16, 18}, &live, &live_gids);
  ExpectExactOverLive(index, live, live_gids, target, 10);
  ExpectExactOverLive(index, live, live_gids, target, 3);

  // Quarantined path: the same marks, answered by the component's scanner.
  std::unique_ptr<DynamicIndex> quarantined =
      ReloadWithComponentZeroQuarantined(index, options, "dyn_few_live");
  ExpectExactOverLive(*quarantined, live, live_gids, target, 10);
  EXPECT_GE(quarantined->FindKNearest(target, MatchRatioFamily(), 10)
                .stats.sequential_fallbacks,
            1u);

  // Every component row deleted: only the buffer answers, still exact.
  ASSERT_TRUE(index.Delete(gids[4]).ok());
  ASSERT_TRUE(index.Delete(gids[11]).ok());
  ASSERT_TRUE(quarantined->Delete(gids[4]).ok());
  ASSERT_TRUE(quarantined->Delete(gids[11]).ok());
  TransactionDatabase buffer_only(200);
  std::set<TransactionId> buffer_gids;
  live_of({16, 18}, &buffer_only, &buffer_gids);
  ExpectExactOverLive(index, buffer_only, buffer_gids, target, 10);
  ExpectExactOverLive(*quarantined, buffer_only, buffer_gids, target, 10);
  EXPECT_TRUE(index.CheckInvariants().ok());
  EXPECT_TRUE(quarantined->CheckInvariants().ok());
}

TEST(DynamicIndexTest, DeleteInTheMergeWindowNeverComesBack) {
  // Wedge the single merge worker so the merge planned by the second spill
  // waits; a delete of one of its victims' rows must stay deleted through
  // the gather and the publish.
  ThreadPool pool(1);
  std::latch release(1);
  pool.Submit([&release] { release.wait(); });

  DynamicIndexOptions options = SmallOptions();
  options.pool = &pool;
  QuestGenerator generator(GeneratorConfig());
  DynamicIndex index(200, options);
  std::vector<TransactionId> gids = FillIndex(&index, &generator, 16);
  ASSERT_EQ(index.num_components(), 2u);  // Both level-0 runs are victims.
  ASSERT_TRUE(index.Delete(gids[3]).ok());
  ASSERT_TRUE(index.Delete(gids[12]).ok());
  EXPECT_TRUE(index.CheckInvariants().ok());

  release.count_down();
  index.WaitForMaintenance();
  EXPECT_EQ(index.num_components(), 1u);
  EXPECT_EQ(index.live_size(), 14u);
  EXPECT_TRUE(index.CheckInvariants().ok());
  EXPECT_EQ(index.Delete(gids[3]).code(), StatusCode::kNotFound);

  MatchRatioFamily family;
  NearestNeighborResult all =
      index.FindKNearest(generator.NextTransaction(), family, 16);
  EXPECT_EQ(all.neighbors.size(), 14u);
  for (const Neighbor& neighbor : all.neighbors) {
    EXPECT_NE(neighbor.id, gids[3]);
    EXPECT_NE(neighbor.id, gids[12]);
  }
}

TEST(DynComponentTest, CarryDeletesIntoRemarksLateDeletesAndPurgesTheRest) {
  // Two victims of one merge, gids 0-3 and 4-7. Gid 1 was deleted before
  // the gather (dropped from the merged run); gids 2 and 7 were deleted in
  // the merge window, after the gather copied them.
  QuestGenerator generator(GeneratorConfig());
  IndexBuildConfig build = SmallOptions().build;
  auto make = [&](int level, std::vector<TransactionId> gids,
                  const std::vector<Transaction>& txns) {
    TransactionDatabase db(200);
    for (const Transaction& txn : txns) db.Add(txn);
    return DynComponent::Create(level, std::move(gids), std::move(db), build);
  };
  std::vector<Transaction> rows;
  for (int i = 0; i < 8; ++i) rows.push_back(generator.NextTransaction());
  auto first = make(0, {0, 1, 2, 3}, {rows[0], rows[1], rows[2], rows[3]});
  auto second = make(0, {4, 5, 6, 7}, {rows[4], rows[5], rows[6], rows[7]});
  ASSERT_TRUE(first->deleted.Mark(1));
  auto merged = make(1, {0, 2, 3, 4, 5, 6, 7},
                     {rows[0], rows[2], rows[3], rows[4], rows[5], rows[6],
                      rows[7]});
  ASSERT_TRUE(first->deleted.Mark(2));
  ASSERT_TRUE(second->deleted.Mark(3));

  EXPECT_EQ(first->CarryDeletesInto(merged.get()), 1u);  // Gid 1: purged.
  EXPECT_EQ(second->CarryDeletesInto(merged.get()), 0u);
  EXPECT_EQ(merged->deleted.Count(), 2u);
  EXPECT_TRUE(merged->deleted.IsMarked(1));  // Gid 2.
  EXPECT_TRUE(merged->deleted.IsMarked(6));  // Gid 7.
  // A merge that kept no row purges every mark.
  EXPECT_EQ(second->CarryDeletesInto(nullptr), 1u);

  // The merged engine and scanner skip the carried marks.
  const MatchRatioFamily family;
  for (const NearestNeighborResult& result :
       {merged->engine->FindKNearest(rows[2], family, 7),
        [&] {
          NearestNeighborResult scan;
          merged->scanner->FindKNearest(rows[2], family, 7, QueryBudget{},
                                        &scan);
          return scan;
        }()}) {
    EXPECT_EQ(result.neighbors.size(), 5u);
    EXPECT_TRUE(result.guaranteed_exact);
    for (const Neighbor& neighbor : result.neighbors) {
      EXPECT_NE(neighbor.id, 1u);
      EXPECT_NE(neighbor.id, 6u);
    }
  }
}

TEST(DynamicIndexTest, BackpressureRejectsWithRetryHintWhenLevelZeroIsFull) {
  // Wedge the merge pool with a blocker so the scheduled merge cannot run;
  // level 0 then fills to max_l0_components and the next spill-needing
  // insert must be refused with the admission hint.
  ThreadPool pool(1);
  Mutex mu;
  CondVar cv;
  bool release = false;
  pool.Submit([&] {
    MutexLock lock(&mu);
    while (!release) cv.Wait(&mu);
  });

  DynamicIndexOptions options = SmallOptions();
  options.pool = &pool;
  options.max_l0_components = 3;
  QuestGenerator generator(GeneratorConfig());
  DynamicIndex index(200, options);

  Status rejected = Status::Ok();
  for (int i = 0; i < 200 && rejected.ok(); ++i) {
    StatusOr<TransactionId> gid = index.Insert(generator.NextTransaction());
    if (!gid.ok()) rejected = gid.status();
  }
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  EXPECT_NE(rejected.message().find("retry_after_ms="), std::string::npos);

  {
    MutexLock lock(&mu);
    release = true;
    cv.NotifyAll();
  }
  index.WaitForMaintenance();
  // With the merge drained, admission resumes.
  EXPECT_TRUE(index.Insert(generator.NextTransaction()).ok());
  EXPECT_TRUE(index.CheckInvariants().ok());
}

TEST(DynamicIndexTest, MetricsTrackTheLifecycle) {
  MetricsRegistry registry;
  DynamicIndexOptions options = SmallOptions();
  options.metrics = &registry;
  QuestGenerator generator(GeneratorConfig());
  DynamicIndex index(200, options);
  std::vector<TransactionId> gids = FillIndex(&index, &generator, 20);
  ASSERT_TRUE(index.Delete(gids[0]).ok());
  MatchRatioFamily family;
  index.FindKNearest(generator.NextTransaction(), family, 3);

  EXPECT_EQ(registry.FindCounter("mbi.dyn.inserts")->value(), 20u);
  EXPECT_EQ(registry.FindCounter("mbi.dyn.deletes")->value(), 1u);
  EXPECT_GE(registry.FindCounter("mbi.dyn.spills")->value(), 2u);
  EXPECT_GE(registry.FindCounter("mbi.dyn.merges")->value(), 1u);
  EXPECT_EQ(registry.FindCounter("mbi.dyn.queries")->value(), 1u);
  EXPECT_EQ(registry.FindGauge("mbi.dyn.live_rows")->value(), 19.0);
}

TEST(DynIoTest, SaveLoadRoundTripsStateAndAnswers) {
  QuestGenerator generator(GeneratorConfig());
  DynamicIndexOptions options = SmallOptions();
  DynamicIndex index(200, options);
  std::vector<TransactionId> gids = FillIndex(&index, &generator, 29);
  ASSERT_TRUE(index.Delete(gids[7]).ok());
  ASSERT_TRUE(index.Delete(gids[27]).ok());  // A buffered row.

  const std::string prefix = ::testing::TempDir() + "dyn_roundtrip";
  ASSERT_TRUE(DynIo::Save(index, prefix).ok());

  auto loaded_or = DynIo::Load(prefix, options);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  std::unique_ptr<DynamicIndex> loaded = std::move(loaded_or).value();
  EXPECT_EQ(loaded->live_size(), index.live_size());
  EXPECT_EQ(loaded->next_gid(), index.next_gid());
  EXPECT_TRUE(loaded->CheckInvariants().ok());

  MatchRatioFamily family;
  const Transaction target = generator.NextTransaction();
  NearestNeighborResult original = index.FindKNearest(target, family, 10);
  NearestNeighborResult restored = loaded->FindKNearest(target, family, 10);
  ASSERT_EQ(restored.neighbors.size(), original.neighbors.size());
  for (size_t i = 0; i < restored.neighbors.size(); ++i) {
    EXPECT_EQ(restored.neighbors[i].similarity,
              original.neighbors[i].similarity);
    EXPECT_EQ(restored.neighbors[i].id, original.neighbors[i].id);
  }

  // The gid watermark survives: new inserts never collide with old rows.
  StatusOr<TransactionId> fresh = loaded->Insert(generator.NextTransaction());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value(), index.next_gid());
}

TEST(DynIoTest, RoundTripReappliesMarksInBufferAndComponents) {
  QuestGenerator generator(GeneratorConfig());
  DynamicIndexOptions options = SmallOptions();
  DynamicIndex index(200, options);
  std::vector<TransactionId> gids = FillIndex(&index, &generator, 29);
  ASSERT_EQ(index.buffered_rows(), 5u);
  const std::vector<size_t> deleted = {0, 7, 8, 20, 25, 27};  // 25, 27 buffered.
  for (size_t i : deleted) ASSERT_TRUE(index.Delete(gids[i]).ok());
  ASSERT_EQ(index.tombstone_count(), deleted.size());

  const std::string prefix = ::testing::TempDir() + "dyn_marks_roundtrip";
  ASSERT_TRUE(DynIo::Save(index, prefix).ok());

  // Reload as saved, and with a smaller buffer so the marked buffer rows
  // spill into components on the way in (whose merges may then purge
  // some of the marks).
  DynamicIndexOptions small_buffer = options;
  small_buffer.buffer_capacity = 2;
  for (const DynamicIndexOptions& reload : {options, small_buffer}) {
    auto loaded_or = DynIo::Load(prefix, reload);
    ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
    std::unique_ptr<DynamicIndex> loaded = std::move(loaded_or).value();
    EXPECT_TRUE(loaded->CheckInvariants().ok());
    EXPECT_EQ(loaded->live_size(), 23u);
    if (reload.buffer_capacity == options.buffer_capacity) {
      EXPECT_EQ(loaded->tombstone_count(), deleted.size());
      EXPECT_EQ(loaded->buffered_rows(), 5u);
    }
    for (size_t i : deleted) {
      EXPECT_EQ(loaded->Delete(gids[i]).code(), StatusCode::kNotFound);
    }
    MatchRatioFamily family;
    NearestNeighborResult all =
        loaded->FindKNearest(generator.NextTransaction(), family, 29);
    EXPECT_EQ(all.neighbors.size(), 23u);
    for (const Neighbor& neighbor : all.neighbors) {
      for (size_t i : deleted) EXPECT_NE(neighbor.id, gids[i]);
    }
  }
}

TEST(DynIoTest, CorruptTableQuarantinesOneComponentOnly) {
  QuestGenerator generator(GeneratorConfig());
  DynamicIndexOptions options = SmallOptions();
  DynamicIndex index(200, options);
  FillIndex(&index, &generator, 48);  // Ends as L2(32) + L1(16): two shards.
  ASSERT_GE(index.num_components(), 2u);

  const std::string prefix = ::testing::TempDir() + "dyn_quarantine";
  ASSERT_TRUE(DynIo::Save(index, prefix).ok());

  // Trash component 0's table shard; its rows stay intact.
  Env* env = Env::Default();
  {
    auto file_or = env->NewWritableFile(DynIo::TablePath(prefix, 0));
    ASSERT_TRUE(file_or.ok());
    const char garbage[] = "not a signature table";
    ASSERT_TRUE(file_or.value()->Append(garbage, sizeof(garbage)).ok());
    ASSERT_TRUE(file_or.value()->Close().ok());
  }

  auto loaded_or = DynIo::Load(prefix, options);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  std::unique_ptr<DynamicIndex> loaded = std::move(loaded_or).value();
  EXPECT_TRUE(loaded->CheckInvariants().ok());

  // Still answers exactly — the damaged component scans sequentially and
  // the fallback is surfaced in the stats.
  MatchRatioFamily family;
  const Transaction target = generator.NextTransaction();
  NearestNeighborResult original = index.FindKNearest(target, family, 8);
  NearestNeighborResult degraded = loaded->FindKNearest(target, family, 8);
  ASSERT_EQ(degraded.neighbors.size(), original.neighbors.size());
  for (size_t i = 0; i < degraded.neighbors.size(); ++i) {
    EXPECT_EQ(degraded.neighbors[i].similarity,
              original.neighbors[i].similarity);
  }
  EXPECT_TRUE(degraded.guaranteed_exact);
  EXPECT_GE(degraded.stats.sequential_fallbacks, 1u);

  // A compaction re-mines everything, clearing the quarantine.
  ASSERT_TRUE(loaded->Compact().ok());
  NearestNeighborResult healed = loaded->FindKNearest(target, family, 8);
  EXPECT_EQ(healed.stats.sequential_fallbacks, 0u);
}

TEST(DynIoTest, CorruptRowsFailTheLoad) {
  QuestGenerator generator(GeneratorConfig());
  DynamicIndex index(200, SmallOptions());
  FillIndex(&index, &generator, 16);
  const std::string prefix = ::testing::TempDir() + "dyn_bad_rows";
  ASSERT_TRUE(DynIo::Save(index, prefix).ok());

  Env* env = Env::Default();
  {
    auto file_or = env->NewWritableFile(DynIo::RowsPath(prefix, 0));
    ASSERT_TRUE(file_or.ok());
    const char garbage[] = "x";
    ASSERT_TRUE(file_or.value()->Append(garbage, sizeof(garbage)).ok());
    ASSERT_TRUE(file_or.value()->Close().ok());
  }
  EXPECT_FALSE(DynIo::Load(prefix, SmallOptions()).ok());
}

TEST(KnnMergerTest, MergesEveryPathByValueThenGid) {
  // Parts hand in live rows only (deleted rows never leave a part), so the
  // merger keeps every candidate from every path and just ranks them.
  KnnMerger merger;
  merger.Reset(3);
  NearestNeighborResult component;
  component.neighbors = {{5, 0.9}, {1, 0.8}, {2, 0.7}};
  component.stats.is_exact = true;
  merger.AddComponent(component);
  merger.AddCandidate(9, 1.0);  // Buffer rows.
  merger.AddCandidate(3, 0.9);
  EXPECT_EQ(merger.candidate_count(), 5u);
  NearestNeighborResult merged;
  merger.Finish(&merged);
  ASSERT_EQ(merged.neighbors.size(), 3u);
  EXPECT_EQ(merged.neighbors[0].id, 9u);
  EXPECT_EQ(merged.neighbors[1].id, 3u);  // Tied at 0.9: ascending gid.
  EXPECT_EQ(merged.neighbors[2].id, 5u);
  EXPECT_TRUE(merged.guaranteed_exact);
}

TEST(KnnMergerTest, CertificateAndExactnessFollowTheMergeRules) {
  KnnMerger merger;
  merger.Reset(2);
  NearestNeighborResult exact;
  exact.neighbors = {{1, 0.9}};
  exact.stats.is_exact = true;
  exact.stats.certificate_bound = -std::numeric_limits<double>::infinity();
  merger.AddComponent(exact);
  QueryStats skipped;
  skipped.is_exact = false;
  skipped.certificate_bound = 0.75;
  skipped.termination = QueryTermination::kEntryBudget;
  merger.AddStats(skipped);
  NearestNeighborResult merged;
  merger.Finish(&merged);
  EXPECT_FALSE(merged.guaranteed_exact);
  EXPECT_EQ(merged.stats.certificate_bound, 0.75);
  EXPECT_EQ(merged.stats.termination, QueryTermination::kEntryBudget);
  EXPECT_EQ(merged.unexplored_optimistic_bound, 0.75);
}

}  // namespace
}  // namespace mbi
