// Exercises the invariant-verification layer: the CheckInvariants() walks on
// SignaturePartition, SignatureTable, BufferPool, and InvertedIndex, the
// buffer-pool pin balance, and the Lemma 2.1 bound-dominance sweep. Each walk
// aborts on violation, so a passing test proves the built structures satisfy
// every checked invariant; death tests prove the checks actually fire.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "baseline/inverted_index.h"
#include "core/branch_and_bound.h"
#include "core/index_builder.h"
#include "core/table_io.h"
#include "gen/quest_generator.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "util/macros.h"

namespace mbi {
namespace {

QuestGeneratorConfig GeneratorConfig(uint64_t seed = 7001) {
  QuestGeneratorConfig config;
  config.universe_size = 200;
  config.num_large_itemsets = 50;
  config.avg_itemset_size = 4.0;
  config.avg_transaction_size = 8.0;
  config.seed = seed;
  return config;
}

SignatureTable BuildTable(const TransactionDatabase& db,
                          uint32_t cardinality = 8,
                          int activation_threshold = 1) {
  IndexBuildConfig build;
  build.clustering.target_cardinality = cardinality;
  build.table.activation_threshold = activation_threshold;
  return BuildIndex(db, build);
}

TEST(PartitionInvariantsTest, HoldAfterClusteringBuild) {
  QuestGenerator generator(GeneratorConfig());
  TransactionDatabase db = generator.GenerateDatabase(500);
  SignatureTable table = BuildTable(db);
  table.partition().CheckInvariants();
}

TEST(PartitionInvariantsTest, HoldForHandBuiltPartition) {
  SignaturePartition partition(3, {0, 0, 1, 2, 1, 2});
  partition.CheckInvariants();
}

TEST(SignatureTableInvariantsTest, HoldAfterBuild) {
  QuestGenerator generator(GeneratorConfig());
  TransactionDatabase db = generator.GenerateDatabase(800);
  for (int r : {1, 2}) {
    SignatureTable table = BuildTable(db, 8, r);
    table.CheckInvariants(&db);
  }
}

TEST(SignatureTableInvariantsTest, HoldAfterSaveLoadRoundtrip) {
  QuestGenerator generator(GeneratorConfig(7003));
  TransactionDatabase db = generator.GenerateDatabase(400);
  SignatureTable table = BuildTable(db);
  const std::string path = ::testing::TempDir() + "invariants_roundtrip.mbst";
  ASSERT_TRUE(SaveSignatureTable(table, path).ok());
  auto loaded = LoadSignatureTable(path, db);
  ASSERT_TRUE(loaded.ok());
  loaded->CheckInvariants(&db);
  std::remove(path.c_str());
}

TEST(BufferPoolInvariantsTest, LruBookkeepingSurvivesChurn) {
  PageStore store(64);
  for (TransactionId id = 0; id < 64; ++id) {
    store.Append(id, 24);  // ~2 transactions per 64-byte page.
  }
  ASSERT_GT(store.size(), 8u);

  BufferPool pool(&store, 4);
  IoStats io;
  for (int round = 0; round < 3; ++round) {
    for (PageId page = 0; page < store.size(); ++page) {
      pool.Read(page, &io);
      pool.CheckInvariants();
    }
  }
  EXPECT_LE(pool.cached_pages(), 4u);
  EXPECT_EQ(pool.total_pins(), 0u);
}

TEST(BufferPoolInvariantsTest, PinnedPagesAreNotEvicted) {
  PageStore store(64);
  for (TransactionId id = 0; id < 32; ++id) store.Append(id, 24);
  BufferPool pool(&store, 2);
  IoStats io;

  pool.Read(0, &io);
  pool.Pin(0);
  pool.CheckInvariants();

  // Churn far past capacity: page 0 must stay resident while pinned.
  for (PageId page = 1; page < store.size(); ++page) {
    pool.Read(page, &io);
    pool.CheckInvariants();
  }
  uint64_t hits_before = pool.hits();
  pool.Read(0, &io);
  EXPECT_EQ(pool.hits(), hits_before + 1) << "pinned page was evicted";

  pool.Unpin(0);
  EXPECT_EQ(pool.total_pins(), 0u);
  pool.CheckInvariants();
  pool.Clear();
  pool.CheckInvariants();
}

TEST(BufferPoolInvariantsTest, NestedPinsBalance) {
  PageStore store(64);
  for (TransactionId id = 0; id < 8; ++id) store.Append(id, 24);
  BufferPool pool(&store, 2);
  IoStats io;
  pool.Read(0, &io);
  {
    PinGuard outer(&pool, 0);
    PinGuard inner(&pool, 0);
    EXPECT_EQ(pool.total_pins(), 2u);
    pool.CheckInvariants();
  }
  EXPECT_EQ(pool.total_pins(), 0u);
  pool.CheckInvariants();
}

TEST(BufferPoolInvariantsTest, FetchTransactionLeavesPinsBalanced) {
  QuestGenerator generator(GeneratorConfig(7004));
  TransactionDatabase db = generator.GenerateDatabase(200);
  TransactionStore store = TransactionStore::BuildSequential(db, 256);
  BufferPool pool(&store.page_store(), 8);
  IoStats io;
  for (TransactionId id = 0; id < db.size(); ++id) {
    store.FetchTransaction(id, &pool, &io);
  }
  EXPECT_EQ(pool.total_pins(), 0u);
  pool.CheckInvariants();
}

TEST(InvertedIndexInvariantsTest, HoldForPlainAndCompressedPostings) {
  QuestGenerator generator(GeneratorConfig(7005));
  TransactionDatabase db = generator.GenerateDatabase(600);
  for (bool compressed : {false, true}) {
    InvertedIndex index(&db, 4096, /*buffer_pool_pages=*/4, compressed);
    index.CheckInvariants();
  }
}

TEST(BoundDominanceTest, HoldsForAllFamiliesAndThresholds) {
  QuestGenerator generator(GeneratorConfig(7006));
  TransactionDatabase db = generator.GenerateDatabase(600);
  auto targets = generator.GenerateQueries(5);
  for (int r : {1, 2}) {
    SignatureTable table = BuildTable(db, 8, r);
    BranchAndBoundEngine engine(&db, &table);
    for (const char* name : {"hamming", "match_ratio", "cosine", "jaccard"}) {
      auto family = MakeSimilarityFamily(name);
      for (const Transaction& target : targets) {
        engine.CheckBoundDominance(target, *family);
      }
    }
  }
}

TEST(CheckMacrosTest, ComparisonChecksPassOnSatisfiedConditions) {
  MBI_CHECK_EQ(2 + 2, 4);
  MBI_CHECK_NE(1, 2);
  MBI_CHECK_LT(1, 2);
  MBI_CHECK_LE(2, 2);
  MBI_CHECK_GT(3, 2);
  MBI_CHECK_GE(3, 3);
  MBI_DCHECK_EQ(5, 5);
  MBI_DCHECK(true);
}

using InvariantsDeathTest = ::testing::Test;

TEST(InvariantsDeathTest, CheckEqPrintsBothOperands) {
  EXPECT_DEATH(MBI_CHECK_EQ(2 + 2, 5), "2 \\+ 2 == 5 \\(4 vs. 5\\)");
}

TEST(InvariantsDeathTest, UnbalancedUnpinAborts) {
  PageStore store(64);
  store.Append(0, 24);
  BufferPool pool(&store, 2);
  EXPECT_DEATH(pool.Unpin(0), "no outstanding pin");
}

TEST(InvariantsDeathTest, PinOfNonResidentPageAborts) {
  PageStore store(64);
  store.Append(0, 24);
  BufferPool pool(&store, 2);
  EXPECT_DEATH(pool.Pin(0), "not resident");
}

}  // namespace
}  // namespace mbi
