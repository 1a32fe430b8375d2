#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "baseline/sequential_scan.h"
#include "core/artifact_verify.h"
#include "core/branch_and_bound.h"
#include "core/index_builder.h"
#include "core/partition_io.h"
#include "core/table_io.h"
#include "engine/engine.h"
#include "gen/quest_generator.h"
#include "storage/env.h"
#include "storage/fault_injector.h"
#include "storage/page_store.h"
#include "txn/database_io.h"

namespace mbi {
namespace {

/// CI runs this binary under several MBI_FAULT_SEED values; the seed varies
/// the fixtures and the injector/backoff jitter streams, so each CI shard
/// walks the same crash matrix over different data.
uint64_t FaultSeed() {
  const char* env = std::getenv("MBI_FAULT_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 1;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<uint8_t> ReadAllBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return bytes;
  std::fseek(file, 0, SEEK_END);
  bytes.resize(static_cast<size_t>(std::ftell(file)));
  std::fseek(file, 0, SEEK_SET);
  if (!bytes.empty() &&
      std::fread(bytes.data(), 1, bytes.size(), file) != bytes.size()) {
    bytes.clear();
  }
  std::fclose(file);
  return bytes;
}

void WriteAllBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
  }
  ASSERT_EQ(std::fclose(file), 0);
}

void FlipByteInFile(const std::string& path, size_t offset, uint8_t mask) {
  std::vector<uint8_t> bytes = ReadAllBytes(path);
  ASSERT_LT(offset, bytes.size());
  bytes[offset] ^= mask;
  WriteAllBytes(path, bytes);
}

TransactionDatabase MakeDatabase(uint64_t seed, uint64_t size) {
  QuestGeneratorConfig config;
  config.universe_size = 200;
  config.num_large_itemsets = 40;
  config.avg_transaction_size = 8.0;
  config.seed = seed;
  QuestGenerator generator(config);
  return generator.GenerateDatabase(size);
}

SignatureTable MakeTable(const TransactionDatabase& db,
                         uint32_t cardinality = 9) {
  IndexBuildConfig build;
  build.clustering.target_cardinality = cardinality;
  return BuildIndex(db, build);
}

// --- Crash-point matrix -------------------------------------------------
//
// For every write index of a save sequence, injects (a) a clean write
// failure and (b) a torn write keeping 3 bytes, and asserts the atomic-save
// contract: the save reports the fault, the previously committed artifact at
// `path` is byte-identical, and no temp residue is left behind. Then proves
// the fault-free save really produces the new artifact.
template <typename SaveFn, typename CheckOldFn, typename CheckNewFn>
void RunCrashMatrix(const std::string& path,
                    const std::vector<uint8_t>& old_bytes, SaveFn save_new,
                    CheckOldFn check_old, CheckNewFn check_new) {
  Env env(FaultSeed());
  FaultInjector injector(FaultSeed());
  env.set_fault_injector(&injector);
  const std::string temp = path + ".tmp";

  // Fault-free run: learn the number of write points and prove the new
  // artifact lands.
  WriteAllBytes(path, old_bytes);
  injector.Reset();
  Status clean = save_new(&env);
  ASSERT_TRUE(clean.ok()) << clean.ToString();
  const uint64_t write_points = injector.writes_seen();
  ASSERT_GE(write_points, 3u);  // header + at least one section
  EXPECT_FALSE(env.FileExists(temp));
  check_new(&env);

  for (uint64_t i = 0; i < write_points; ++i) {
    for (int torn = 0; torn < 2; ++torn) {
      WriteAllBytes(path, old_bytes);
      injector.Reset();
      if (torn != 0) {
        injector.TornWrite(i, 3);
      } else {
        injector.FailWrite(i);
      }
      Status failed = save_new(&env);
      ASSERT_FALSE(failed.ok())
          << "write " << i << (torn ? " torn" : " fail")
          << " was swallowed";
      EXPECT_EQ(failed.code(), StatusCode::kIoError);
      EXPECT_EQ(ReadAllBytes(path), old_bytes)
          << "write " << i << (torn ? " torn" : " fail")
          << " damaged the committed artifact";
      EXPECT_FALSE(env.FileExists(temp))
          << "write " << i << " left temp residue";
      check_old(&env);
    }
  }

  // The commit point itself: a failed rename must also keep the old bytes.
  WriteAllBytes(path, old_bytes);
  injector.Reset();
  injector.FailRename();
  Status failed = save_new(&env);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(ReadAllBytes(path), old_bytes);
  EXPECT_FALSE(env.FileExists(temp));
  check_old(&env);

  injector.Reset();
  std::remove(path.c_str());
}

void ExpectDatabasesEqual(const TransactionDatabase& a,
                          const TransactionDatabase& b) {
  ASSERT_EQ(a.universe_size(), b.universe_size());
  ASSERT_EQ(a.size(), b.size());
  for (TransactionId id = 0; id < a.size(); ++id) {
    ASSERT_EQ(a.Get(id), b.Get(id));
  }
}

TEST(DurabilityTest, DatabaseSaveIsAtomicAtEveryWritePoint) {
  const uint64_t seed = FaultSeed();
  TransactionDatabase old_db = MakeDatabase(seed + 10, 120);
  TransactionDatabase new_db = MakeDatabase(seed + 11, 150);
  const std::string path = TempPath("atomic.mbid");

  ASSERT_TRUE(SaveDatabase(old_db, path).ok());
  const std::vector<uint8_t> old_bytes = ReadAllBytes(path);
  ASSERT_FALSE(old_bytes.empty());

  RunCrashMatrix(
      path, old_bytes,
      [&](Env* env) { return SaveDatabase(new_db, path, env); },
      [&](Env* env) {
        auto loaded = LoadDatabase(path, env);
        ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
        ExpectDatabasesEqual(*loaded, old_db);
      },
      [&](Env* env) {
        auto loaded = LoadDatabase(path, env);
        ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
        ExpectDatabasesEqual(*loaded, new_db);
      });
}

TEST(DurabilityTest, PartitionSaveIsAtomicAtEveryWritePoint) {
  SignaturePartition old_partition(4, {0, 1, 2, 3, 0, 1, 2, 3, 0, 1});
  SignaturePartition new_partition(5, {4, 3, 2, 1, 0, 4, 3, 2, 1, 0});
  const std::string path = TempPath("atomic.mbsp");

  ASSERT_TRUE(SavePartition(old_partition, path).ok());
  const std::vector<uint8_t> old_bytes = ReadAllBytes(path);

  auto check = [&](const SignaturePartition& expected) {
    return [&path, &expected](Env* env) {
      auto loaded = LoadPartition(path, env);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      ASSERT_EQ(loaded->cardinality(), expected.cardinality());
      ASSERT_EQ(loaded->universe_size(), expected.universe_size());
      for (ItemId item = 0; item < expected.universe_size(); ++item) {
        ASSERT_EQ(loaded->SignatureOf(item), expected.SignatureOf(item));
      }
    };
  };
  RunCrashMatrix(
      path, old_bytes,
      [&](Env* env) { return SavePartition(new_partition, path, env); },
      check(old_partition), check(new_partition));
}

TEST(DurabilityTest, TableSaveIsAtomicAtEveryWritePoint) {
  const uint64_t seed = FaultSeed();
  TransactionDatabase db = MakeDatabase(seed + 20, 150);
  SignatureTable old_table = MakeTable(db, 8);
  SignatureTable new_table = MakeTable(db, 10);
  const std::string path = TempPath("atomic.mbst");

  ASSERT_TRUE(SaveSignatureTable(old_table, path).ok());
  const std::vector<uint8_t> old_bytes = ReadAllBytes(path);

  auto check = [&](const SignatureTable& expected) {
    return [&path, &db, &expected](Env* env) {
      auto loaded = LoadSignatureTable(path, db, env);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      ASSERT_EQ(loaded->cardinality(), expected.cardinality());
      ASSERT_EQ(loaded->entries().size(), expected.entries().size());
      ASSERT_EQ(loaded->num_indexed_transactions(),
                expected.num_indexed_transactions());
    };
  };
  RunCrashMatrix(
      path, old_bytes,
      [&](Env* env) { return SaveSignatureTable(new_table, path, env); },
      check(old_table), check(new_table));
}

PageStore MakeSpillStore(uint32_t page_size, TransactionId transactions,
                         uint32_t bytes_each) {
  PageStore store(page_size);
  for (TransactionId id = 0; id < transactions; ++id) {
    store.Append(id, bytes_each);
  }
  return store;
}

void ExpectStoresEqual(const PageStore& a, const PageStore& b) {
  ASSERT_EQ(a.page_size_bytes(), b.page_size_bytes());
  ASSERT_EQ(a.size(), b.size());
  for (size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a.pages()[p].used_bytes, b.pages()[p].used_bytes);
    ASSERT_TRUE(std::ranges::equal(a.IdsOnPage(static_cast<PageId>(p)),
                                   b.IdsOnPage(static_cast<PageId>(p))));
  }
}

TEST(DurabilityTest, PageSpillRoundTripsAndIsAtomic) {
  PageStore old_store = MakeSpillStore(128, 40, 24);
  PageStore new_store = MakeSpillStore(128, 64, 30);
  const std::string path = TempPath("atomic.mbpg");

  ASSERT_TRUE(old_store.SpillToFile(path).ok());
  const std::vector<uint8_t> old_bytes = ReadAllBytes(path);

  auto check = [&](const PageStore& expected) {
    return [&path, &expected](Env* env) {
      auto loaded = PageStore::LoadSpillFile(path, env);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      ExpectStoresEqual(*loaded, expected);
    };
  };
  RunCrashMatrix(
      path, old_bytes,
      [&](Env* env) { return new_store.SpillToFile(path, env); },
      check(old_store), check(new_store));
}

// --- Fault code propagation and retries ---------------------------------

TEST(DurabilityTest, NoSpaceFaultSurfacesAsNoSpace) {
  TransactionDatabase db = MakeDatabase(FaultSeed() + 30, 50);
  Env env(FaultSeed());
  FaultInjector injector(FaultSeed());
  env.set_fault_injector(&injector);
  injector.FailWrite(2, StatusCode::kNoSpace);

  const std::string path = TempPath("nospace.mbid");
  Status saved = SaveDatabase(db, path, &env);
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kNoSpace);
  EXPECT_FALSE(env.FileExists(path));
  EXPECT_FALSE(env.FileExists(path + ".tmp"));
}

TEST(DurabilityTest, TransientWriteFaultsAreRetriedToSuccess) {
  TransactionDatabase db = MakeDatabase(FaultSeed() + 31, 50);
  Env env(FaultSeed());
  FaultInjector injector(FaultSeed());
  env.set_fault_injector(&injector);
  injector.TransientWrites(2, 3);  // 3 EAGAINs on the third write, then OK

  int sleeps = 0;
  std::vector<double> delays;
  RetryOptions options;
  options.sleep_ms = [&](double ms) {
    ++sleeps;
    delays.push_back(ms);
  };
  env.set_retry_options(options);

  const std::string path = TempPath("transient.mbid");
  Status saved = SaveDatabase(db, path, &env);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  EXPECT_EQ(sleeps, 3);
  // Backoff grows (up to jitter) across the schedule.
  ASSERT_EQ(delays.size(), 3u);
  EXPECT_GT(delays[2], delays[0] * 0.9);

  auto loaded = LoadDatabase(path, &env);
  ASSERT_TRUE(loaded.ok());
  ExpectDatabasesEqual(*loaded, db);
  std::remove(path.c_str());
}

TEST(DurabilityTest, TransientExhaustionFailsWithoutDamage) {
  TransactionDatabase old_db = MakeDatabase(FaultSeed() + 32, 40);
  TransactionDatabase new_db = MakeDatabase(FaultSeed() + 33, 60);
  const std::string path = TempPath("exhausted.mbid");
  ASSERT_TRUE(SaveDatabase(old_db, path).ok());
  const std::vector<uint8_t> old_bytes = ReadAllBytes(path);

  Env env(FaultSeed());
  FaultInjector injector(FaultSeed());
  env.set_fault_injector(&injector);
  injector.TransientWrites(1, 1000);  // more failures than any retry budget
  RetryOptions options;
  options.max_attempts = 4;
  options.sleep_ms = [](double) {};
  env.set_retry_options(options);

  Status saved = SaveDatabase(new_db, path, &env);
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kUnavailable);
  EXPECT_EQ(ReadAllBytes(path), old_bytes);
  EXPECT_FALSE(env.FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(DurabilityTest, SilentBitRotIsCaughtByChecksumOnLoad) {
  TransactionDatabase db = MakeDatabase(FaultSeed() + 34, 80);
  const std::string path = TempPath("bitrot.mbid");

  // First learn the healthy size, then re-save with a flip in the middle.
  ASSERT_TRUE(SaveDatabase(db, path).ok());
  const size_t file_size = ReadAllBytes(path).size();

  Env env(FaultSeed());
  FaultInjector injector(FaultSeed());
  env.set_fault_injector(&injector);
  injector.FlipBit(file_size / 2, 5);
  Status saved = SaveDatabase(db, path, &env);
  ASSERT_TRUE(saved.ok()) << "bit rot must be silent at write time";

  auto loaded = LoadDatabase(path, &env);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

// --- Graceful degradation -----------------------------------------------

TEST(DurabilityTest, CorruptIndexIsQuarantinedAndServedSequentially) {
  const uint64_t seed = FaultSeed();
  QuestGeneratorConfig config;
  config.universe_size = 200;
  config.num_large_itemsets = 40;
  config.seed = seed + 40;
  QuestGenerator generator(config);
  TransactionDatabase db = generator.GenerateDatabase(400);
  SignatureTable table = MakeTable(db);
  const std::string path = TempPath("quarantine.mbst");
  ASSERT_TRUE(SaveSignatureTable(table, path).ok());
  FlipByteInFile(path, ReadAllBytes(path).size() / 2, 0x08);

  SignatureTableEngine engine(&db);
  Status opened = engine.OpenIndex(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.code(), StatusCode::kCorruption);
  EXPECT_TRUE(engine.quarantined());
  EXPECT_FALSE(engine.healthy());
  EXPECT_EQ(engine.table(), nullptr);
  EXPECT_EQ(engine.quarantine_reason().code(), StatusCode::kCorruption);

  // Every query still gets an exact answer, via the sequential fallback.
  SequentialScanner scanner(&db);
  MatchRatioFamily family;
  uint64_t queries = 0;
  for (int q = 0; q < 5; ++q) {
    Transaction target = generator.NextTransaction();

    NearestNeighborResult result = engine.FindKNearest(target, family, 5);
    ++queries;
    auto oracle = scanner.FindKNearest(target, family, 5);
    EXPECT_TRUE(result.stats.is_exact);
    EXPECT_EQ(result.stats.sequential_fallbacks, 1u);
    ASSERT_EQ(result.neighbors.size(), oracle.size());
    for (size_t i = 0; i < oracle.size(); ++i) {
      EXPECT_EQ(result.neighbors[i].id, oracle[i].id);
      EXPECT_EQ(result.neighbors[i].similarity, oracle[i].similarity);
    }

    RangeQueryResult range = engine.FindInRange(target, family, 0.3);
    ++queries;
    auto range_oracle = scanner.FindInRange(target, family, 0.3);
    EXPECT_TRUE(range.stats.is_exact);
    EXPECT_EQ(range.stats.sequential_fallbacks, 1u);
    ASSERT_EQ(range.matches.size(), range_oracle.size());
    for (size_t i = 0; i < range_oracle.size(); ++i) {
      EXPECT_EQ(range.matches[i].id, range_oracle[i].id);
    }
  }
  EXPECT_EQ(engine.fallback_queries(), queries);

  // Rebuilding (AdoptTable) leaves quarantine: back to branch-and-bound.
  engine.AdoptTable(MakeTable(db));
  EXPECT_TRUE(engine.healthy());
  EXPECT_FALSE(engine.quarantined());
  Transaction target = generator.NextTransaction();
  NearestNeighborResult healthy = engine.FindKNearest(target, family, 5);
  EXPECT_EQ(healthy.stats.sequential_fallbacks, 0u);
  EXPECT_EQ(engine.fallback_queries(), queries);  // unchanged
  std::remove(path.c_str());
}

TEST(DurabilityTest, HealthyIndexMatchesBranchAndBound) {
  const uint64_t seed = FaultSeed();
  QuestGeneratorConfig config;
  config.universe_size = 200;
  config.num_large_itemsets = 40;
  config.seed = seed + 41;
  QuestGenerator generator(config);
  TransactionDatabase db = generator.GenerateDatabase(400);
  SignatureTable table = MakeTable(db);
  const std::string path = TempPath("healthy.mbst");
  ASSERT_TRUE(SaveSignatureTable(table, path).ok());

  SignatureTableEngine engine(&db);
  Status opened = engine.OpenIndex(path);
  ASSERT_TRUE(opened.ok()) << opened.ToString();
  EXPECT_TRUE(engine.healthy());
  EXPECT_FALSE(engine.quarantined());
  ASSERT_NE(engine.table(), nullptr);

  BranchAndBoundEngine reference(&db, &table);
  MatchRatioFamily family;
  for (int q = 0; q < 5; ++q) {
    Transaction target = generator.NextTransaction();
    NearestNeighborResult via_engine = engine.FindKNearest(target, family, 5);
    NearestNeighborResult direct = reference.FindKNearest(target, family, 5);
    EXPECT_EQ(via_engine.stats.sequential_fallbacks, 0u);
    ASSERT_EQ(via_engine.neighbors.size(), direct.neighbors.size());
    for (size_t i = 0; i < direct.neighbors.size(); ++i) {
      EXPECT_EQ(via_engine.neighbors[i].id, direct.neighbors[i].id);
    }
  }
  EXPECT_EQ(engine.fallback_queries(), 0u);
  std::remove(path.c_str());
}

TEST(DurabilityTest, MissingOrMismatchedIndexDoesNotQuarantine) {
  TransactionDatabase db = MakeDatabase(FaultSeed() + 42, 100);
  SignatureTable table = MakeTable(db);
  const std::string path = TempPath("mismatch.mbst");
  ASSERT_TRUE(SaveSignatureTable(table, path).ok());

  // Missing artifact: there is nothing to degrade around.
  SignatureTableEngine engine(&db);
  Status missing = engine.OpenIndex(TempPath("no_such_index.mbst"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  EXPECT_FALSE(engine.quarantined());

  // Healthy artifact opened against the wrong database: caller error, not
  // corruption.
  TransactionDatabase other = MakeDatabase(FaultSeed() + 43, 60);
  SignatureTableEngine wrong_db(&other);
  Status mismatched = wrong_db.OpenIndex(path);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(wrong_db.quarantined());
  std::remove(path.c_str());
}

// --- Legacy v1 artifacts ------------------------------------------------
//
// Byte-for-byte replicas of the seed's unframed writers. The new loaders
// must keep reading these files (existing deployments have them on disk).

bool WriteU32(FILE* file, uint32_t value) {
  return std::fwrite(&value, sizeof(value), 1, file) == 1;
}
bool WriteU64(FILE* file, uint64_t value) {
  return std::fwrite(&value, sizeof(value), 1, file) == 1;
}
bool WriteU32Vector(FILE* file, std::span<const uint32_t> values) {
  if (!WriteU64(file, values.size())) return false;
  return values.empty() ||
         std::fwrite(values.data(), sizeof(uint32_t), values.size(), file) ==
             values.size();
}

void WriteLegacyDatabase(const std::string& path,
                         const TransactionDatabase& db) {
  FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  ASSERT_TRUE(WriteU32(file, 0x4D424944u) && WriteU32(file, 1u) &&
              WriteU32(file, db.universe_size()) && WriteU64(file, db.size()));
  for (const Transaction& transaction : db.transactions()) {
    ASSERT_TRUE(WriteU32(file, static_cast<uint32_t>(transaction.size())));
    const auto& items = transaction.items();
    if (!items.empty()) {
      ASSERT_EQ(std::fwrite(items.data(), sizeof(ItemId), items.size(), file),
                items.size());
    }
  }
  ASSERT_EQ(std::fclose(file), 0);
}

void WriteLegacyPartition(const std::string& path,
                          const SignaturePartition& partition) {
  FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  const uint32_t header[4] = {0x4D425350u, 1u, partition.cardinality(),
                              partition.universe_size()};
  ASSERT_EQ(std::fwrite(header, sizeof(uint32_t), 4, file), 4u);
  std::vector<uint32_t> signature_of_item(partition.universe_size());
  for (ItemId item = 0; item < partition.universe_size(); ++item) {
    signature_of_item[item] = partition.SignatureOf(item);
  }
  ASSERT_EQ(std::fwrite(signature_of_item.data(), sizeof(uint32_t),
                        signature_of_item.size(), file),
            signature_of_item.size());
  ASSERT_EQ(std::fclose(file), 0);
}

/// `bucket_sharing_pages`, when set, writes that bucket with bucket 0's page
/// list instead of its own: a corrupt file whose pages back two buckets.
void WriteLegacyTable(const std::string& path, const SignatureTable& table,
                      uint32_t bucket_sharing_pages = UINT32_MAX) {
  FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  const SignaturePartition& partition = table.partition();
  ASSERT_TRUE(WriteU32(file, 0x4D425354u) && WriteU32(file, 1u) &&
              WriteU32(file, partition.cardinality()) &&
              WriteU32(file, partition.universe_size()) &&
              WriteU32(file,
                       static_cast<uint32_t>(table.activation_threshold())) &&
              WriteU32(file, table.page_size_bytes()));
  std::vector<uint32_t> signature_of_item(partition.universe_size());
  for (ItemId item = 0; item < partition.universe_size(); ++item) {
    signature_of_item[item] = partition.SignatureOf(item);
  }
  ASSERT_TRUE(WriteU32Vector(file, signature_of_item));
  const uint64_t num_transactions = table.num_indexed_transactions();
  ASSERT_TRUE(WriteU64(file, num_transactions));
  for (TransactionId id = 0; id < num_transactions; ++id) {
    ASSERT_TRUE(WriteU32(file, table.CoordinateOfTransaction(id)));
  }
  ASSERT_TRUE(WriteU64(file, table.entries().size()));
  for (const SignatureTable::Entry& entry : table.entries()) {
    ASSERT_TRUE(WriteU32(file, entry.coordinate) &&
                WriteU32(file, entry.transaction_count) &&
                WriteU32(file, entry.bucket));
  }
  const TransactionStore& store = table.store();
  ASSERT_TRUE(WriteU64(file, store.num_buckets()));
  for (uint32_t bucket = 0; bucket < store.num_buckets(); ++bucket) {
    ASSERT_TRUE(WriteU32Vector(
        file, store.PagesOfBucket(bucket == bucket_sharing_pages ? 0 : bucket)));
  }
  const PageStore& pages = store.page_store();
  ASSERT_TRUE(WriteU64(file, pages.size()));
  for (PageId page = 0; page < pages.size(); ++page) {
    ASSERT_TRUE(WriteU32(file, pages.pages()[page].used_bytes) &&
                WriteU32Vector(file, pages.IdsOnPage(page)));
  }
  std::vector<uint32_t> page_of_transaction(num_transactions);
  for (TransactionId id = 0; id < num_transactions; ++id) {
    page_of_transaction[id] = store.PageOfTransaction(id);
  }
  ASSERT_TRUE(WriteU32Vector(file, page_of_transaction));
  ASSERT_EQ(std::fclose(file), 0);
}

TEST(LegacyFormatTest, ReadsSeedEraDatabase) {
  TransactionDatabase db = MakeDatabase(FaultSeed() + 50, 90);
  const std::string path = TempPath("legacy.mbid");
  WriteLegacyDatabase(path, db);
  auto loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectDatabasesEqual(*loaded, db);
  std::remove(path.c_str());
}

TEST(LegacyFormatTest, ReadsSeedEraPartition) {
  SignaturePartition partition(4, {0, 1, 2, 3, 3, 2, 1, 0, 2});
  const std::string path = TempPath("legacy.mbsp");
  WriteLegacyPartition(path, partition);
  auto loaded = LoadPartition(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->cardinality(), partition.cardinality());
  for (ItemId item = 0; item < partition.universe_size(); ++item) {
    EXPECT_EQ(loaded->SignatureOf(item), partition.SignatureOf(item));
  }
  std::remove(path.c_str());
}

TEST(LegacyFormatTest, ReadsSeedEraTableAndAnswersIdentically) {
  const uint64_t seed = FaultSeed();
  QuestGeneratorConfig config;
  config.universe_size = 200;
  config.num_large_itemsets = 40;
  config.seed = seed + 51;
  QuestGenerator generator(config);
  TransactionDatabase db = generator.GenerateDatabase(300);
  SignatureTable table = MakeTable(db);
  const std::string path = TempPath("legacy.mbst");
  WriteLegacyTable(path, table);

  auto loaded = LoadSignatureTable(path, db);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  BranchAndBoundEngine original(&db, &table);
  BranchAndBoundEngine reopened(&db, &*loaded);
  MatchRatioFamily family;
  for (int q = 0; q < 5; ++q) {
    Transaction target = generator.NextTransaction();
    auto a = original.FindKNearest(target, family, 5);
    auto b = reopened.FindKNearest(target, family, 5);
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id);
    }
  }
  std::remove(path.c_str());
}

TEST(LegacyFormatTest, RejectsAPageBackingTwoBuckets) {
  // A bucket is one slice of the page store's id array, so a page may back
  // only one bucket; a file that shares one is corrupt, not an abort.
  TransactionDatabase db = MakeDatabase(FaultSeed() + 52, 300);
  SignatureTable table = MakeTable(db);
  ASSERT_GE(table.store().num_buckets(), 2u);
  const std::string path = TempPath("legacy_shared_page.mbst");
  WriteLegacyTable(path, table, /*bucket_sharing_pages=*/1);
  auto loaded = LoadSignatureTable(path, db);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().ToString().find("backs two buckets"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

// --- mbi verify's engine ------------------------------------------------

TEST(ArtifactVerifyTest, ReportsHealthyV2Artifacts) {
  TransactionDatabase db = MakeDatabase(FaultSeed() + 60, 80);
  SignatureTable table = MakeTable(db);
  const std::string db_path = TempPath("verify.mbid");
  const std::string table_path = TempPath("verify.mbst");
  ASSERT_TRUE(SaveDatabase(db, db_path).ok());
  ASSERT_TRUE(SaveSignatureTable(table, table_path).ok());

  auto db_report = VerifyArtifact(db_path);
  ASSERT_TRUE(db_report.ok()) << db_report.status().ToString();
  EXPECT_TRUE(db_report->Overall().ok()) << db_report->Overall().ToString();
  EXPECT_EQ(db_report->type_name, "database");
  ASSERT_EQ(db_report->sections.size(), 2u);
  EXPECT_EQ(db_report->sections[0].name, "meta");
  EXPECT_EQ(db_report->sections[1].name, "transactions");

  auto table_report = VerifyArtifact(table_path);
  ASSERT_TRUE(table_report.ok());
  EXPECT_TRUE(table_report->Overall().ok());
  EXPECT_EQ(table_report->type_name, "signature table");
  EXPECT_EQ(table_report->sections.size(), 7u);

  std::remove(db_path.c_str());
  std::remove(table_path.c_str());
}

TEST(ArtifactVerifyTest, NamesTheCorruptSection) {
  TransactionDatabase db = MakeDatabase(FaultSeed() + 61, 80);
  const std::string path = TempPath("verify_bad.mbid");
  ASSERT_TRUE(SaveDatabase(db, path).ok());
  FlipByteInFile(path, ReadAllBytes(path).size() - 5, 0x01);

  auto report = VerifyArtifact(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->Overall().ok());
  EXPECT_NE(report->Overall().message().find("transactions"),
            std::string::npos)
      << report->Overall().ToString();
  ASSERT_EQ(report->sections.size(), 2u);
  EXPECT_TRUE(report->sections[0].crc_ok);
  EXPECT_FALSE(report->sections[1].crc_ok);

  // Checksums-only mode finds the same damage without the deep parse.
  auto shallow = VerifyArtifact(path, /*checksums_only=*/true);
  ASSERT_TRUE(shallow.ok());
  EXPECT_FALSE(shallow->Overall().ok());
  std::remove(path.c_str());
}

TEST(ArtifactVerifyTest, LegacyArtifactsGetStructuralParseOnly) {
  TransactionDatabase db = MakeDatabase(FaultSeed() + 62, 40);
  const std::string path = TempPath("verify_legacy.mbid");
  WriteLegacyDatabase(path, db);
  auto report = VerifyArtifact(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->version, 1u);
  EXPECT_TRUE(report->sections.empty());
  EXPECT_TRUE(report->Overall().ok());
  std::remove(path.c_str());
}

TEST(ArtifactVerifyTest, RejectsUnknownFiles) {
  const std::string path = TempPath("verify_junk.bin");
  WriteAllBytes(path, {'h', 'e', 'l', 'l', 'o', ' ', 'w', 'o', 'r', 'l', 'd'});
  auto report = VerifyArtifact(path);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCorruption);

  auto missing = VerifyArtifact(TempPath("verify_missing.bin"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mbi
