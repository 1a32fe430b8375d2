#include "core/table_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/branch_and_bound.h"
#include "core/index_builder.h"
#include "gen/quest_generator.h"
#include "storage/format.h"

namespace mbi {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

struct Fixture {
  TransactionDatabase db;
  SignatureTable table;
  QuestGenerator generator;
};

Fixture MakeFixture(uint64_t seed = 401, uint64_t size = 1500) {
  QuestGeneratorConfig config;
  config.universe_size = 300;
  config.num_large_itemsets = 70;
  config.avg_itemset_size = 5.0;
  config.avg_transaction_size = 9.0;
  config.seed = seed;
  QuestGenerator generator(config);
  TransactionDatabase db = generator.GenerateDatabase(size);
  IndexBuildConfig build;
  build.clustering.target_cardinality = 11;
  build.table.activation_threshold = 2;
  SignatureTable table = BuildIndex(db, build);
  return {std::move(db), std::move(table), std::move(generator)};
}

TEST(TableIoTest, RoundTripPreservesStructure) {
  Fixture fixture = MakeFixture();
  std::string path = TempPath("table_roundtrip.mbst");
  ASSERT_TRUE(SaveSignatureTable(fixture.table, path).ok());
  auto loaded = LoadSignatureTable(path, fixture.db);
  ASSERT_TRUE(loaded.ok());

  EXPECT_EQ(loaded->cardinality(), fixture.table.cardinality());
  EXPECT_EQ(loaded->activation_threshold(),
            fixture.table.activation_threshold());
  EXPECT_EQ(loaded->page_size_bytes(), fixture.table.page_size_bytes());
  ASSERT_EQ(loaded->entries().size(), fixture.table.entries().size());
  for (size_t e = 0; e < loaded->entries().size(); ++e) {
    EXPECT_EQ(loaded->entries()[e].coordinate,
              fixture.table.entries()[e].coordinate);
    EXPECT_EQ(loaded->entries()[e].transaction_count,
              fixture.table.entries()[e].transaction_count);
    IoStats io_a, io_b;
    EXPECT_EQ(loaded->FetchEntryTransactions(e, &io_a),
              fixture.table.FetchEntryTransactions(e, &io_b));
    EXPECT_EQ(io_a.pages_read, io_b.pages_read);
  }
  for (TransactionId id = 0; id < fixture.db.size(); ++id) {
    EXPECT_EQ(loaded->CoordinateOfTransaction(id),
              fixture.table.CoordinateOfTransaction(id));
  }
  for (ItemId item = 0; item < fixture.db.universe_size(); ++item) {
    EXPECT_EQ(loaded->partition().SignatureOf(item),
              fixture.table.partition().SignatureOf(item));
  }
  std::remove(path.c_str());
}

TEST(TableIoTest, LoadedTableAnswersQueriesIdentically) {
  Fixture fixture = MakeFixture(409);
  std::string path = TempPath("table_queries.mbst");
  ASSERT_TRUE(SaveSignatureTable(fixture.table, path).ok());
  auto loaded = LoadSignatureTable(path, fixture.db);
  ASSERT_TRUE(loaded.ok());

  BranchAndBoundEngine original(&fixture.db, &fixture.table);
  BranchAndBoundEngine reopened(&fixture.db, &*loaded);
  MatchRatioFamily family;
  for (int q = 0; q < 10; ++q) {
    Transaction target = fixture.generator.NextTransaction();
    auto a = original.FindKNearest(target, family, 5);
    auto b = reopened.FindKNearest(target, family, 5);
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id);
    }
    EXPECT_EQ(a.stats.transactions_evaluated, b.stats.transactions_evaluated);
    EXPECT_EQ(a.stats.io.pages_read, b.stats.io.pages_read);
  }
  std::remove(path.c_str());
}

/// The count summaries of `table` as plain vectors, for comparison.
struct SummaryBytes {
  std::vector<uint8_t> lo, hi, size_min;
  bool operator==(const SummaryBytes&) const = default;
};
SummaryBytes SummariesOf(const SignatureTable& table) {
  const EntrySummaries s = table.summaries();
  const size_t rows = table.cardinality() * s.stride;
  return {{s.lo, s.lo + rows}, {s.hi, s.hi + rows},
          {s.size_min, s.size_min + s.stride}};
}

std::vector<char> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(TableIoTest, SaveLoadSaveIsByteIdentical) {
  Fixture fixture = MakeFixture(433);
  const std::string first = TempPath("table_first.mbst");
  const std::string second = TempPath("table_second.mbst");
  ASSERT_TRUE(SaveSignatureTable(fixture.table, first).ok());
  auto loaded = LoadSignatureTable(first, fixture.db);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(SaveSignatureTable(*loaded, second).ok());
  const std::vector<char> bytes = FileBytes(first);
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, FileBytes(second));
  std::remove(first.c_str());
  std::remove(second.c_str());
}

/// `table` with its pages numbered backwards: the same buckets, rows, page
/// contents and page counts, but every bucket of two or more pages now
/// lists them in descending page order, so its ids are no longer one run of
/// the page store's id array as parsed and the store must re-lay them.
SignatureTable WithPagesReversed(const TransactionDatabase& db,
                                 const SignatureTable& table) {
  const TransactionStore& store = table.store();
  const PageStore& pages = store.page_store();
  const PageId last = static_cast<PageId>(pages.size()) - 1;
  std::vector<Page> reversed;
  std::vector<TransactionId> ids;
  for (PageId page = last + 1; page-- > 0;) {
    const std::span<const TransactionId> on_page = pages.IdsOnPage(page);
    Page view;
    view.count = static_cast<uint32_t>(on_page.size());
    view.used_bytes = pages.pages()[page].used_bytes;
    reversed.push_back(view);
    ids.insert(ids.end(), on_page.begin(), on_page.end());
  }
  std::vector<std::vector<PageId>> buckets(store.num_buckets());
  for (uint32_t b = 0; b < store.num_buckets(); ++b) {
    for (PageId page : store.PagesOfBucket(b)) {
      buckets[b].push_back(last - page);
    }
  }
  std::vector<PageId> page_of_transaction;
  std::vector<Supercoordinate> coordinates;
  for (TransactionId id = 0; id < table.num_indexed_transactions(); ++id) {
    page_of_transaction.push_back(last - store.PageOfTransaction(id));
    coordinates.push_back(table.CoordinateOfTransaction(id));
  }
  SignatureTableConfig config;
  config.activation_threshold = table.activation_threshold();
  config.page_size_bytes = table.page_size_bytes();
  return SignatureTable::Assemble(
      db, table.partition(), config, table.entries(), std::move(coordinates),
      TransactionStore::FromParts(
          PageStore::FromPages(config.page_size_bytes, std::move(reversed),
                               std::move(ids)),
          std::move(buckets), std::move(page_of_transaction)));
}

TEST(TableIoTest, NonConsecutiveBucketPagesReadTheSameIdsAndPages) {
  QuestGeneratorConfig generator_config;
  generator_config.universe_size = 300;
  generator_config.num_large_itemsets = 70;
  generator_config.avg_itemset_size = 5.0;
  generator_config.avg_transaction_size = 9.0;
  generator_config.seed = 439;
  QuestGenerator generator(generator_config);
  TransactionDatabase db = generator.GenerateDatabase(2500);
  IndexBuildConfig build;
  build.clustering.target_cardinality = 8;
  build.table.page_size_bytes = 256;  // Multi-page buckets.
  const SignatureTable table = BuildIndex(db, build);
  const SignatureTable reversed = WithPagesReversed(db, table);
  reversed.CheckInvariants(&db);

  size_t multi_page_entries = 0;
  ASSERT_EQ(reversed.entries().size(), table.entries().size());
  for (size_t e = 0; e < table.entries().size(); ++e) {
    IoStats io_a;
    IoStats io_b;
    EXPECT_EQ(reversed.FetchEntryTransactions(e, &io_a),
              table.FetchEntryTransactions(e, &io_b));
    EXPECT_EQ(io_a.pages_read, io_b.pages_read);
    EXPECT_EQ(io_a.bytes_read, io_b.bytes_read);
    EXPECT_EQ(io_a.transactions_fetched, io_b.transactions_fetched);
    EXPECT_EQ(io_a.pages_read, reversed.PagesOfEntry(e).size());
    if (table.PagesOfEntry(e).size() > 1) ++multi_page_entries;
  }
  EXPECT_GT(multi_page_entries, 0u);
  EXPECT_EQ(reversed.ComputeStats().disk_pages,
            table.ComputeStats().disk_pages);

  BranchAndBoundEngine original(&db, &table);
  BranchAndBoundEngine relaid(&db, &reversed);
  CosineFamily family;
  for (int q = 0; q < 10; ++q) {
    const Transaction target = generator.NextTransaction();
    const NearestNeighborResult a = original.FindKNearest(target, family, 5);
    const NearestNeighborResult b = relaid.FindKNearest(target, family, 5);
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id);
      EXPECT_EQ(a.neighbors[i].similarity, b.neighbors[i].similarity);
    }
    EXPECT_EQ(a.stats.io.pages_read, b.stats.io.pages_read);
  }

  // The reversed page numbering survives a save and load, byte for byte.
  const std::string first = TempPath("table_reversed_first.mbst");
  const std::string second = TempPath("table_reversed_second.mbst");
  ASSERT_TRUE(SaveSignatureTable(reversed, first).ok());
  auto loaded = LoadSignatureTable(first, db);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (size_t e = 0; e < table.entries().size(); ++e) {
    EXPECT_EQ(loaded->FetchEntryTransactions(e, nullptr),
              table.FetchEntryTransactions(e, nullptr));
  }
  ASSERT_TRUE(SaveSignatureTable(*loaded, second).ok());
  EXPECT_EQ(FileBytes(first), FileBytes(second));
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(TableIoTest, LoadedSummariesEqualBuiltAndSaveLoadSaveIsByteIdentical) {
  // Summaries are not stored: a load re-derives them from the rows, and the
  // file written back from the loaded table is the file it was read from.
  Fixture fixture = MakeFixture(457);
  const std::string first = TempPath("table_summary_first.mbst");
  const std::string second = TempPath("table_summary_second.mbst");
  ASSERT_TRUE(SaveSignatureTable(fixture.table, first).ok());
  auto loaded = LoadSignatureTable(first, fixture.db);
  ASSERT_TRUE(loaded.ok());
  loaded->CheckInvariants(&fixture.db);
  const SummaryBytes built = SummariesOf(fixture.table);
  EXPECT_EQ(built.size_min.size(), fixture.table.entries().size());
  EXPECT_EQ(built.lo.size(),
            fixture.table.cardinality() * fixture.table.entries().size());
  EXPECT_EQ(SummariesOf(*loaded), built);
  EXPECT_EQ(loaded->ComputeStats().summary_bytes,
            (2 * fixture.table.cardinality() + 1) *
                fixture.table.entries().size());
  ASSERT_TRUE(SaveSignatureTable(*loaded, second).ok());
  EXPECT_EQ(FileBytes(first), FileBytes(second));
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(TableIoTest, RejectsDatabaseMismatch) {
  Fixture fixture = MakeFixture(421);
  std::string path = TempPath("table_mismatch.mbst");
  ASSERT_TRUE(SaveSignatureTable(fixture.table, path).ok());

  // Wrong transaction count.
  TransactionDatabase smaller(fixture.db.universe_size());
  for (TransactionId id = 0; id + 1 < fixture.db.size(); ++id) {
    smaller.Add(fixture.db.Get(id));
  }
  auto mismatch = LoadSignatureTable(path, smaller);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);

  // Wrong universe.
  TransactionDatabase other_universe(fixture.db.universe_size() + 1);
  auto wrong_universe = LoadSignatureTable(path, other_universe);
  ASSERT_FALSE(wrong_universe.ok());
  EXPECT_EQ(wrong_universe.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

/// A table file's contents, section by section, as SaveSignatureTable writes
/// them: tests tamper with these and write them back through
/// ArtifactWriter, which checksums each section, so the file reaches the
/// cross-section validation instead of failing its CRC.
struct StoredTable {
  uint32_t cardinality = 0;
  uint32_t universe = 0;
  uint32_t activation_threshold = 0;
  uint32_t page_size = 0;
  std::vector<uint32_t> signature_of_item;
  std::vector<Supercoordinate> coordinates;
  std::vector<SignatureTable::Entry> entries;
  std::vector<std::vector<PageId>> buckets;
  std::vector<uint32_t> used_bytes;
  std::vector<std::vector<TransactionId>> page_ids;
  std::vector<PageId> page_of_transaction;
};

StoredTable StoredPartsOf(const SignatureTable& table) {
  StoredTable parts;
  const SignaturePartition& partition = table.partition();
  parts.cardinality = partition.cardinality();
  parts.universe = partition.universe_size();
  parts.activation_threshold =
      static_cast<uint32_t>(table.activation_threshold());
  parts.page_size = table.page_size_bytes();
  for (ItemId item = 0; item < partition.universe_size(); ++item) {
    parts.signature_of_item.push_back(partition.SignatureOf(item));
  }
  const TransactionStore& store = table.store();
  for (TransactionId id = 0; id < table.num_indexed_transactions(); ++id) {
    parts.coordinates.push_back(table.CoordinateOfTransaction(id));
    parts.page_of_transaction.push_back(store.PageOfTransaction(id));
  }
  parts.entries = table.entries();
  for (uint32_t b = 0; b < store.num_buckets(); ++b) {
    const std::span<const PageId> pages = store.PagesOfBucket(b);
    parts.buckets.emplace_back(pages.begin(), pages.end());
  }
  const PageStore& pages = store.page_store();
  for (PageId page = 0; page < pages.size(); ++page) {
    const std::span<const TransactionId> ids = pages.IdsOnPage(page);
    parts.used_bytes.push_back(pages.pages()[page].used_bytes);
    parts.page_ids.emplace_back(ids.begin(), ids.end());
  }
  return parts;
}

/// Writes `parts` in the v2 layout SaveSignatureTable uses (section ids 1-7).
void WriteStoredTable(const StoredTable& parts, const std::string& path) {
  ArtifactWriter writer(Env::Default(), path, kTableMagic);
  ASSERT_TRUE(writer.Open().ok());
  writer.BeginSection(1);
  writer.PutU32(parts.cardinality);
  writer.PutU32(parts.universe);
  writer.PutU32(parts.activation_threshold);
  writer.PutU32(parts.page_size);
  writer.PutU64(parts.coordinates.size());
  ASSERT_TRUE(writer.EndSection().ok());
  writer.BeginSection(2);
  writer.PutU32Span(parts.signature_of_item.data(),
                    parts.signature_of_item.size());
  ASSERT_TRUE(writer.EndSection().ok());
  writer.BeginSection(3);
  writer.PutU32Span(parts.coordinates.data(), parts.coordinates.size());
  ASSERT_TRUE(writer.EndSection().ok());
  writer.BeginSection(4);
  writer.PutU64(parts.entries.size());
  for (const SignatureTable::Entry& entry : parts.entries) {
    writer.PutU32(entry.coordinate);
    writer.PutU32(entry.transaction_count);
    writer.PutU32(entry.bucket);
  }
  ASSERT_TRUE(writer.EndSection().ok());
  writer.BeginSection(5);
  writer.PutU64(parts.buckets.size());
  for (const std::vector<PageId>& bucket : parts.buckets) {
    writer.PutU32Span(bucket.data(), bucket.size());
  }
  ASSERT_TRUE(writer.EndSection().ok());
  writer.BeginSection(6);
  writer.PutU64(parts.page_ids.size());
  for (size_t page = 0; page < parts.page_ids.size(); ++page) {
    writer.PutU32(parts.used_bytes[page]);
    writer.PutU32Span(parts.page_ids[page].data(),
                      parts.page_ids[page].size());
  }
  ASSERT_TRUE(writer.EndSection().ok());
  writer.BeginSection(7);
  writer.PutU32Span(parts.page_of_transaction.data(),
                    parts.page_of_transaction.size());
  ASSERT_TRUE(writer.EndSection().ok());
  ASSERT_TRUE(writer.Commit().ok());
}

/// The first three directory entries in the order their buckets are
/// validated (bucket order): the tamper cases below place each corruption
/// so that the check it targets is the first one to see it.
std::vector<size_t> EntriesInBucketOrder(const StoredTable& parts) {
  std::vector<size_t> order(parts.entries.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&parts](size_t x, size_t y) {
    return parts.entries[x].bucket < parts.entries[y].bucket;
  });
  EXPECT_GE(order.size(), 3u);
  order.resize(3);
  return order;
}

class BucketMembershipTest : public ::testing::Test {
 protected:
  BucketMembershipTest()
      : fixture_(MakeFixture(437, 800)),
        parts_(StoredPartsOf(fixture_.table)),
        path_(TempPath("table_membership.mbst")) {}
  ~BucketMembershipTest() override { std::remove(path_.c_str()); }

  /// Writes the (tampered) parts and loads them, expecting kCorruption with
  /// `phrase` in the message.
  void ExpectCorruption(const std::string& phrase) {
    WriteStoredTable(parts_, path_);
    const StatusOr<SignatureTable> loaded =
        LoadSignatureTable(path_, fixture_.db);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
    EXPECT_NE(loaded.status().message().find(phrase), std::string::npos)
        << loaded.status().message();
    EXPECT_EQ(VerifySignatureTableFile(path_).code(), StatusCode::kCorruption);
  }

  /// The first id on the first page of entry `e`'s bucket.
  TransactionId FirstIdOf(size_t e) const {
    const PageId page = parts_.buckets[parts_.entries[e].bucket].front();
    return parts_.page_ids[page].front();
  }

  Fixture fixture_;
  StoredTable parts_;
  std::string path_;
};

TEST_F(BucketMembershipTest, UntamperedPartsWriteTheSavedFile) {
  // The writer above reproduces SaveSignatureTable byte for byte, so what
  // the tamper cases change is only what they tamper with.
  const std::string saved = TempPath("table_membership_saved.mbst");
  ASSERT_TRUE(SaveSignatureTable(fixture_.table, saved).ok());
  WriteStoredTable(parts_, path_);
  EXPECT_EQ(FileBytes(path_), FileBytes(saved));
  EXPECT_TRUE(LoadSignatureTable(path_, fixture_.db).ok());
  std::remove(saved.c_str());
}

TEST_F(BucketMembershipTest, RejectsATransactionInTwoBuckets) {
  // Entry a's first row also listed in entry b's bucket, with b's count
  // raised and one taken off entry c (validated after b) so the directory
  // still sums to the row count; the row's page-map entry still points at
  // a page that holds it.
  const std::vector<size_t> e = EntriesInBucketOrder(parts_);
  const PageId page = parts_.buckets[parts_.entries[e[1]].bucket].front();
  parts_.page_ids[page].push_back(FirstIdOf(e[0]));
  ++parts_.entries[e[1]].transaction_count;
  --parts_.entries[e[2]].transaction_count;
  ExpectCorruption("sits in two buckets");
}

TEST_F(BucketMembershipTest, RejectsAnEntryCountThatIsNotItsBucketSize) {
  // One row's worth of count moved between two entries: the counts still
  // sum to the row count, but neither matches its bucket.
  const std::vector<size_t> e = EntriesInBucketOrder(parts_);
  --parts_.entries[e[0]].transaction_count;
  ++parts_.entries[e[1]].transaction_count;
  ExpectCorruption("but its bucket holds");
}

TEST_F(BucketMembershipTest, RejectsARowWhoseCoordinateIsNotItsEntrys) {
  // A row keeps its bucket but claims another entry's coordinate.
  const std::vector<size_t> e = EntriesInBucketOrder(parts_);
  parts_.coordinates[FirstIdOf(e[0])] = parts_.entries[e[1]].coordinate;
  ExpectCorruption("but sits in the bucket of entry");
}

TEST(TableIoTest, RejectsCorruptAndTruncatedFiles) {
  Fixture fixture = MakeFixture(431, 300);
  std::string path = TempPath("table_corrupt.mbst");
  ASSERT_TRUE(SaveSignatureTable(fixture.table, path).ok());

  // Truncate the tail.
  FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::fseek(file, 0, SEEK_END);
  long size = std::ftell(file);
  std::fclose(file);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  auto truncated = LoadSignatureTable(path, fixture.db);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kCorruption);

  // Garbage magic.
  file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  std::fputs("this is not an index", file);
  std::fclose(file);
  auto garbage = LoadSignatureTable(path, fixture.db);
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), StatusCode::kCorruption);

  // Missing file.
  auto missing = LoadSignatureTable(TempPath("no_such.mbst"), fixture.db);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mbi
