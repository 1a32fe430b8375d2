#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "baseline/inverted_index.h"
#include "baseline/sequential_scan.h"
#include "gen/quest_generator.h"

namespace mbi {
namespace {

QuestGeneratorConfig GeneratorConfig(double avg_transaction_size = 8.0) {
  QuestGeneratorConfig config;
  config.universe_size = 250;
  config.num_large_itemsets = 60;
  config.avg_itemset_size = 5.0;
  config.avg_transaction_size = avg_transaction_size;
  config.seed = 67;
  return config;
}

// --- SequentialScanner ---

TEST(SequentialScannerTest, FindsTrueNearestByBruteForceCrossCheck) {
  QuestGenerator generator(GeneratorConfig());
  TransactionDatabase db = generator.GenerateDatabase(300);
  SequentialScanner scanner(&db);
  MatchRatioFamily family;
  Transaction target = generator.NextTransaction();
  auto function = family.ForTarget(target);

  auto result = scanner.FindKNearest(target, family, 1);
  ASSERT_EQ(result.size(), 1u);
  for (TransactionId id = 0; id < db.size(); ++id) {
    size_t x = 0, y = 0;
    MatchAndHamming(target, db.Get(id), &x, &y);
    EXPECT_LE(function->Evaluate(static_cast<int>(x), static_cast<int>(y)),
              result[0].similarity);
  }
}

TEST(SequentialScannerTest, ChargesStreamingIo) {
  QuestGenerator generator(GeneratorConfig());
  TransactionDatabase db = generator.GenerateDatabase(500);
  SequentialScanner scanner(&db);
  InverseHammingFamily family;
  IoStats stats;
  scanner.FindKNearest(generator.NextTransaction(), family, 1, &stats, 4096);
  EXPECT_EQ(stats.transactions_fetched, 500u);
  // A 4 KiB page holds dozens of small baskets: far fewer pages than rows.
  EXPECT_GT(stats.pages_read, 0u);
  EXPECT_LT(stats.pages_read, 100u);
}

TEST(SequentialScannerTest, LayoutMustCoverTheDatabase) {
  // A bound layout is never silently dropped: a scan over rows it does not
  // cover dies instead of answering through another path.
  QuestGenerator generator(GeneratorConfig());
  TransactionDatabase db = generator.GenerateDatabase(200);
  const CandidateLayout layout = CandidateLayout::Build(db);
  SequentialScanner scanner(&db, &layout);
  MatchRatioFamily family;
  const Transaction target = generator.NextTransaction();
  EXPECT_EQ(scanner.FindKNearest(target, family, 3).size(), 3u);
  db.Add(generator.NextTransaction());
  EXPECT_DEATH(scanner.FindKNearest(target, family, 3), "cover");
}

// --- InvertedIndex ---

TEST(InvertedIndexTest, PostingsAreExact) {
  QuestGenerator generator(GeneratorConfig());
  TransactionDatabase db = generator.GenerateDatabase(400);
  InvertedIndex index(&db);
  for (ItemId item = 0; item < db.universe_size(); ++item) {
    const auto& postings = index.PostingsOf(item);
    EXPECT_TRUE(std::is_sorted(postings.begin(), postings.end()));
    std::set<TransactionId> expected;
    for (TransactionId id = 0; id < db.size(); ++id) {
      if (db.Get(id).Contains(item)) expected.insert(id);
    }
    EXPECT_EQ(postings.size(), expected.size());
    for (TransactionId id : postings) EXPECT_TRUE(expected.count(id));
  }
  index.CheckInvariants();
}

TEST(InvertedIndexTest, CandidatesAreUnionOfPostings) {
  QuestGenerator generator(GeneratorConfig());
  TransactionDatabase db = generator.GenerateDatabase(400);
  InvertedIndex index(&db);
  Transaction target = generator.NextTransaction();
  auto candidates = index.Candidates(target);
  EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
  std::set<TransactionId> expected;
  for (ItemId item : target.items()) {
    for (TransactionId id : index.PostingsOf(item)) expected.insert(id);
  }
  EXPECT_EQ(candidates.size(), expected.size());
  // Every candidate shares at least one item with the target.
  for (TransactionId id : candidates) {
    EXPECT_GT(MatchCount(target, db.Get(id)), 0u);
  }
}

TEST(InvertedIndexTest, AgreesWithScanForMatchMonotoneFunctions) {
  QuestGenerator generator(GeneratorConfig());
  TransactionDatabase db = generator.GenerateDatabase(600);
  InvertedIndex index(&db);
  SequentialScanner scanner(&db);
  // Cosine and match-ratio vanish at x = 0, so the two-phase answer is
  // complete whenever any candidate exists.
  for (const char* name : {"cosine", "match_ratio"}) {
    auto family = MakeSimilarityFamily(name);
    for (int q = 0; q < 8; ++q) {
      Transaction target = generator.NextTransaction();
      auto result = index.FindKNearest(target, *family, 3);
      auto oracle = scanner.FindKNearest(target, *family, 3);
      if (!result.candidates_complete) continue;
      ASSERT_GE(result.neighbors.size(), 1u);
      // Oracle's best may be a zero-similarity transaction when fewer than k
      // candidates exist; compare only the overlapping prefix with nonzero
      // similarity.
      size_t n = std::min(result.neighbors.size(), oracle.size());
      for (size_t i = 0; i < n; ++i) {
        if (oracle[i].similarity == 0.0) break;
        EXPECT_DOUBLE_EQ(result.neighbors[i].similarity,
                         oracle[i].similarity)
            << name << " query " << q << " rank " << i;
      }
    }
  }
}

TEST(InvertedIndexTest, FlagsIncompletenessForInverseHamming) {
  QuestGenerator generator(GeneratorConfig());
  TransactionDatabase db = generator.GenerateDatabase(200);
  InvertedIndex index(&db);
  InverseHammingFamily family;
  auto result = index.FindKNearest(generator.NextTransaction(), family, 1);
  EXPECT_FALSE(result.candidates_complete);
}

TEST(InvertedIndexTest, AccessFractionGrowsWithTransactionSize) {
  // Table 1's driving effect: denser transactions touch more posting lists,
  // so the candidate set covers a larger share of the database.
  double small = 0.0, large = 0.0;
  for (auto [avg_size, out] :
       {std::pair<double, double*>{5.0, &small}, {15.0, &large}}) {
    QuestGenerator generator(GeneratorConfig(avg_size));
    TransactionDatabase db = generator.GenerateDatabase(1500);
    InvertedIndex index(&db);
    MatchRatioFamily family;
    double total = 0.0;
    for (int q = 0; q < 10; ++q) {
      total += index.FindKNearest(generator.NextTransaction(), family, 1)
                   .accessed_fraction;
    }
    *out = total / 10;
  }
  EXPECT_GT(large, small);
  EXPECT_GT(large, 0.1);  // Dense baskets touch a lot of the database.
}

TEST(InvertedIndexTest, PageScatteringTouchesManyPages) {
  QuestGenerator generator(GeneratorConfig(10.0));
  TransactionDatabase db = generator.GenerateDatabase(2000);
  InvertedIndex index(&db, /*page_size_bytes=*/4096);
  MatchRatioFamily family;
  auto result = index.FindKNearest(generator.NextTransaction(), family, 1);
  ASSERT_GT(result.pages_total, 0u);
  // Candidates are spread across the sequential layout: the fraction of
  // *pages* touched must exceed the fraction of *transactions* accessed
  // (the paper's page-scattering argument).
  double page_fraction = static_cast<double>(result.pages_touched) /
                         static_cast<double>(result.pages_total);
  EXPECT_GT(page_fraction, result.accessed_fraction);
}

TEST(InvertedIndexTest, BufferPoolReducesPhysicalReads) {
  QuestGenerator generator(GeneratorConfig(10.0));
  TransactionDatabase db = generator.GenerateDatabase(1000);
  Transaction target = generator.NextTransaction();
  MatchRatioFamily family;

  InvertedIndex cold(&db, 4096, /*buffer_pool_pages=*/0);
  InvertedIndex warm(&db, 4096, /*buffer_pool_pages=*/1024);
  auto cold_result = cold.FindKNearest(target, family, 1);
  auto warm_result = warm.FindKNearest(target, family, 1);
  EXPECT_EQ(cold_result.candidates, warm_result.candidates);
  EXPECT_LT(warm_result.io.pages_read, cold_result.io.pages_read);
  EXPECT_EQ(warm_result.io.pages_read + warm_result.io.pages_cached,
            cold_result.io.pages_read);
}

TEST(InvertedIndexTest, PostingsBytesAccounting) {
  TransactionDatabase db(10);
  db.Add(Transaction({0, 1}));
  db.Add(Transaction({1}));
  InvertedIndex index(&db);
  EXPECT_EQ(index.PostingsBytes(), 3 * sizeof(TransactionId));
}

}  // namespace
}  // namespace mbi
