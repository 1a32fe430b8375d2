// The shared row scorer (core/row_scorer.h) against a naive per-row loop:
// MatchAndHamming + Evaluate per target, the sum started at 0.0 and divided
// by n, then a full sort. Every source (id span, row range, per-row probe)
// feeds every sink (bounded top-k, range collector, the dyn merger) and must
// reproduce the naive answer exactly, ids included.

#include "core/row_scorer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "baseline/sequential_scan.h"
#include "dyn/knn_merger.h"
#include "gen/quest_generator.h"
#include "txn/candidate_layout.h"
#include "txn/delete_mask.h"

namespace mbi {
namespace {

constexpr size_t kRows = 700;
constexpr size_t kSpanLengths[] = {0, 1, 255, 256, 257};

TransactionDatabase MakeDatabase(size_t rows, uint64_t seed) {
  QuestGeneratorConfig config;
  config.universe_size = 200;
  config.num_large_itemsets = 40;
  config.avg_itemset_size = 4.0;
  config.avg_transaction_size = 7.0;
  config.seed = seed;
  QuestGenerator generator(config);
  return generator.GenerateDatabase(rows);
}

std::vector<Transaction> Targets(const TransactionDatabase& db, size_t n) {
  std::vector<Transaction> targets;
  for (size_t t = 0; t < n; ++t) {
    targets.push_back(db.Get(static_cast<TransactionId>(17 + 101 * t)));
  }
  return targets;
}

// A coarse f with a handful of values, so the k-th value is heavily tied.
CustomFamily CoarseFamily() {
  return CustomFamily("coarse", [](int x, int y) {
    return static_cast<double>(std::min(x, 2)) - 0.25 * (y > 6 ? 1.0 : 0.0);
  });
}

double NaiveScore(const TransactionDatabase& db,
                  const std::vector<Transaction>& targets,
                  const SimilarityFamily& family, TransactionId id) {
  double sum = 0.0;
  for (const Transaction& target : targets) {
    size_t match = 0, hamming = 0;
    MatchAndHamming(target, db.Get(id), &match, &hamming);
    sum += family.ForTarget(target)->Evaluate(static_cast<int>(match),
                                              static_cast<int>(hamming));
  }
  return sum / static_cast<double>(targets.size());
}

// Every id scored naively, best first.
std::vector<Neighbor> NaiveSorted(const TransactionDatabase& db,
                                  const std::vector<Transaction>& targets,
                                  const SimilarityFamily& family,
                                  const std::vector<TransactionId>& ids) {
  std::vector<Neighbor> scored;
  for (TransactionId id : ids) {
    scored.push_back({id, NaiveScore(db, targets, family, id)});
  }
  std::sort(scored.begin(), scored.end(), BestFirst());
  return scored;
}

std::vector<Neighbor> Truncated(std::vector<Neighbor> sorted, size_t k) {
  if (sorted.size() > k) sorted.resize(k);
  return sorted;
}

std::vector<Neighbor> AtLeast(const std::vector<Neighbor>& sorted,
                              double threshold) {
  std::vector<Neighbor> kept;
  for (const Neighbor& n : sorted) {
    if (n.similarity >= threshold) kept.push_back(n);
  }
  return kept;
}

void ExpectSame(const std::vector<Neighbor>& got,
                const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
    EXPECT_EQ(got[i].similarity, want[i].similarity) << "rank " << i;
  }
}

// The three sinks over one source: `score(sink)` feeds the sink.
template <typename Source>
void CheckEverySink(const Source& score, const std::vector<Neighbor>& sorted,
                    size_t k, double threshold) {
  std::vector<Neighbor> heap;
  TopKSink top_k{k, &heap};
  score(top_k);
  std::sort(heap.begin(), heap.end(), BestFirst());
  EXPECT_EQ(top_k.scored, sorted.size());
  ExpectSame(heap, Truncated(sorted, k));

  std::vector<Neighbor> matches;
  RangeSink range{threshold, &matches};
  score(range);
  std::sort(matches.begin(), matches.end(), BestFirst());
  EXPECT_EQ(range.scored, sorted.size());
  ExpectSame(matches, AtLeast(sorted, threshold));

  KnnMerger merger;
  merger.Reset(k);
  auto merge = [&](TransactionId id, double value) {
    merger.AddCandidate(id, value);
  };
  score(merge);
  NearestNeighborResult merged;
  merger.Finish(&merged);
  ExpectSame(merged.neighbors, Truncated(sorted, k));
}

class RowScorerTest : public ::testing::Test {
 protected:
  RowScorerTest()
      : db_(MakeDatabase(kRows, 5)), layout_(CandidateLayout::Build(db_)) {}

  TransactionDatabase db_;
  CandidateLayout layout_;
};

// Parameterised by the number of targets bound together.
class RowScorerSourcesTest : public RowScorerTest,
                             public ::testing::WithParamInterface<size_t> {};

TEST_P(RowScorerSourcesTest, EverySourceFeedsEverySinkLikeTheNaiveLoop) {
  const size_t n = GetParam();
  const std::vector<Transaction> targets = Targets(db_, n);
  CosineFamily cosine;
  CustomFamily coarse = CoarseFamily();
  for (const SimilarityFamily* family :
       {static_cast<const SimilarityFamily*>(&cosine),
        static_cast<const SimilarityFamily*>(&coarse)}) {
    RowScorer batch;
    batch.Bind(targets, *family, db_.universe_size(), &layout_);
    RowScorer probe;
    probe.Bind(targets, *family, db_.universe_size(), /*layout=*/nullptr);
    ASSERT_TRUE(batch.has_layout());
    ASSERT_FALSE(probe.has_layout());
    for (size_t length : kSpanLengths) {
      SCOPED_TRACE(family->name() + " n=" + std::to_string(n) +
                   " length=" + std::to_string(length));
      // An id span strided over the database, and a row range off row 0.
      std::vector<TransactionId> ids;
      for (size_t i = 0; i < length; ++i) {
        ids.push_back(static_cast<TransactionId>(2 * i + (i % 3 == 0)));
      }
      const TransactionId first = 11;
      std::vector<TransactionId> range(length);
      std::iota(range.begin(), range.end(), first);

      const std::vector<Neighbor> by_ids =
          NaiveSorted(db_, targets, *family, ids);
      const std::vector<Neighbor> by_rows =
          NaiveSorted(db_, targets, *family, range);
      const double threshold =
          by_rows.empty() ? 0.0 : by_rows[by_rows.size() / 3].similarity;
      for (size_t k : {size_t{1}, size_t{10}, size_t{400}}) {
        CheckEverySink([&](auto& sink) { batch.ScoreIds(ids, sink); }, by_ids,
                       k, threshold);
        CheckEverySink(
            [&](auto& sink) { batch.ScoreRows(first, length, sink); },
            by_rows, k, threshold);
        CheckEverySink(
            [&](auto& sink) {
              for (TransactionId id : range) sink(id, probe.Score(db_.Get(id)));
            },
            by_rows, k, threshold);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Targets, RowScorerSourcesTest, ::testing::Values(1, 2, 3));

TEST_F(RowScorerTest, DeleteMarkedRowsAreFilteredBeforeTheSink) {
  // The scorer knows nothing of deletes: a path drops marked rows in its
  // row source (B&B's live ids) or in its sink (the scanner), and both give
  // the naive answer over the live rows.
  DeleteMask deleted(kRows);
  std::vector<TransactionId> live;
  for (TransactionId id = 0; id < kRows; ++id) {
    if (id % 3 == 0 || (id > 250 && id < 270)) {
      deleted.Mark(id);
    } else {
      live.push_back(id);
    }
  }
  const std::vector<Transaction> targets = Targets(db_, 2);
  JaccardFamily family;
  const std::vector<Neighbor> sorted = NaiveSorted(db_, targets, family, live);
  RowScorer scorer;
  scorer.Bind(targets, family, db_.universe_size(), &layout_);

  CheckEverySink([&](auto& sink) { scorer.ScoreIds(live, sink); }, sorted, 15,
                 0.2);
  CheckEverySink(
      [&](auto& sink) {
        scorer.ScoreRows(0, kRows, [&](TransactionId id, double value) {
          if (!deleted.IsMarked(id)) sink(id, value);
        });
      },
      sorted, 15, 0.2);

  const Transaction& target = targets[0];
  const std::vector<Neighbor> single =
      NaiveSorted(db_, {target}, family, live);
  for (const CandidateLayout* layout : {&layout_, static_cast<CandidateLayout*>(nullptr)}) {
    SequentialScanner scanner(&db_, layout, &deleted);
    ExpectSame(scanner.FindKNearest(target, family, 15), Truncated(single, 15));
    ExpectSame(scanner.FindInRange(target, family, 0.2),
               AtLeast(single, 0.2));
    NearestNeighborResult result;
    scanner.FindKNearest(target, family, 15, QueryBudget{}, &result);
    EXPECT_EQ(result.stats.transactions_evaluated, live.size());
    EXPECT_EQ(result.stats.entries_scanned, kRows);
  }
}

TEST_F(RowScorerTest, OneScorerRebindsAcrossFamiliesAndTargetCounts) {
  // A warm scorer rebinds in place: the scores after each Bind match a
  // fresh scorer's, whatever the previous family or number of targets.
  CosineFamily cosine;
  CustomFamily coarse = CoarseFamily();
  InverseHammingFamily hamming;
  RowScorer warm;
  const struct {
    const SimilarityFamily* family;
    size_t n;
  } bindings[] = {{&cosine, 3}, {&coarse, 1}, {&hamming, 2}, {&cosine, 1},
                  {&coarse, 3}};
  for (const auto& binding : bindings) {
    const std::vector<Transaction> targets = Targets(db_, binding.n);
    warm.Bind(targets, *binding.family, db_.universe_size(), &layout_);
    RowScorer fresh;
    fresh.Bind(targets, *binding.family, db_.universe_size(), &layout_);
    ASSERT_EQ(warm.num_targets(), binding.n);
    std::vector<Neighbor> from_warm, from_fresh;
    warm.ScoreRows(0, kRows, [&](TransactionId id, double value) {
      from_warm.push_back({id, value});
    });
    fresh.ScoreRows(0, kRows, [&](TransactionId id, double value) {
      from_fresh.push_back({id, value});
    });
    ExpectSame(from_warm, from_fresh);
    for (TransactionId id : {TransactionId{0}, TransactionId{kRows - 1}}) {
      EXPECT_EQ(from_warm[id].similarity,
                NaiveScore(db_, targets, *binding.family, id));
      EXPECT_EQ(warm.Score(db_.Get(id)), from_warm[id].similarity);
    }
  }
}

TEST_F(RowScorerTest, PointwiseBoundDominatesEveryRow) {
  const std::vector<Transaction> targets = Targets(db_, 3);
  MatchRatioFamily family;
  RowScorer scorer;
  scorer.Bind(targets, family, db_.universe_size(), &layout_);
  const double bound = scorer.PointwiseBound();
  scorer.ScoreRows(0, kRows, [&](TransactionId, double value) {
    EXPECT_LE(value, bound);
  });
}

TEST(RowScorerScanTest, ScannerTopKEqualsSortThenTruncateUnderHeavyTies) {
  // Many duplicate rows: whole tie groups straddle the k-th rank, and the
  // bounded top-k must keep exactly the smallest ids of the cut group.
  TransactionDatabase db(40);
  const std::vector<Transaction> shapes = {
      Transaction({1, 2, 3}), Transaction({1, 2}), Transaction({4, 5, 6, 7}),
      Transaction({1, 9}), Transaction({2, 3, 8})};
  for (size_t i = 0; i < 900; ++i) db.Add(shapes[(i * 7) % shapes.size()]);
  const CandidateLayout layout = CandidateLayout::Build(db);
  const Transaction target({1, 2, 3, 10});
  std::vector<TransactionId> all(db.size());
  std::iota(all.begin(), all.end(), 0);
  CustomFamily coarse = CoarseFamily();
  MatchRatioFamily ratio;
  for (const SimilarityFamily* family :
       {static_cast<const SimilarityFamily*>(&coarse),
        static_cast<const SimilarityFamily*>(&ratio)}) {
    const std::vector<Neighbor> sorted = NaiveSorted(db, {target}, *family, all);
    for (const CandidateLayout* with : {&layout, static_cast<const CandidateLayout*>(nullptr)}) {
      SequentialScanner scanner(&db, with);
      for (size_t k : {size_t{1}, size_t{5}, size_t{179}, size_t{181},
                       size_t{500}, size_t{2000}}) {
        SCOPED_TRACE(family->name() + " k=" + std::to_string(k));
        ExpectSame(scanner.FindKNearest(target, *family, k),
                   Truncated(sorted, k));
        ExpectSame(scanner.FindKNearestMultiTarget({target, target}, *family, k),
                   Truncated(sorted, k));
      }
    }
  }
}

}  // namespace
}  // namespace mbi
