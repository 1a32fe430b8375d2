// Differential gate for the dynamized index (ISSUE 9 acceptance): the
// buffer+levels fan-out must be *bit-identical in similarity values and
// cutoff-tie semantics* to a single SequentialScanner over the live union
// (deletes applied), for every similarity family and every kernel ISA.
//
// Tie semantics mirror fuzz/query_differential_fuzz.cc: above the cutoff
// group ids must match the oracle exactly; within the tie group at the k-th
// similarity the ids are unspecified (per-component branch-and-bound may
// prune tied candidates), so each reported id is instead recomputed from
// scratch and required to be genuinely tied, live, distinct, and in
// ascending-gid order. Certificates cannot be compared bitwise against the
// scan (a pruning component legitimately reports a tighter bound), so they
// are checked by dominance: certificate_bound >= every similarity the
// oracle found beyond the returned set, and exact searches must say so.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "baseline/sequential_scan.h"
#include "core/index_builder.h"
#include "core/similarity.h"
#include "dyn/dynamic_index.h"
#include "gen/quest_generator.h"
#include "kernel/dispatch.h"
#include "txn/database.h"
#include "txn/transaction.h"
#include "util/rng.h"

namespace mbi {
namespace {

bool SameSimilarity(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

/// The live union in ascending-gid order plus the gid of each oracle row.
struct Oracle {
  TransactionDatabase db;
  std::vector<TransactionId> gids;

  explicit Oracle(uint32_t universe) : db(universe) {}
};

/// A dynamized workload and the material to check it: every row ever
/// inserted (by gid) and the set of deleted gids.
struct Workload {
  std::unique_ptr<DynamicIndex> index;
  std::map<TransactionId, Transaction> rows;
  std::set<TransactionId> deleted;

  Oracle MakeOracle(uint32_t universe) const {
    Oracle oracle(universe);
    for (const auto& [gid, txn] : rows) {
      if (deleted.count(gid) != 0) continue;
      oracle.db.Add(txn);
      oracle.gids.push_back(gid);
    }
    return oracle;
  }
};

Workload BuildWorkload(uint64_t seed, size_t num_rows, size_t buffer_capacity,
                       size_t fanout, double delete_every_nth) {
  QuestGeneratorConfig config;
  config.universe_size = 120;
  config.num_large_itemsets = 30;
  config.seed = seed;
  QuestGenerator generator(config);

  DynamicIndexOptions options;
  options.buffer_capacity = buffer_capacity;
  options.level_fanout = fanout;
  options.build.clustering.target_cardinality = 6;

  Workload workload;
  workload.index = std::make_unique<DynamicIndex>(120, options);
  for (size_t i = 0; i < num_rows; ++i) {
    Transaction txn = generator.NextTransaction();
    auto gid = workload.index->Insert(txn);
    EXPECT_TRUE(gid.ok());
    workload.rows.emplace(gid.value(), std::move(txn));
  }
  if (delete_every_nth > 0) {
    size_t i = 0;
    for (const auto& [gid, txn] : workload.rows) {
      if (i++ % static_cast<size_t>(delete_every_nth) == 0) {
        EXPECT_TRUE(workload.index->Delete(gid).ok());
        workload.deleted.insert(gid);
      }
    }
  }
  return workload;
}

/// The full differential comparison for one (target, family, k).
void ExpectMatchesOracle(const Workload& workload, const Oracle& oracle,
                         const Transaction& target,
                         const SimilarityFamily& family, size_t k) {
  NearestNeighborResult result =
      workload.index->FindKNearest(target, family, k);
  ASSERT_TRUE(result.stats.is_exact) << "exact fan-out lost its guarantee";
  ASSERT_TRUE(result.stats.is_exact);
  ASSERT_EQ(result.stats.termination, QueryTermination::kCompleted);

  const SequentialScanner scanner(&oracle.db);
  const std::vector<Neighbor> expected =
      scanner.FindKNearest(target, family, k);
  ASSERT_EQ(result.neighbors.size(), expected.size());
  if (expected.empty()) return;

  // Values: bit-identical, position by position.
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(SameSimilarity(result.neighbors[i].similarity,
                               expected[i].similarity))
        << "position " << i << ": " << result.neighbors[i].similarity
        << " vs oracle " << expected[i].similarity;
  }

  // Ids: determined above the cutoff tie group, verified-tied within it.
  const double cutoff = expected.back().similarity;
  const std::unique_ptr<SimilarityFunction> function =
      family.ForTarget(target);
  std::set<TransactionId> seen;
  for (size_t i = 0; i < expected.size(); ++i) {
    const TransactionId gid = result.neighbors[i].id;
    ASSERT_TRUE(seen.insert(gid).second) << "duplicate gid " << gid;
    ASSERT_EQ(workload.deleted.count(gid), 0u)
        << "tombstoned gid " << gid << " leaked into the result";
    const auto row = workload.rows.find(gid);
    ASSERT_NE(row, workload.rows.end()) << "unknown gid " << gid;
    if (!SameSimilarity(expected[i].similarity, cutoff)) {
      ASSERT_EQ(gid, oracle.gids[expected[i].id])
          << "position " << i << " above the cutoff group";
      continue;
    }
    // Tie group: recompute from scratch, bypassing every index structure.
    size_t match = 0, hamming = 0;
    MatchAndHamming(target, row->second, &match, &hamming);
    const double recomputed = function->Evaluate(static_cast<int>(match),
                                                 static_cast<int>(hamming));
    ASSERT_TRUE(SameSimilarity(recomputed, result.neighbors[i].similarity))
        << "gid " << gid << " reported " << result.neighbors[i].similarity
        << ", recomputed " << recomputed;
    if (i > 0 && SameSimilarity(result.neighbors[i].similarity,
                                result.neighbors[i - 1].similarity)) {
      ASSERT_GT(gid, result.neighbors[i - 1].id)
          << "tied gids not in ascending order";
    }
  }
}

void RunDifferential(const Workload& workload, uint64_t query_seed) {
  Oracle oracle = workload.MakeOracle(120);
  QuestGeneratorConfig config;
  config.universe_size = 120;
  config.num_large_itemsets = 30;
  config.seed = query_seed;
  QuestGenerator generator(config);

  const InverseHammingFamily hamming;
  const MatchRatioFamily match_ratio;
  const CosineFamily cosine;
  const JaccardFamily jaccard;
  const SimilarityFamily* families[] = {&hamming, &match_ratio, &cosine,
                                        &jaccard};
  for (int q = 0; q < 6; ++q) {
    const Transaction target = generator.NextTransaction();
    for (const SimilarityFamily* family : families) {
      for (size_t k : {1u, 3u, 10u}) {
        ExpectMatchesOracle(workload, oracle, target, *family, k);
      }
    }
  }
}

TEST(DynDifferentialTest, MultiLevelFanOutMatchesTheOracle) {
  Workload workload = BuildWorkload(/*seed=*/1001, /*num_rows=*/150,
                                    /*buffer_capacity=*/8, /*fanout=*/2,
                                    /*delete_every_nth=*/0);
  RunDifferential(workload, 9001);
}

TEST(DynDifferentialTest, TombstonesAcrossBufferAndLevels) {
  Workload workload = BuildWorkload(/*seed=*/1002, /*num_rows=*/140,
                                    /*buffer_capacity=*/16, /*fanout=*/3,
                                    /*delete_every_nth=*/4);
  ASSERT_GT(workload.index->tombstone_count(), 0u);
  RunDifferential(workload, 9002);
}

TEST(DynDifferentialTest, BufferOnlyAndSingleComponentEdges) {
  // Everything still buffered (no spill yet).
  Workload small = BuildWorkload(/*seed=*/1003, /*num_rows=*/7,
                                 /*buffer_capacity=*/64, /*fanout=*/4,
                                 /*delete_every_nth=*/3);
  RunDifferential(small, 9003);
  // Exactly one component, empty buffer.
  Workload one = BuildWorkload(/*seed=*/1004, /*num_rows=*/32,
                               /*buffer_capacity=*/32, /*fanout=*/8,
                               /*delete_every_nth=*/0);
  RunDifferential(one, 9004);
}

TEST(DynDifferentialTest, CutoffTiesSpanningComponents) {
  // Duplicate rows across distinct components force exact ties at the
  // cutoff that no single component can resolve alone.
  QuestGeneratorConfig config;
  config.universe_size = 120;
  config.num_large_itemsets = 30;
  config.seed = 77;
  QuestGenerator generator(config);

  DynamicIndexOptions options;
  options.buffer_capacity = 4;
  options.level_fanout = 3;
  options.build.clustering.target_cardinality = 6;

  Workload workload;
  workload.index = std::make_unique<DynamicIndex>(120, options);
  std::vector<Transaction> base;
  for (int i = 0; i < 6; ++i) base.push_back(generator.NextTransaction());
  for (int round = 0; round < 8; ++round) {
    for (const Transaction& txn : base) {
      auto gid = workload.index->Insert(txn);
      ASSERT_TRUE(gid.ok());
      workload.rows.emplace(gid.value(), txn);
    }
  }
  ASSERT_GE(workload.index->num_components(), 2u);

  Oracle oracle = workload.MakeOracle(120);
  const MatchRatioFamily family;
  // k = 5 lands inside a duplicate group: every value is multiply tied.
  ExpectMatchesOracle(workload, oracle, base[0], family, 5);
  const InverseHammingFamily hamming;
  ExpectMatchesOracle(workload, oracle, base[2], hamming, 7);
  // Components are visited largest-first, each pruned against the k-th best
  // merged so far, so once the heap holds k duplicates the later components
  // prune against a floor equal to the tie value: sweep k across the
  // duplicate group and past it.
  for (size_t k = 1; k <= 12; ++k) {
    ExpectMatchesOracle(workload, oracle, base[2], hamming, k);
    ExpectMatchesOracle(workload, oracle, base[4], family, k);
  }
}

TEST(DynDifferentialTest, ComponentBoundedByTheFloorScansNoEntry) {
  // k exact copies of the target wait in the buffer, which is scanned
  // first: the floor is then f(|target|, 0), which dominates every entry's
  // optimistic bound, so every component prunes all of its entries.
  Workload workload = BuildWorkload(/*seed=*/1008, /*num_rows=*/96,
                                    /*buffer_capacity=*/32, /*fanout=*/8,
                                    /*delete_every_nth=*/0);
  QuestGeneratorConfig config;
  config.universe_size = 120;
  config.seed = 9008;
  QuestGenerator generator(config);
  Transaction target = generator.NextTransaction();
  while (target.empty()) target = generator.NextTransaction();
  constexpr size_t kK = 3;
  for (size_t i = 0; i < kK; ++i) {
    auto gid = workload.index->Insert(target);
    ASSERT_TRUE(gid.ok());
    workload.rows.emplace(gid.value(), target);
  }
  ASSERT_EQ(workload.index->num_components(), 3u);
  ASSERT_EQ(workload.index->buffered_rows(), kK);

  Oracle oracle = workload.MakeOracle(120);
  const InverseHammingFamily hamming;
  const MatchRatioFamily match_ratio;
  const CosineFamily cosine;
  const JaccardFamily jaccard;
  const SimilarityFamily* families[] = {&hamming, &match_ratio, &cosine,
                                        &jaccard};
  for (const SimilarityFamily* family : families) {
    ExpectMatchesOracle(workload, oracle, target, *family, kK);
    const NearestNeighborResult result =
        workload.index->FindKNearest(target, *family, kK);
    // Only the buffer's rows were scanned and scored.
    EXPECT_EQ(result.stats.entries_scanned, kK);
    EXPECT_EQ(result.stats.transactions_evaluated, kK);
    EXPECT_EQ(result.stats.entries_pruned + kK, result.stats.entries_total);
    EXPECT_TRUE(result.stats.is_exact);
  }
}

TEST(DynDifferentialTest, FullyDeletedComponentIsNotSearched) {
  // Two equal level-0 components; the one visited first (smaller gids) has
  // every row deleted. It must add no work: the answer and every counter
  // equal those of an index holding only the other component's rows.
  Workload dead = BuildWorkload(/*seed=*/1007, /*num_rows=*/32,
                                /*buffer_capacity=*/16, /*fanout=*/8,
                                /*delete_every_nth=*/0);
  DynamicIndex twin(120, dead.index->options());
  for (const auto& [gid, txn] : dead.rows) {
    if (gid < 16) {
      ASSERT_TRUE(dead.index->Delete(gid).ok());
      dead.deleted.insert(gid);
    } else {
      ASSERT_TRUE(twin.Insert(txn).ok());
    }
  }
  ASSERT_EQ(dead.index->num_components(), 2u);
  ASSERT_EQ(twin.num_components(), 1u);
  QuestGeneratorConfig config;
  config.universe_size = 120;
  config.seed = 9007;
  QuestGenerator generator(config);

  Oracle oracle = dead.MakeOracle(120);
  const InverseHammingFamily hamming;
  const CosineFamily cosine;
  for (int q = 0; q < 6; ++q) {
    const Transaction target = generator.NextTransaction();
    const SimilarityFamily* families[] = {&hamming, &cosine};
    for (const SimilarityFamily* family : families) {
      for (size_t k : {1u, 5u, 40u}) {
        ExpectMatchesOracle(dead, oracle, target, *family, k);
        const QueryStats got =
            dead.index->FindKNearest(target, *family, k).stats;
        const QueryStats want = twin.FindKNearest(target, *family, k).stats;
        EXPECT_EQ(got.entries_total, want.entries_total);
        EXPECT_EQ(got.entries_scanned, want.entries_scanned);
        EXPECT_EQ(got.transactions_evaluated, want.transactions_evaluated);
        EXPECT_EQ(got.io.transactions_fetched, want.io.transactions_fetched);
      }
    }
  }
}

TEST(DynDifferentialTest, EveryKernelIsaAgrees) {
  struct IsaGuard {
    ~IsaGuard() { kernel::ResetIsaForTesting(); }
  } guard;
  Workload workload = BuildWorkload(/*seed=*/1005, /*num_rows=*/96,
                                    /*buffer_capacity=*/8, /*fanout=*/2,
                                    /*delete_every_nth=*/5);
  for (const kernel::Isa isa :
       {kernel::Isa::kScalar, kernel::Isa::kAvx2, kernel::Isa::kAvx512,
        kernel::Isa::kNeon}) {
    if (kernel::KernelsFor(isa) == nullptr) continue;
    kernel::ForceIsa(isa);
    RunDifferential(workload, 9005);
  }
}

TEST(DynDifferentialTest, BudgetedFanOutCertifiesWhatItSkipped) {
  Workload workload = BuildWorkload(/*seed=*/1006, /*num_rows=*/150,
                                    /*buffer_capacity=*/8, /*fanout=*/2,
                                    /*delete_every_nth=*/0);
  Oracle oracle = workload.MakeOracle(120);
  QuestGeneratorConfig config;
  config.universe_size = 120;
  config.seed = 9006;
  QuestGenerator generator(config);
  const Transaction target = generator.NextTransaction();
  const MatchRatioFamily family;

  SearchOptions options;
  options.budget.max_entries = 4;  // Starves most of the fan-out.
  NearestNeighborResult degraded =
      workload.index->FindKNearest(target, family, 5, options);
  EXPECT_FALSE(degraded.stats.is_exact);
  EXPECT_EQ(degraded.stats.termination, QueryTermination::kEntryBudget);
  EXPECT_GT(degraded.stats.entries_unexplored, 0u);

  // Dominance: the certificate must bound every similarity in the database,
  // returned or not — that is what makes the degraded answer trustworthy.
  const SequentialScanner scanner(&oracle.db);
  const std::vector<Neighbor> truth =
      scanner.FindKNearest(target, family, oracle.db.size());
  for (const Neighbor& neighbor : truth) {
    const bool returned =
        std::any_of(degraded.neighbors.begin(), degraded.neighbors.end(),
                    [&](const Neighbor& r) {
                      return oracle.gids[neighbor.id] == r.id;
                    });
    if (!returned) {
      EXPECT_GE(degraded.stats.certificate_bound, neighbor.similarity);
    }
  }
}

/// Per-query means at each deleted fraction of the sweep: rows scored, and
/// component rows fetched (dead ones included — they are read, then
/// skipped).
struct SweepCounts {
  std::vector<double> mean_evaluated;
  std::vector<double> mean_fetched;
};

/// Deleted-fraction sweep on a paper-shaped stream (T10.I6, 50K rows,
/// buffer 1024, fanout 4, k = 10, 150 in-distribution targets cycling the
/// paper's three functions). Deletes accumulate as marks with no merge to
/// purge them; at every fraction each answer must equal the scan oracle over
/// the live rows, and the rows evaluated and fetched are summed so callers
/// can gate how pruning degrades with deletes — a count, not a time.
SweepCounts RunDeletedFractionSweep(bool oldest_first) {
  constexpr size_t kRows = 50'000;
  constexpr size_t kTargets = 150;
  constexpr size_t kK = 10;
  constexpr uint32_t kUniverse = 1000;
  QuestGeneratorConfig config;
  config.universe_size = kUniverse;
  config.num_large_itemsets = 2000;
  config.avg_itemset_size = 6.0;
  config.avg_transaction_size = 10.0;
  config.seed = 12001;
  QuestGenerator generator(config);

  DynamicIndexOptions options;
  options.buffer_capacity = 1024;
  options.level_fanout = 4;
  options.build.clustering.target_cardinality = 15;
  DynamicIndex index(kUniverse, options);
  std::vector<Transaction> rows;
  rows.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    rows.push_back(generator.NextTransaction());
    auto gid = index.Insert(rows.back());
    EXPECT_TRUE(gid.ok());
    EXPECT_EQ(gid.value(), i);
  }
  const std::vector<Transaction> targets = generator.GenerateQueries(kTargets);

  std::vector<TransactionId> order(kRows);
  for (size_t i = 0; i < kRows; ++i) order[i] = static_cast<TransactionId>(i);
  if (!oldest_first) {
    Rng rng(12002);
    rng.Shuffle(&order);
  }

  const InverseHammingFamily hamming;
  const MatchRatioFamily match_ratio;
  const CosineFamily cosine;
  const SimilarityFamily* families[] = {&hamming, &match_ratio, &cosine};
  std::vector<bool> deleted(kRows, false);
  size_t num_deleted = 0;
  SweepCounts counts;
  DynQueryContext context;
  NearestNeighborResult result;
  for (const double fraction : {0.0, 0.1, 0.3, 0.5}) {
    const auto goal = static_cast<size_t>(fraction * kRows);
    for (; num_deleted < goal; ++num_deleted) {
      EXPECT_TRUE(index.Delete(order[num_deleted]).ok());
      deleted[order[num_deleted]] = true;
    }
    EXPECT_TRUE(index.CheckInvariants().ok());
    EXPECT_EQ(index.live_size(), kRows - num_deleted);
    Oracle oracle(kUniverse);
    for (size_t gid = 0; gid < kRows; ++gid) {
      if (deleted[gid]) continue;
      oracle.db.Add(rows[gid]);
      oracle.gids.push_back(static_cast<TransactionId>(gid));
    }
    const SequentialScanner scanner(&oracle.db);
    double evaluated = 0.0;
    double fetched = 0.0;
    for (size_t t = 0; t < kTargets; ++t) {
      const SimilarityFamily& family = *families[t % 3];
      index.FindKNearest(targets[t], family, kK, SearchOptions{}, &context,
                         &result);
      evaluated += static_cast<double>(result.stats.transactions_evaluated);
      fetched += static_cast<double>(result.stats.io.transactions_fetched);
      EXPECT_TRUE(result.stats.is_exact);
      const std::vector<Neighbor> expected =
          scanner.FindKNearest(targets[t], family, kK);
      EXPECT_EQ(result.neighbors.size(), expected.size());
      for (size_t i = 0; i < std::min(expected.size(),
                                      result.neighbors.size());
           ++i) {
        EXPECT_TRUE(SameSimilarity(result.neighbors[i].similarity,
                                   expected[i].similarity))
            << "fraction " << fraction << " target " << t << " position "
            << i;
        EXPECT_FALSE(deleted[result.neighbors[i].id])
            << "deleted gid " << result.neighbors[i].id << " returned";
      }
    }
    counts.mean_evaluated.push_back(evaluated / kTargets);
    counts.mean_fetched.push_back(fetched / kTargets);
    std::printf("%s deletes, %2.0f%% deleted: %.0f rows evaluated, %.0f "
                "fetched per query\n",
                oldest_first ? "oldest-first" : "uniform", fraction * 100,
                counts.mean_evaluated.back(), counts.mean_fetched.back());
  }
  return counts;
}

TEST(DynDifferentialTest, SharedFloorKeepsFanOutRowsNearOneTable) {
  // In-distribution targets (later rows of the inserted stream) on a
  // paper-shaped stream: the fan-out scores rows in every component, and
  // one pruning threshold shared across them keeps that near what one table
  // over the same rows scores (about 1.5x here); components pruned only
  // against their own k-th best score about 2.4x. A count, not a time.
  constexpr size_t kRows = 30'000;
  constexpr size_t kTargets = 120;
  constexpr size_t kK = 10;
  constexpr uint32_t kUniverse = 1000;
  QuestGeneratorConfig config;
  config.universe_size = kUniverse;
  config.num_large_itemsets = 2000;
  config.avg_itemset_size = 6.0;
  config.avg_transaction_size = 10.0;
  config.seed = 12003;
  QuestGenerator generator(config);

  DynamicIndexOptions options;
  options.buffer_capacity = 1024;
  options.level_fanout = 4;
  options.build.clustering.target_cardinality = 15;
  DynamicIndex index(kUniverse, options);
  TransactionDatabase all(kUniverse);
  for (size_t i = 0; i < kRows; ++i) {
    const Transaction txn = generator.NextTransaction();
    ASSERT_TRUE(index.Insert(txn).ok());
    all.Add(txn);
  }
  ASSERT_GE(index.num_components(), 3u);
  std::vector<Transaction> targets;
  for (size_t t = 0; t < kTargets; ++t) {
    targets.push_back(generator.NextTransaction());
  }
  const SignatureTable table = BuildIndex(all, options.build);
  const BranchAndBoundEngine single(&all, &table);

  const InverseHammingFamily hamming;
  const MatchRatioFamily match_ratio;
  const CosineFamily cosine;
  const SimilarityFamily* families[] = {&hamming, &match_ratio, &cosine};
  double fanout_rows = 0.0;
  double single_rows = 0.0;
  DynQueryContext context;
  NearestNeighborResult result;
  for (size_t t = 0; t < kTargets; ++t) {
    const SimilarityFamily& family = *families[t % 3];
    index.FindKNearest(targets[t], family, kK, SearchOptions{}, &context,
                       &result);
    ASSERT_TRUE(result.stats.is_exact);
    fanout_rows += static_cast<double>(result.stats.transactions_evaluated);
    const NearestNeighborResult one = single.FindKNearest(targets[t], family,
                                                          kK);
    single_rows += static_cast<double>(one.stats.transactions_evaluated);
    ASSERT_EQ(result.neighbors.size(), one.neighbors.size());
    for (size_t i = 0; i < one.neighbors.size(); ++i) {
      ASSERT_TRUE(SameSimilarity(result.neighbors[i].similarity,
                                 one.neighbors[i].similarity))
          << "target " << t << " position " << i;
    }
  }
  std::printf("%zu components: fan-out scores %.0f rows per query, one table "
              "%.0f\n",
              index.num_components(), fanout_rows / kTargets,
              single_rows / kTargets);
  EXPECT_LE(fanout_rows, 1.75 * single_rows);
}

TEST(DynDifferentialTest, DeletedFractionSweepStaysExactAndPrunes) {
  for (const bool oldest_first : {true, false}) {
    const SweepCounts counts = RunDeletedFractionSweep(oldest_first);
    ASSERT_EQ(counts.mean_evaluated.size(), 4u);
    // Every part is asked for its k best live rows, so half the rows
    // deleted may cost pruning only what a sparser live set costs — not
    // the full scan an over-fetch of k + |deleted| forces.
    EXPECT_LE(counts.mean_evaluated[3], 2.5 * counts.mean_evaluated[0])
        << (oldest_first ? "oldest-first" : "uniform");
    EXPECT_LE(counts.mean_fetched[3], 2.5 * counts.mean_fetched[0])
        << (oldest_first ? "oldest-first" : "uniform");
  }
}

}  // namespace
}  // namespace mbi
