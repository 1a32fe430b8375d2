// Multi-target similarity search (paper §2.1 / §4.3): given the baskets of a
// small customer segment, find the historical transactions with the highest
// *average* similarity to the whole segment — e.g. to seed a lookalike
// audience. Also demonstrates early termination with its a-posteriori
// optimality certificate.
//
// Similarity is cosine, which stays in [0, 1]: under match ratio x / y a
// history basket equal to a segment basket scores +inf, so the segment
// average is +inf whenever one exists, and an early-terminated search is
// then trivially "certified" by an infinite best. With a bounded family the
// certificate compares finite averages and either outcome can occur.
//
//   ./multi_target_search [--transactions=40000] [--segment=3] [--seed=19]

#include <cstdio>
#include <vector>

#include "baseline/sequential_scan.h"
#include "core/branch_and_bound.h"
#include "core/index_builder.h"
#include "core/query_context.h"
#include "gen/quest_generator.h"
#include "util/flags.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  mbi::FlagParser flags("Multi-target (segment) similarity search.");
  int64_t transactions, segment_size, seed;
  flags.AddInt64("transactions", 40'000, "history size", &transactions);
  flags.AddInt64("segment", 3, "number of segment baskets", &segment_size);
  flags.AddInt64("seed", 19, "generator seed", &seed);
  if (!flags.Parse(argc, argv)) return 0;

  mbi::QuestGeneratorConfig gen_config;
  gen_config.universe_size = 1000;
  gen_config.num_large_itemsets = 2000;
  gen_config.avg_transaction_size = 10.0;
  gen_config.seed = static_cast<uint64_t>(seed);
  mbi::QuestGenerator generator(gen_config);
  mbi::TransactionDatabase db =
      generator.GenerateDatabase(static_cast<uint64_t>(transactions));

  mbi::IndexBuildConfig build;
  build.clustering.target_cardinality = 13;
  mbi::SignatureTable table = mbi::BuildIndex(db, build);
  mbi::BranchAndBoundEngine engine(&db, &table);

  std::vector<mbi::Transaction> segment =
      generator.GenerateQueries(static_cast<uint64_t>(segment_size));
  std::printf("Customer segment (%zu baskets):\n", segment.size());
  for (const mbi::Transaction& basket : segment) {
    std::printf("  %s\n", basket.ToString().c_str());
  }

  mbi::CosineFamily family;

  // Exact multi-target search.
  mbi::Stopwatch timer;
  mbi::QueryContext context;
  mbi::NearestNeighborResult exact;
  engine.FindKNearestMultiTarget(segment, family, 5, {}, &context, &exact);
  double exact_ms = timer.ElapsedMillis();
  std::printf(
      "\nExact top-5 by average similarity (%.1f ms, pruned %.1f%%):\n",
      exact_ms, exact.stats.PruningEfficiencyPercent());
  for (const mbi::Neighbor& neighbor : exact.neighbors) {
    std::printf("  tx %-8u avg similarity %-8.4g %s\n", neighbor.id,
                neighbor.similarity, db.Get(neighbor.id).ToString().c_str());
  }

  // Early-terminated searches with the paper's quality certificate: an
  // answer is certified optimal when no unexplored entry's optimistic bound
  // beats the 5th best found. Stopping at 0.5% or 5% of the data usually
  // leaves entries that might; stopping right after the last entry the exact
  // search had to scan leaves only entries it pruned, so that answer is
  // certified although entries go unexplored.
  const double exact_reads =
      (static_cast<double>(exact.stats.transactions_evaluated) - 0.5) /
      static_cast<double>(db.size());
  for (double fraction : {0.005, 0.05, exact_reads}) {
    mbi::SearchOptions options;
    options.max_access_fraction = fraction;
    timer.Reset();
    mbi::NearestNeighborResult fast;
    engine.FindKNearestMultiTarget(segment, family, 5, options, &context,
                                   &fast);
    std::printf("\nStopping at %.1f%% of the data (%.1f ms, read %.2f%%): ",
                100.0 * fraction, timer.ElapsedMillis(),
                100.0 * fast.stats.AccessedFraction());
    if (fast.stats.termination == mbi::QueryTermination::kCompleted) {
      std::printf("ran to completion, exact\n");
      continue;
    }
    std::printf("best avg similarity %.4g, %s", fast.neighbors[0].similarity,
                fast.stats.is_exact
                    ? "certified optimal by the unexplored-entry bound\n"
                    : "not certified; ");
    if (!fast.stats.is_exact) {
      std::printf("unexplored entries could reach %.4g\n",
                  fast.stats.certificate_bound);
    }
  }

  // Cross-check against the scan oracle.
  mbi::SequentialScanner scanner(&db);
  auto oracle = scanner.FindKNearestMultiTarget(segment, family, 5);
  std::printf("\nSequential-scan cross-check: best id %u (engine found %u)\n",
              oracle[0].id, exact.neighbors[0].id);
  return 0;
}
