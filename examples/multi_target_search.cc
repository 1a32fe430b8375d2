// Multi-target similarity search (paper §2.1 / §4.3): given the baskets of a
// small customer segment, find the historical transactions with the highest
// *average* similarity to the whole segment — e.g. to seed a lookalike
// audience. Also demonstrates early termination with its a-posteriori
// optimality certificate.
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

  mbi::MatchRatioFamily family;

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

  // Early-terminated search with the paper's quality certificate.
  mbi::SearchOptions options;
  options.max_access_fraction = 0.005;
  timer.Reset();
  mbi::NearestNeighborResult fast;
  engine.FindKNearestMultiTarget(segment, family, 5, options, &context, &fast);
  std::printf(
      "\nEarly-terminated at 0.5%% of the data (%.1f ms): best avg "
      "similarity %.4g, %s",
      timer.ElapsedMillis(), fast.neighbors[0].similarity,
      fast.stats.is_exact
          ? "certified optimal by the unexplored-entry bound\n"
          : "not certified; ");
  if (!fast.stats.is_exact) {
    std::printf("unexplored entries could reach %.4g\n",
                fast.stats.certificate_bound);
  }

  // Cross-check against the scan oracle.
  mbi::SequentialScanner scanner(&db);
  auto oracle = scanner.FindKNearestMultiTarget(segment, family, 5);
  std::printf("\nSequential-scan cross-check: best id %u (engine found %u)\n",
              oracle[0].id, exact.neighbors[0].id);
  return 0;
}
