// Peer recommendation: the application the paper's introduction motivates.
// For a customer's current basket, retrieve the k most similar historical
// baskets ("peers") and recommend the items those peers bought that the
// customer has not.
//
//   ./peer_recommendation [--transactions=50000] [--k=10] [--seed=7]

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "core/branch_and_bound.h"
#include "core/index_builder.h"
#include "gen/quest_generator.h"
#include "util/flags.h"

namespace {

/// Ranks items bought by peers but absent from the target basket, weighting
/// each peer's vote by its similarity rank (1/rank).
std::vector<std::pair<mbi::ItemId, double>> RecommendItems(
    const mbi::TransactionDatabase& db, const mbi::Transaction& target,
    const std::vector<mbi::Neighbor>& peers, size_t max_items) {
  std::map<mbi::ItemId, double> scores;
  for (size_t rank = 0; rank < peers.size(); ++rank) {
    double weight = 1.0 / static_cast<double>(rank + 1);
    for (mbi::ItemId item : db.Get(peers[rank].id).items()) {
      if (!target.Contains(item)) scores[item] += weight;
    }
  }
  std::vector<std::pair<mbi::ItemId, double>> ranked(scores.begin(),
                                                     scores.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (ranked.size() > max_items) ranked.resize(max_items);
  return ranked;
}

}  // namespace

int main(int argc, char** argv) {
  mbi::FlagParser flags(
      "Peer recommendations from a signature-table similarity index.");
  int64_t transactions, k, seed;
  flags.AddInt64("transactions", 50'000, "history size", &transactions);
  flags.AddInt64("k", 10, "number of peers to retrieve", &k);
  flags.AddInt64("seed", 7, "generator seed", &seed);
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

  // A new customer walks in with this basket.
  mbi::Transaction customer = generator.NextTransaction();
  std::printf("Customer basket: %s\n\n", customer.ToString().c_str());

  // Retrieve peers under the match/hamming ratio: rewards shared items,
  // penalizes divergent ones — a sensible notion of "peer".
  mbi::MatchRatioFamily family;
  mbi::SearchOptions options;
  options.max_access_fraction = 0.02;  // Paper §4.2: 2% scan is plenty.
  mbi::NearestNeighborResult result =
      engine.FindKNearest(customer, family, static_cast<size_t>(k), options);

  std::printf("Top-%lld peers (accessed %.2f%% of %zu baskets%s):\n",
              static_cast<long long>(k),
              100.0 * result.stats.AccessedFraction(), db.size(),
              result.stats.is_exact ? ", provably exact" : "");
  for (const mbi::Neighbor& peer : result.neighbors) {
    std::printf("  tx %-8u similarity %-8.4g %s\n", peer.id, peer.similarity,
                db.Get(peer.id).ToString().c_str());
  }

  auto recommendations = RecommendItems(db, customer, result.neighbors, 8);
  std::printf("\nRecommended items (peer-vote score):\n");
  for (const auto& [item, score] : recommendations) {
    std::printf("  item %-6u score %.3f\n", item, score);
  }
  return 0;
}
