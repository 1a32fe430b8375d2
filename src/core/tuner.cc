#include "core/tuner.h"

#include <algorithm>
#include <cstdio>

#include "core/branch_and_bound.h"
#include "util/macros.h"
#include "util/rng.h"

namespace mbi {
namespace {

/// Largest K whose 2^K pointer-sized directory fits the budget.
uint32_t MaxCardinalityForBudget(uint64_t budget_bytes) {
  uint32_t k = 0;
  while (k + 1 <= SignaturePartition::kMaxCardinality &&
         (uint64_t{1} << (k + 1)) * sizeof(void*) <= budget_bytes) {
    ++k;
  }
  return k;
}

}  // namespace

std::string TuningResult::ToString() const {
  std::string out = "trials:\n";
  for (const TuningTrial& trial : trials) {
    char line[128];
    std::snprintf(line, sizeof(line),
                  "  K=%-2u r=%d directory=%lluKiB pruning=%.2f%%\n",
                  trial.cardinality, trial.activation_threshold,
                  static_cast<unsigned long long>(trial.directory_bytes /
                                                  1024),
                  trial.pruning_efficiency);
    out += line;
  }
  char chosen[128];
  std::snprintf(chosen, sizeof(chosen), "recommended: K=%u r=%d",
                recommended.clustering.target_cardinality,
                recommended.table.activation_threshold);
  out += chosen;
  return out;
}

TuningResult TuneIndex(const TransactionDatabase& database,
                       const std::vector<Transaction>& probe_queries,
                       const SimilarityFamily& family,
                       const TunerConfig& config) {
  MBI_CHECK(!database.empty());
  MBI_CHECK(!probe_queries.empty());
  MBI_CHECK(!config.activation_thresholds.empty());

  const uint32_t max_k =
      MaxCardinalityForBudget(config.directory_memory_budget_bytes);
  MBI_CHECK_MSG(max_k >= config.min_cardinality,
                "memory budget below the minimum cardinality's directory");

  // Sample the database (prefix sampling after a shuffle of indices keeps
  // this O(sample); the generator's stream has no order bias anyway, but a
  // deployment's log might).
  uint64_t sample_size = std::min<uint64_t>(config.sample_size,
                                            database.size());
  TransactionDatabase sample(database.universe_size());
  {
    Rng rng(config.seed);
    if (sample_size == database.size()) {
      for (TransactionId id = 0; id < database.size(); ++id) {
        sample.Add(database.Get(id));
      }
    } else {
      for (uint64_t row :
           rng.SampleWithoutReplacement(database.size(), sample_size)) {
        sample.Add(database.Get(static_cast<TransactionId>(row)));
      }
    }
  }
  // The sample must still have at least min_cardinality distinct items for
  // clustering; the caller's database is assumed realistic (checked inside
  // the clustering otherwise).

  TuningResult result;
  const TuningTrial* best = nullptr;

  // Sweep K coarsely (every other value) up to the cap, always including the
  // cap itself, crossed with the activation thresholds.
  std::vector<uint32_t> cardinalities;
  for (uint32_t k = config.min_cardinality; k < max_k; k += 2) {
    cardinalities.push_back(k);
  }
  cardinalities.push_back(max_k);

  for (uint32_t k : cardinalities) {
    for (int r : config.activation_thresholds) {
      IndexBuildConfig build;
      build.clustering.target_cardinality = k;
      build.table.activation_threshold = r;
      SignatureTable table = BuildIndex(sample, build);
      BranchAndBoundEngine engine(&sample, &table);

      TuningTrial trial;
      trial.cardinality = k;
      trial.activation_threshold = r;
      trial.directory_bytes = table.MemoryFootprintBytes();
      double total = 0.0;
      for (const Transaction& target : probe_queries) {
        total += engine.FindKNearest(target, family, /*k=*/1)
                     .stats.PruningEfficiencyPercent();
      }
      trial.pruning_efficiency =
          total / static_cast<double>(probe_queries.size());
      result.trials.push_back(trial);
    }
  }

  // Pick the best pruning; ties within 0.25pp go to the smaller directory,
  // then to the smaller r (cheaper activation accounting).
  for (const TuningTrial& trial : result.trials) {
    if (best == nullptr) {
      best = &trial;
      continue;
    }
    double delta = trial.pruning_efficiency - best->pruning_efficiency;
    if (delta > 0.25 ||
        (delta > -0.25 && (trial.directory_bytes < best->directory_bytes ||
                           (trial.directory_bytes == best->directory_bytes &&
                            trial.activation_threshold <
                                best->activation_threshold)))) {
      best = &trial;
    }
  }
  MBI_CHECK(best != nullptr);
  result.recommended.clustering.target_cardinality = best->cardinality;
  result.recommended.table.activation_threshold = best->activation_threshold;
  return result;
}

}  // namespace mbi
