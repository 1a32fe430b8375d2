#include "core/batch_query.h"

#include <algorithm>
#include <thread>

#include "core/query_context.h"

namespace mbi {

std::vector<NearestNeighborResult> FindKNearestBatch(
    const BranchAndBoundEngine& engine,
    const std::vector<Transaction>& targets, const SimilarityFamily& family,
    size_t k, const SearchOptions& options, size_t num_threads,
    ThreadPool* pool) {
  BatchQueryWorkspace workspace;
  std::vector<NearestNeighborResult> results;
  FindKNearestBatch(engine, targets, family, k, options, num_threads, pool,
                    &workspace, &results);
  return results;
}

size_t BatchShardCount(size_t count, size_t num_threads,
                       const ThreadPool* pool) {
  size_t shards;
  if (pool != nullptr) {
    shards = pool->num_threads();
    if (num_threads != 0) shards = std::min(shards, num_threads);
  } else if (num_threads != 0) {
    shards = num_threads;
  } else {
    shards = std::max(1u, std::thread::hardware_concurrency());
  }
  return std::min(shards, count);
}

void FindKNearestBatch(const BranchAndBoundEngine& engine,
                       const std::vector<Transaction>& targets,
                       const SimilarityFamily& family, size_t k,
                       const SearchOptions& options, size_t num_threads,
                       ThreadPool* pool, BatchQueryWorkspace* workspace,
                       std::vector<NearestNeighborResult>* results) {
  results->resize(targets.size());
  RunSharded(targets.size(), num_threads, pool, &workspace->contexts,
             [&](QueryContext& context, size_t i) {
               engine.FindKNearest(targets[i], family, k, options, &context,
                                   &(*results)[i]);
             });
}

QueryStats AggregateBatchStats(
    const std::vector<NearestNeighborResult>& results) {
  QueryStats agg;
  uint64_t max_database_size = 0;
  for (const NearestNeighborResult& result : results) {
    MergeQueryStats(result.stats, &agg);
    max_database_size = std::max(max_database_size, result.stats.database_size);
  }
  agg.database_size = max_database_size;
  return agg;
}

}  // namespace mbi
