#include "dyn/knn_merger.h"

#include <algorithm>

namespace mbi {

void KnnMerger::Reset(size_t k) {
  k_ = k;
  candidates_.clear();
  stats_ = QueryStats{};
}

void KnnMerger::AddComponent(const NearestNeighborResult& component) {
  candidates_.insert(candidates_.end(), component.neighbors.begin(),
                     component.neighbors.end());
  MergeQueryStats(component.stats, &stats_);
}

void KnnMerger::AddCandidate(TransactionId gid, double similarity) {
  candidates_.push_back({gid, similarity});
}

void KnnMerger::AddStats(const QueryStats& stats) {
  MergeQueryStats(stats, &stats_);
}

void KnnMerger::Finish(NearestNeighborResult* result) {
  std::sort(candidates_.begin(), candidates_.end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.id < b.id;
            });
  if (candidates_.size() > k_) candidates_.resize(k_);
  result->neighbors.assign(candidates_.begin(), candidates_.end());
  result->trace.clear();
  result->stats = stats_;
}

}  // namespace mbi
