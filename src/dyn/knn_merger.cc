#include "dyn/knn_merger.h"

#include <algorithm>
#include <limits>

namespace mbi {

void KnnMerger::Reset(size_t k) {
  k_ = k;
  heap_.clear();
  stats_ = QueryStats{};
}

void KnnMerger::AddComponent(const NearestNeighborResult& component) {
  for (const Neighbor& neighbor : component.neighbors) {
    OfferToTopK(neighbor, k_, &heap_);
  }
  MergeQueryStats(component.stats, &stats_);
}

void KnnMerger::AddCandidate(TransactionId gid, double similarity) {
  OfferToTopK({gid, similarity}, k_, &heap_);
}

void KnnMerger::AddStats(const QueryStats& stats) {
  MergeQueryStats(stats, &stats_);
}

double KnnMerger::Threshold() const {
  return !heap_.empty() && heap_.size() == k_
             ? heap_.front().similarity
             : -std::numeric_limits<double>::infinity();
}

void KnnMerger::Finish(NearestNeighborResult* result) {
  result->stats = stats_;
  result->stats.is_exact = stats_.certificate_bound <= Threshold();
  std::sort(heap_.begin(), heap_.end(), BestFirst());
  result->neighbors.assign(heap_.begin(), heap_.end());
  result->trace.clear();
}

}  // namespace mbi
