#include "core/row_scorer.h"

#include "util/macros.h"

namespace mbi {

MBI_HOT void RowScorer::Bind(std::span<const Transaction> targets,
                             const SimilarityFamily& family,
                             size_t universe_size,
                             const CandidateLayout* layout) {
  MBI_CHECK(!targets.empty());
  num_targets_ = targets.size();
  if (functions_.size() < num_targets_) functions_.resize(num_targets_);
  if (packed_.size() < num_targets_) packed_.resize(num_targets_);
  for (size_t t = 0; t < num_targets_; ++t) {
    family.RebindTarget(targets[t], &functions_[t]);
    packed_[t].Assign(targets[t], universe_size, layout);
  }
}

double RowScorer::PointwiseBound() const {
  double sum = 0.0;
  for (size_t t = 0; t < num_targets_; ++t) {
    sum += functions_[t]->Evaluate(
        static_cast<int>(packed_[t].target_size()), 0);
  }
  return sum / static_cast<double>(num_targets_);
}

}  // namespace mbi
