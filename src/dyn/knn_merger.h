#ifndef MBI_DYN_KNN_MERGER_H_
#define MBI_DYN_KNN_MERGER_H_

#include <cstddef>
#include <vector>

#include "core/branch_and_bound.h"
#include "core/query_stats.h"
#include "txn/transaction.h"

namespace mbi {

/// Combines the dyn fan-out's per-part answers into one top-k under the
/// paper's optimistic-bound semantics (DESIGN.md §13.3), and lends the
/// fan-out its running k-th best as the next part's pruning floor.
/// Reusable: one merger per DynQueryContext, Reset() per query; the k-heap
/// keeps its capacity.
///
/// Soundness of the merge (the invariants dyn_differential_test gates):
///
///  * The merger holds a bounded k-heap ordered by BestFirst (similarity
///    desc, gid asc), so its top k equals sort-then-truncate over every row
///    ever offered. Parts skip delete-marked rows before their own top-k
///    (txn/delete_mask.h), so nothing is filtered here.
///  * A part searched with `floor = Threshold()` prunes entries that cannot
///    beat the k rows already held, so it returns only rows that can still
///    enter the top k — possibly fewer than k. Every row a part evaluated
///    but did not return is beaten by k rows it did return.
///  * Certificate over the union (§4.2): `certificate_bound` merges as MAX
///    over parts (MergeQueryStats) and bounds every row no part evaluated;
///    the answer is exact iff that bound cannot beat the merged k-th best
///    (`Threshold()`). This replaces an AND over per-part certificates and
///    is never weaker than it: a part certified against its own k-th best
///    or its floor is certified against the merged k-th best, which is at
///    least both.
///  * `termination` merges as most-severe; counters sum.
///  * Global ids are unique across parts (a row lives in exactly one
///    component or the buffer), so the merge needs no dedup.
///  * Cutoff ties: the k-th similarity value is exact, but a part may prune
///    an entry whose bound equals the floor, so which ids represent the tie
///    group at the k-th similarity is unspecified
///    (NearestNeighborResult::neighbors); the returned ids are in
///    (similarity desc, gid asc) order.
class KnnMerger {
 public:
  /// Starts a new merge for a top-`k` query.
  void Reset(size_t k);

  /// Folds one component's result. Neighbor ids must already be GLOBAL.
  void AddComponent(const NearestNeighborResult& component);

  /// Folds one scored live candidate (the buffer scan path).
  void AddCandidate(TransactionId gid, double similarity);

  /// Folds stats only — for the buffer scan (whose candidates arrive via
  /// AddCandidate) and for components that were *skipped* under an
  /// exhausted budget: a skipped component's rows count as unexplored and
  /// its best-possible score must still be dominated by the certificate.
  void AddStats(const QueryStats& stats);

  /// The k-th best similarity held once k rows are, -inf before that: the
  /// floor the next part's branch and bound prunes against.
  double Threshold() const;

  /// Fills `*result` with the top k best first, the merged stats, and the
  /// union certificate. The merger can be Reset() and reused afterwards.
  void Finish(NearestNeighborResult* result);

  /// Rows held (at most k; for tests).
  size_t candidate_count() const { return heap_.size(); }

 private:
  size_t k_ = 0;
  /// BestFirst heap: the worst held row at the front.
  std::vector<Neighbor> heap_;
  QueryStats stats_;
};

}  // namespace mbi

#endif  // MBI_DYN_KNN_MERGER_H_
