#ifndef MBI_CORE_BRANCH_AND_BOUND_H_
#define MBI_CORE_BRANCH_AND_BOUND_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/query_budget.h"
#include "core/query_stats.h"
#include "core/signature_table.h"
#include "core/similarity.h"
#include "txn/candidate_layout.h"
#include "txn/database.h"
#include "txn/delete_mask.h"
#include "txn/transaction.h"
#include "util/hot_path.h"

namespace mbi {

class QueryContext;

/// One retrieved transaction and its similarity to the target (for
/// multi-target queries: the aggregate similarity).
struct Neighbor {
  TransactionId id = kInvalidTransactionId;
  double similarity = 0.0;
};

/// The one result order every k-NN and range path shares: "a ranks before
/// b" — higher similarity first, ties by ascending id. As a sort comparator
/// it puts results best first. As the `<` of a std::*_heap it keeps the
/// *worst* kept result at the front (the pessimistic bound), and among ties
/// the largest id is evicted first, so every top-k is deterministic and
/// equal to sort-then-truncate.
struct BestFirst {
  bool operator()(const Neighbor& a, const Neighbor& b) const {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.id < b.id;
  }
};

/// Offers `incoming` to a top-`k` kept in `*heap` as a std::*_heap under
/// BestFirst: the heap front is the worst kept row, which `incoming`
/// replaces when it ranks before it.
inline void OfferToTopK(Neighbor incoming, size_t k,
                        std::vector<Neighbor>* heap) {
  if (heap->size() < k) {
    heap->push_back(incoming);
    std::push_heap(heap->begin(), heap->end(), BestFirst());
  } else if (BestFirst()(incoming, heap->front())) {
    std::pop_heap(heap->begin(), heap->end(), BestFirst());
    heap->back() = incoming;
    std::push_heap(heap->begin(), heap->end(), BestFirst());
  }
}

/// Order in which the signature table entries are visited (paper §4
/// discusses both; the paper's experiments use the optimistic-bound order).
enum class EntrySortOrder {
  /// Decreasing optimistic bound f(M_opt, D_opt) — the primary strategy.
  kOptimisticBound,
  /// Decreasing similarity between the entry's supercoordinate and the
  /// target's supercoordinate, both viewed as K-bit transactions — the
  /// alternative implementation of §4. Bounds still drive pruning.
  kSupercoordinateSimilarity,
};

/// Per-entry record of what the branch and bound did, for explain/debugging
/// output (populated only when SearchOptions::collect_trace is set).
struct EntryTrace {
  enum class Action { kScanned, kPruned, kUnexplored };

  Supercoordinate coordinate = 0;
  /// Optimistic bound f(M_opt, D_opt) of this entry (for multi-target
  /// queries: the average over targets).
  double optimistic_bound = 0.0;
  /// Transactions indexed by the entry.
  uint32_t transaction_count = 0;
  Action action = Action::kUnexplored;
  /// Pessimistic bound in effect when the entry was visited (for scanned /
  /// pruned entries, in visit order).
  double pessimistic_bound = 0.0;
};

/// Query-time knobs.
struct SearchOptions {
  /// Early termination (paper §4.2): stop once at least this fraction of the
  /// database's transactions has been evaluated. 1.0 disables termination
  /// (the search runs to completion and the answer is guaranteed exact).
  double max_access_fraction = 1.0;

  /// Guaranteed-quality approximation (paper §4.2's second mode: terminate
  /// "when the best transaction found so far is within a reasonable
  /// similarity difference from the optimistic bounds of the unexplored
  /// table entries"). An entry is pruned when its optimistic bound does not
  /// exceed the pessimistic bound by more than this gap, so the returned
  /// best is within `optimality_gap` of the true optimum (in similarity
  /// units). 0 keeps the search exact. Range queries ignore it.
  double optimality_gap = 0.0;

  EntrySortOrder sort_order = EntrySortOrder::kOptimisticBound;

  /// Record a per-entry EntryTrace in the result (visit order). Adds memory
  /// and time proportional to the number of occupied entries; off by
  /// default. Range queries ignore it.
  bool collect_trace = false;

  /// Cooperative overload budget (deadline / entry cap / cancellation),
  /// checked at entry granularity. Merged tightest-wins with any budget
  /// pinned on the QueryContext. Default-constructed = unlimited. On expiry
  /// the query returns a certified degraded answer (never crashes, never
  /// returns an inconsistent certificate); see QueryStats::termination.
  QueryBudget budget;
};

/// Result of a (k-)nearest-neighbour query.
struct NearestNeighborResult {
  /// Up to k neighbours, best first (ties broken by ascending id).
  ///
  /// Tie caveat at the cutoff (found by fuzz/query_differential_fuzz): an
  /// entry is pruned as soon as its optimistic bound is <= the k-th best
  /// similarity, so a candidate *tied* with the k-th best may sit in a
  /// pruned bucket and never be evaluated. The similarity values are still
  /// exact, and every candidate strictly better than the k-th value is
  /// always included — but *which ids* represent the tie group at the k-th
  /// similarity is unspecified and may differ from a full scan (which
  /// resolves that group globally by ascending id). Callers that need
  /// scan-identical ids under ties must rank by (similarity, id), which the
  /// paper's bounds do not support.
  std::vector<Neighbor> neighbors;

  /// Visit-order per-entry decisions; empty unless
  /// SearchOptions::collect_trace was set.
  std::vector<EntryTrace> trace;

  /// Work counters and the paper-§4.2 certificate (`termination`,
  /// `is_exact`, `certificate_bound`).
  QueryStats stats;
};

/// Result of a range query.
struct RangeQueryResult {
  /// Qualifying transactions found (all when `stats.is_exact`), best first.
  std::vector<Neighbor> matches;

  /// Work counters and the certificate, under the k-NN rule with the
  /// threshold as the floor (QueryStats::is_exact).
  QueryStats stats;
};

/// Branch-and-bound similarity search over a signature table (paper §4).
///
/// The engine is stateless across queries and holds no ownership: the
/// database and table must outlive it. The similarity function is supplied
/// per query (as a SimilarityFamily, so target-dependent functions like
/// cosine bind to each target), which is the paper's headline flexibility:
/// one index, any admissible f(x, y).
///
/// Hot-path structure (see DESIGN.md "Query hot path"): entries are visited
/// in an order built by a stable counting sort over the query's few
/// distinct sort keys (core/entry_order.h), O(E + D log D) rather than a
/// full O(E log E) sort; per-query scratch lives in a caller-suppliable
/// QueryContext so repeated queries allocate nothing on the steady state;
/// and each scanned entry's rows are scored by the row scorer every query
/// path shares (core/row_scorer.h): the SIMD match kernel over a blocked
/// candidate layout instead of merge-scanning item vectors, into a bounded
/// top-k; range queries run the same scan with a fixed pessimistic bound
/// (Scan). All of it is bit-identical to the straightforward
/// sort-everything merge-scan implementation, which tests/reference_knn.h
/// keeps frozen as the oracle oracle_equivalence_test.cc pins this engine
/// against.
class BranchAndBoundEngine {
 public:
  /// `layout` is the blocked candidate bitmap the SIMD match kernel scans;
  /// null builds a private one from `database`. Pass a shared layout
  /// (SignatureTableEngine does) when several engines serve one database.
  /// A table is immutable once built or loaded, so the layout must cover
  /// every row it indexes (`layout->num_rows() >=
  /// table->num_indexed_transactions()`); that is checked here, once.
  ///
  /// `deleted` (a dyn part's delete marks, borrowed like the layout) makes
  /// the k-NN and range searches drop marked rows before scoring: a dead
  /// row never enters the top-k, so the pessimistic bound is the k-th best
  /// *live* row and the certificate keeps its meaning. Null (the static
  /// index) treats every row as live.
  BranchAndBoundEngine(const TransactionDatabase* database,
                       const SignatureTable* table,
                       const CandidateLayout* layout = nullptr,
                       const DeleteMask* deleted = nullptr);

  /// Finds the k transactions with the highest *average* similarity to
  /// `targets` under `family` (paper §4.3; one target is the plain k-NN
  /// search of §4). An entry's optimistic bound is the average of its
  /// per-target bounds, and the pessimistic bound is the k-th best found so
  /// far. Per-query scratch comes from `context` and the answer is written
  /// into `*result` (cleared first, capacity kept), so a warm (context,
  /// result) pair makes repeat queries allocate nothing at all — the steady
  /// state query_context_test pins under ScopedAllocationBan. `context` must
  /// not be shared between concurrent queries.
  ///
  /// `floor` says the caller already holds k rows at least this similar
  /// (a dyn fan-out passes the k-th best merged so far): entries are pruned
  /// against max(pessimistic, floor), so the search returns only rows that
  /// can still enter the caller's top k, and `stats.is_exact` certifies
  /// against that same max. The default -inf is the plain search.
  MBI_HOT void FindKNearestMultiTarget(
      std::span<const Transaction> targets, const SimilarityFamily& family,
      size_t k, const SearchOptions& options, QueryContext* context,
      NearestNeighborResult* result,
      double floor = -std::numeric_limits<double>::infinity()) const;

  /// Single-target k-NN: FindKNearestMultiTarget with n = 1.
  MBI_HOT void FindKNearest(
      const Transaction& target, const SimilarityFamily& family, size_t k,
      const SearchOptions& options, QueryContext* context,
      NearestNeighborResult* result,
      double floor = -std::numeric_limits<double>::infinity()) const {
    FindKNearestMultiTarget({&target, 1}, family, k, options, context, result,
                            floor);
  }

  /// Convenience form with a fresh context and result per call.
  NearestNeighborResult FindKNearest(const Transaction& target,
                                     const SimilarityFamily& family, size_t k,
                                     const SearchOptions& options = {}) const;

  /// Range query (paper §4.3): every transaction with f >= `threshold`.
  /// Entries whose optimistic bound is below the threshold are pruned; one
  /// bounded at exactly the threshold is scanned.
  RangeQueryResult FindInRange(const Transaction& target,
                               const SimilarityFamily& family,
                               double threshold,
                               const SearchOptions& options = {}) const;

  /// Conjunctive multi-function range query (paper §4.3): transactions
  /// satisfying f_i >= t_i for *all* i. An entry is pruned as soon as any
  /// one of its optimistic bounds misses its threshold. `families` and
  /// `thresholds` must be non-empty and the same length.
  RangeQueryResult FindInRangeMulti(
      const Transaction& target,
      const std::vector<const SimilarityFamily*>& families,
      const std::vector<double>& thresholds,
      const SearchOptions& options = {}) const;

  const TransactionDatabase& database() const { return *database_; }
  const SignatureTable& table() const { return *table_; }

  /// Exhaustively verifies Lemma 2.1 for `target`: for every signature table
  /// entry, the optimistic bound f(M', D') the search prunes with (the
  /// entry's count-summary bound, core/bounds.h) must dominate (be >= than)
  /// the actual similarity f(x, y) of *every* transaction indexed under that
  /// entry. This is the property that makes branch-and-bound pruning safe;
  /// a violation means the index could silently drop true nearest
  /// neighbours. Aborts (via MBI_CHECK) on the first violation. O(N · |T|);
  /// meant for tests and the CLI's --check_invariants debug flag.
  void CheckBoundDominance(const Transaction& target,
                           const SimilarityFamily& family) const;

 private:
  /// The one scan (paper §4) both query kinds run: bound pass, visit order,
  /// cursor loop with the budget poll, §4.2 certificate into `*stats`. Rows
  /// go through the context's RowScorer into `sink` (a TopKSink, or a range
  /// sink that is never full). An entry is pruned when its bound is at or
  /// below max(the full sink's worst row, `floor`) + gap, or when visited
  /// and `veto(entry_index)`, which does not raise the certificate.
  template <typename Sink, typename Veto>
  MBI_HOT void Scan(std::span<const Transaction> targets,
                    const SimilarityFamily& family,
                    const SearchOptions& options, double floor,
                    QueryContext* context, Sink& sink, Veto veto,
                    QueryStats* stats, std::vector<EntryTrace>* trace) const;

  /// Both range queries: Scan with the fixed floor just below τ_0.
  RangeQueryResult InRange(const Transaction& target,
                           std::span<const SimilarityFamily* const> families,
                           std::span<const double> thresholds,
                           const SearchOptions& options) const;

  /// The rows of one entry's candidate list not marked in `deleted_`, in
  /// order: a filtered copy into `*scratch`, which the returned span views.
  /// Only an engine with delete marks copies; a warm scratch allocates
  /// nothing.
  MBI_HOT std::span<const TransactionId> LiveIds(
      std::span<const TransactionId> ids,
      std::vector<TransactionId>* scratch) const;

  const TransactionDatabase* database_;
  const SignatureTable* table_;
  /// Set only when the engine built its own layout (shared_ptr keeps the
  /// engine copyable); layout_ always points at the layout in use.
  std::shared_ptr<const CandidateLayout> owned_layout_;
  const CandidateLayout* layout_;
  const DeleteMask* deleted_;
};

}  // namespace mbi

#endif  // MBI_CORE_BRANCH_AND_BOUND_H_
