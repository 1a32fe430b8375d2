#ifndef MBI_CORE_BRANCH_AND_BOUND_H_
#define MBI_CORE_BRANCH_AND_BOUND_H_

#include <cstdint>
#include <memory>
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
  /// units). 0 keeps the search exact.
  double optimality_gap = 0.0;

  EntrySortOrder sort_order = EntrySortOrder::kOptimisticBound;

  /// Record a per-entry EntryTrace in the result (visit order). Adds memory
  /// and time proportional to the number of occupied entries; off by
  /// default.
  bool collect_trace = false;

  /// Cooperative overload budget (deadline / entry cap / cancellation),
  /// checked at entry granularity. Merged tightest-wins with any budget
  /// pinned on the QueryContext. Default-constructed = unlimited. On expiry
  /// the query returns a certified degraded answer (never crashes, never
  /// returns an inconsistent certificate); see QueryStats::termination.
  /// The frozen *Reference paths ignore it by design.
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

  /// True when the result is provably exact (in similarity values): no
  /// entry that was pruned or left unexplored could hold a transaction
  /// more similar than the k-th best found. Always true for a completed
  /// search with optimality_gap = 0; for early-terminated or gap-pruned
  /// searches it reports whether the a-posteriori certificate held
  /// (paper §4.2).
  bool guaranteed_exact = false;

  /// Largest optimistic bound among entries left unexplored at termination;
  /// -infinity when none were left. Together with the k-th best similarity
  /// this is the paper's a-posteriori quality guarantee.
  double unexplored_optimistic_bound = 0.0;

  /// Upper bound on the similarity of any transaction the search did *not*
  /// evaluate (the max optimistic bound over pruned and unexplored entries);
  /// -infinity when every entry was scanned. The true k-th best similarity
  /// is at most max(k-th best found, this bound).
  double best_unscanned_bound = 0.0;

  /// Visit-order per-entry decisions; empty unless
  /// SearchOptions::collect_trace was set.
  std::vector<EntryTrace> trace;

  QueryStats stats;
};

/// Result of a range query.
struct RangeQueryResult {
  /// All qualifying transactions, best first.
  std::vector<Neighbor> matches;

  /// False when early termination may have cut the enumeration short.
  bool guaranteed_complete = false;

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
/// through a lazy max-heap keyed by the sort order, so only the prefix of
/// the visit order a query actually consumes is materialized; per-query
/// scratch lives in a caller-suppliable QueryContext so repeated queries
/// allocate nothing on the steady state; and candidate evaluation probes a
/// word-packed target bitmap instead of merge-scanning item vectors. All of
/// it is bit-identical to the straightforward sort-everything merge-scan
/// implementation, which is retained as FindKNearest*Reference and pinned by
/// oracle_equivalence_test.cc.
class BranchAndBoundEngine {
 public:
  /// `layout` is the blocked candidate bitmap the SIMD match kernel scans;
  /// null builds a private one from `database`. Pass a shared layout
  /// (SignatureTableEngine does) when several engines serve one database.
  /// The layout is a snapshot: queries issued after the database grows past
  /// `layout->num_rows()` automatically fall back to the per-candidate
  /// probe path (bit-identical, just slower) until a fresh layout is bound.
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

  /// Finds the single nearest neighbour of `target` under `family`.
  NearestNeighborResult FindNearest(const Transaction& target,
                                    const SimilarityFamily& family,
                                    const SearchOptions& options = {}) const;

  /// Finds the k most similar transactions (paper §4.3: the pessimistic
  /// bound is the k-th best similarity found so far).
  NearestNeighborResult FindKNearest(const Transaction& target,
                                     const SimilarityFamily& family, size_t k,
                                     const SearchOptions& options = {}) const;

  /// Context-reusing variant: identical results, but all per-query scratch
  /// comes from `context`, so a caller issuing many queries through one
  /// context reaches a zero-allocation steady state. `context` must not be
  /// shared between concurrent queries.
  NearestNeighborResult FindKNearest(const Transaction& target,
                                     const SimilarityFamily& family, size_t k,
                                     const SearchOptions& options,
                                     QueryContext* context) const;

  /// Fully reusable variant: scratch comes from `context` AND the output is
  /// written into `*result` (cleared first, capacity kept), so a warm
  /// (context, result) pair makes repeat queries allocate nothing at all —
  /// the steady state query_context_test pins under ScopedAllocationBan.
  MBI_HOT void FindKNearest(const Transaction& target,
                            const SimilarityFamily& family, size_t k,
                            const SearchOptions& options,
                            QueryContext* context,
                            NearestNeighborResult* result) const;

  /// Multi-target variant (paper §4.3): maximizes the *average* similarity
  /// to `targets`; an entry's optimistic bound is the average of its
  /// per-target optimistic bounds.
  NearestNeighborResult FindKNearestMultiTarget(
      const std::vector<Transaction>& targets, const SimilarityFamily& family,
      size_t k, const SearchOptions& options = {}) const;

  /// Context-reusing multi-target variant.
  NearestNeighborResult FindKNearestMultiTarget(
      const std::vector<Transaction>& targets, const SimilarityFamily& family,
      size_t k, const SearchOptions& options, QueryContext* context) const;

  /// Fully reusable multi-target variant (see the result-out FindKNearest).
  MBI_HOT void FindKNearestMultiTarget(const std::vector<Transaction>& targets,
                                       const SimilarityFamily& family,
                                       size_t k, const SearchOptions& options,
                                       QueryContext* context,
                                       NearestNeighborResult* result) const;

  /// Frozen pre-overhaul implementation: full std::sort of all occupied
  /// entries, fresh allocations per query, merge-scan MatchAndHamming.
  /// Kept as the semantic reference — oracle_equivalence_test.cc asserts the
  /// overhauled path returns bit-identical results, and bench/perf_smoke.cc
  /// uses it as the "before" measurement. Do not optimize.
  NearestNeighborResult FindKNearestReference(
      const Transaction& target, const SimilarityFamily& family, size_t k,
      const SearchOptions& options = {}) const;

  /// Frozen pre-overhaul multi-target implementation (see
  /// FindKNearestReference).
  NearestNeighborResult FindKNearestMultiTargetReference(
      const std::vector<Transaction>& targets, const SimilarityFamily& family,
      size_t k, const SearchOptions& options = {}) const;

  /// Range query (paper §4.3): every transaction with f >= `threshold`.
  /// Entries whose optimistic bound is below the threshold are pruned.
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
  /// entry, the optimistic bound f(M_opt, D_opt) must dominate (be >= than)
  /// the actual similarity f(x, y) of *every* transaction indexed under that
  /// entry. This is the property that makes branch-and-bound pruning safe;
  /// a violation means the index could silently drop true nearest
  /// neighbours. Aborts (via MBI_CHECK) on the first violation. O(N · |T|);
  /// meant for tests and the CLI's --check_invariants debug flag.
  void CheckBoundDominance(const Transaction& target,
                           const SimilarityFamily& family) const;

 private:
  /// Shared implementation of the k-NN variants. `targets` is a borrowed
  /// span (pointer + count) so the single-target entry point doesn't have to
  /// materialize a one-element vector per call. `*result` is cleared
  /// (keeping capacity) and filled; with a warm context and result this is
  /// allocation-free in steady state (the MBI_HOT contract, util/hot_path.h).
  MBI_HOT void RunKNearest(const Transaction* targets, size_t num_targets,
                           const SimilarityFamily& family, size_t k,
                           const SearchOptions& options, QueryContext* context,
                           NearestNeighborResult* result) const;

  /// Removes rows marked in `deleted_` from one entry's candidate list, in
  /// place (order kept, no allocation).
  MBI_HOT void DropDeleted(std::vector<TransactionId>* ids) const;

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
