#ifndef MBI_CORE_QUERY_CONTEXT_H_
#define MBI_CORE_QUERY_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/bounds.h"
#include "core/branch_and_bound.h"
#include "core/entry_order.h"
#include "core/row_scorer.h"
#include "util/thread_pool.h"

namespace mbi {

/// Reusable per-query workspace for BranchAndBoundEngine.
///
/// The engine itself is stateless and read-only; everything a query needs at
/// runtime — bound-calculator tables, the entry visit order and its
/// counting-sort scratch, the live-id scratch buffer, the k-nearest
/// heap, the row scorer with its packed target bitmaps — lives here. A caller that answers many
/// queries (batch mode, benchmarks, the `mbi query` CLI loop) constructs one
/// context and passes it to every call, together with a result object the
/// engine refills in place. After the first few queries have grown the
/// buffers, a warm (context, result) pair makes the whole query
/// allocation-free, which query_context_test enforces at runtime with
/// ScopedAllocationBan and mbi-lint enforces statically via the MBI_HOT
/// rules (util/hot_path.h).
/// Per-target similarity bindings reuse warm function objects through
/// SimilarityFamily::RebindTarget.
///
/// A context carries no semantic state between queries: every buffer is
/// rebound or cleared at query entry, so results are bit-identical to using
/// a fresh context (query_context_test.cc asserts this, including across
/// changes of target, k, similarity family, and sort order).
///
/// Not thread-safe: one context per concurrent query. FindKNearestBatch
/// keeps one per worker shard.
class QueryContext {
 public:
  QueryContext() = default;

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// Optional caller-owned pool for parallel per-entry bound computation on
  /// large directories (deterministic chunking: identical bounds regardless
  /// of thread count). The pool must not be the pool executing the query
  /// itself — a worker waiting on its own pool deadlocks — so batch mode
  /// leaves this unset on its per-shard contexts.
  void set_bound_pool(ThreadPool* pool) { bound_pool_ = pool; }
  ThreadPool* bound_pool() const { return bound_pool_; }

  /// Directory size at which bound computation fans out to bound_pool();
  /// below it the fork/join overhead beats the O(entries · K) loop.
  /// Tunable mostly so tests can force the parallel path on small tables.
  void set_parallel_bound_min_entries(size_t n) {
    parallel_bound_min_entries_ = n;
  }
  size_t parallel_bound_min_entries() const {
    return parallel_bound_min_entries_;
  }

  /// Entries per chunk when bounds are computed in parallel. Chunks map to
  /// disjoint output slots, so the values are deterministic by construction.
  void set_parallel_bound_chunk(size_t n) { parallel_bound_chunk_ = n; }
  size_t parallel_bound_chunk() const { return parallel_bound_chunk_; }

  static constexpr size_t kDefaultParallelBoundMinEntries = 4096;
  static constexpr size_t kDefaultParallelBoundChunk = 1024;

  /// Session-wide budget default: merged tightest-wins with
  /// SearchOptions::budget on every query through this context. The
  /// admission controller uses this to tighten deadlines on queued batches
  /// without touching each caller's options.
  void set_budget(const QueryBudget& budget) { budget_ = budget; }
  const QueryBudget& budget() const { return budget_; }

 private:
  friend class BranchAndBoundEngine;

  // --- Per-target bindings (rebound at query entry). ---
  // The similarity functions, packed targets and match scratch the entries'
  // rows are scored with (core/row_scorer.h).
  RowScorer scorer_;
  std::vector<BoundCalculator> calculators_;
  std::vector<int> counts_scratch_;  // r_j scratch for calculator rebinding.

  // --- Entry ordering (counting sort over cells or keys, core/entry_order.h).
  std::vector<uint32_t> entry_order_;  // Entry indices in visit order.
  // One target under the bound order reads each entry's bound from its cell
  // here (EntryOrderScratch::Key).
  EntryOrderScratch order_scratch_;
  // Optimistic bound per entry index, filled only where it is not read from
  // a cell: several targets (the mean), or the alternative order.
  std::vector<double> entry_bounds_;
  std::vector<double> order_keys_;  // Sort keys for the alternative order.
  // SIMD bounds-kernel output, t-major: slot t * num_entries + i holds
  // target t's M_opt / D_opt for entry i. Parallel bound chunks write
  // disjoint column ranges of every row, so no synchronization is needed.
  std::vector<int32_t> bound_match_;
  std::vector<int32_t> bound_dist_;

  // --- Candidate evaluation scratch. ---
  // One entry's live ids, filled only by an engine bound to a DeleteMask;
  // otherwise the engine scores the table's own span.
  std::vector<TransactionId> candidate_ids_;
  std::vector<Neighbor> knn_heap_;

  ThreadPool* bound_pool_ = nullptr;
  size_t parallel_bound_min_entries_ = kDefaultParallelBoundMinEntries;
  size_t parallel_bound_chunk_ = kDefaultParallelBoundChunk;
  QueryBudget budget_;
};

}  // namespace mbi

#endif  // MBI_CORE_QUERY_CONTEXT_H_
