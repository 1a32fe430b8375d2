#ifndef MBI_CORE_BATCH_QUERY_H_
#define MBI_CORE_BATCH_QUERY_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <latch>
#include <optional>
#include <vector>

#include "core/branch_and_bound.h"
#include "core/query_context.h"
#include "util/thread_pool.h"

namespace mbi {

/// Reusable scratch for FindKNearestBatch: the per-shard QueryContexts.
/// A caller running batches in a loop (benchmarks, a serving loop) keeps
/// one workspace per concurrent batch; warm contexts make the single-shard
/// steady state allocation-free (see the result-out overload below).
/// A deque because QueryContext is pinned (non-copyable, non-movable):
/// growing for a larger batch never relocates the warm contexts.
struct BatchQueryWorkspace {
  std::deque<QueryContext> contexts;
};

/// The batch shard policy, shared by every batch entry point: with `pool`,
/// its worker count, capped by `num_threads` when that is non-zero; without
/// one, `num_threads` (0 = hardware concurrency); never more shards than
/// `count`.
size_t BatchShardCount(size_t count, size_t num_threads,
                       const ThreadPool* pool);

/// Runs `query(context, i)` for every i in [0, count) over
/// BatchShardCount(count, num_threads, pool) shards, each with its own
/// context from `*contexts` (grown as needed; a deque, so growth never
/// moves a warm context). One shard runs the serial loop on the calling
/// thread and allocates nothing once `*contexts` is warm. More shards run on
/// `pool`, or on a call-local pool of that many workers when `pool` is null,
/// and claim indices off a shared cursor so uneven query costs balance
/// dynamically. `query` must write only state owned by index i, so the
/// outcome is identical to the serial loop for any shard count. A std::latch
/// (rather than ThreadPool::Wait) scopes the wait to this call's own tasks,
/// so a pool shared between concurrent batches works.
template <typename Context, typename Query>
void RunSharded(size_t count, size_t num_threads, ThreadPool* pool,
                std::deque<Context>* contexts, const Query& query) {
  if (count == 0) return;
  const size_t shards = BatchShardCount(count, num_threads, pool);
  while (contexts->size() < shards) contexts->emplace_back();
  if (shards == 1) {
    Context& context = contexts->front();
    for (size_t i = 0; i < count; ++i) query(context, i);
    return;
  }
  std::optional<ThreadPool> owned_pool;
  if (pool == nullptr) {
    owned_pool.emplace(shards);
    pool = &*owned_pool;
  }
  // No mutex here by design (and none to annotate): every index is claimed
  // once off the atomic cursor, per-shard contexts are never shared, and the
  // latch supplies the final happens-before edge back to this thread.
  std::atomic<size_t> cursor{0};
  std::latch done(static_cast<std::ptrdiff_t>(shards));
  for (size_t shard = 0; shard < shards; ++shard) {
    pool->Submit([&, shard] {
      Context& context = (*contexts)[shard];
      for (;;) {
        const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) break;
        query(context, i);
      }
      done.count_down();
    });
  }
  done.wait();
}

/// Answers many independent k-NN queries against one engine concurrently.
///
/// Queries against a built SignatureTable are read-only (the engine keeps no
/// per-query state and the simulated disk reads are const), so a batch can
/// fan out across a thread pool without any locking. Results are returned in
/// target order and are identical to running each query alone.
///
/// Each worker shard reuses one QueryContext across all the queries it
/// answers, so the steady state of a large batch allocates only the result
/// vectors.
///
/// Threading: when `pool` is non-null the batch runs on that caller-owned
/// pool — construct it once and pass it to every call; nothing is spawned
/// per batch. `num_threads` then only caps the shard count (0 = use every
/// pool worker). When `pool` is null a temporary pool of `num_threads`
/// workers (0 = hardware concurrency) is created for the call. A shared pool
/// may serve concurrent batches; each call returns when its own queries are
/// done.
std::vector<NearestNeighborResult> FindKNearestBatch(
    const BranchAndBoundEngine& engine,
    const std::vector<Transaction>& targets, const SimilarityFamily& family,
    size_t k, const SearchOptions& options = {}, size_t num_threads = 0,
    ThreadPool* pool = nullptr);

/// Fully reusable variant: shard contexts come from `workspace` and results
/// are written into `*results` (resized to targets.size(); element capacity
/// kept). Identical output to the returning overload. With one shard —
/// `num_threads == 1`, or a single target — a warm (workspace, results)
/// pair answers the whole batch without allocating (the steady state
/// query_context_test pins under ScopedAllocationBan). Multi-shard batches
/// still allocate the per-shard task closures they submit to the pool.
void FindKNearestBatch(const BranchAndBoundEngine& engine,
                       const std::vector<Transaction>& targets,
                       const SimilarityFamily& family, size_t k,
                       const SearchOptions& options, size_t num_threads,
                       ThreadPool* pool, BatchQueryWorkspace* workspace,
                       std::vector<NearestNeighborResult>* results);

/// Folds a batch's per-target stats into one QueryStats under the shared
/// MergeQueryStats rules — certificate_bound as max, is_exact as AND,
/// termination as most-severe, counters as sums — except `database_size`,
/// which stays the per-query maximum: every batch entry queried the same
/// database, so summing (the rule for *partitioned* components) would
/// inflate it by the batch size. Callers reporting batch-level quality
/// (CLI, benchmarks) must use this instead of improvising: last-writer or
/// summed certificates are unsound.
QueryStats AggregateBatchStats(const std::vector<NearestNeighborResult>& results);

}  // namespace mbi

#endif  // MBI_CORE_BATCH_QUERY_H_
