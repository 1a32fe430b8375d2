#include "core/branch_and_bound.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <numeric>

#include "core/bounds.h"
#include "core/query_context.h"
#include "txn/packed_target.h"
#include "util/macros.h"

namespace mbi {
namespace {

constexpr double kNegInfinity = -std::numeric_limits<double>::infinity();

/// Strict ordering "a is a better result than b". Used as the `<` of a
/// std::*_heap, it puts the *worst* kept candidate at the heap front (the
/// heap max is the least-better element), which is exactly the pessimistic
/// bound. Ties on similarity rank smaller ids as better, so the evicted
/// element among ties is the largest id — deterministic output.
struct BetterThan {
  bool operator()(const Neighbor& a, const Neighbor& b) const {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.id < b.id;
  }
};

/// Bookkeeping used by the frozen reference implementation.
struct EntryOrder {
  std::vector<uint32_t> indices;  // Entry indices in visit order.
  std::vector<double> optimistic;  // Optimistic bound per entry index.
};

/// Transactions-evaluated budget implied by the early-termination fraction.
uint64_t AccessBudget(double fraction, uint64_t database_size) {
  MBI_CHECK_MSG(fraction > 0.0 && fraction <= 1.0,
                "max_access_fraction must be in (0, 1]");
  if (fraction >= 1.0) return database_size;
  return static_cast<uint64_t>(
      std::ceil(fraction * static_cast<double>(database_size)));
}

}  // namespace

BranchAndBoundEngine::BranchAndBoundEngine(const TransactionDatabase* database,
                                           const SignatureTable* table,
                                           const CandidateLayout* layout,
                                           const DeleteMask* deleted)
    : database_(database), table_(table), layout_(layout), deleted_(deleted) {
  MBI_CHECK(database != nullptr && table != nullptr);
  MBI_CHECK(database->universe_size() == table->partition().universe_size());
  if (layout_ == nullptr) {
    owned_layout_ =
        std::make_shared<const CandidateLayout>(CandidateLayout::Build(*database));
    layout_ = owned_layout_.get();
  }
}

NearestNeighborResult BranchAndBoundEngine::FindNearest(
    const Transaction& target, const SimilarityFamily& family,
    const SearchOptions& options) const {
  return FindKNearest(target, family, /*k=*/1, options);
}

NearestNeighborResult BranchAndBoundEngine::FindKNearest(
    const Transaction& target, const SimilarityFamily& family, size_t k,
    const SearchOptions& options) const {
  QueryContext context;
  NearestNeighborResult result;
  RunKNearest(&target, 1, family, k, options, &context, &result);
  return result;
}

NearestNeighborResult BranchAndBoundEngine::FindKNearest(
    const Transaction& target, const SimilarityFamily& family, size_t k,
    const SearchOptions& options, QueryContext* context) const {
  NearestNeighborResult result;
  RunKNearest(&target, 1, family, k, options, context, &result);
  return result;
}

MBI_HOT void BranchAndBoundEngine::FindKNearest(
    const Transaction& target, const SimilarityFamily& family, size_t k,
    const SearchOptions& options, QueryContext* context,
    NearestNeighborResult* result) const {
  RunKNearest(&target, 1, family, k, options, context, result);
}

NearestNeighborResult BranchAndBoundEngine::FindKNearestMultiTarget(
    const std::vector<Transaction>& targets, const SimilarityFamily& family,
    size_t k, const SearchOptions& options) const {
  QueryContext context;
  NearestNeighborResult result;
  RunKNearest(targets.data(), targets.size(), family, k, options, &context,
              &result);
  return result;
}

NearestNeighborResult BranchAndBoundEngine::FindKNearestMultiTarget(
    const std::vector<Transaction>& targets, const SimilarityFamily& family,
    size_t k, const SearchOptions& options, QueryContext* context) const {
  NearestNeighborResult result;
  RunKNearest(targets.data(), targets.size(), family, k, options, context,
              &result);
  return result;
}

MBI_HOT void BranchAndBoundEngine::FindKNearestMultiTarget(
    const std::vector<Transaction>& targets, const SimilarityFamily& family,
    size_t k, const SearchOptions& options, QueryContext* context,
    NearestNeighborResult* result) const {
  RunKNearest(targets.data(), targets.size(), family, k, options, context,
              result);
}

MBI_HOT void BranchAndBoundEngine::RunKNearest(
    const Transaction* targets, size_t num_targets,
    const SimilarityFamily& family, size_t k, const SearchOptions& options,
    QueryContext* context, NearestNeighborResult* result_out) const {
  MBI_CHECK(context != nullptr);
  MBI_CHECK(result_out != nullptr);
  MBI_CHECK(num_targets >= 1);
  MBI_CHECK(k >= 1);
  MBI_CHECK_MSG(options.optimality_gap >= 0.0,
                "optimality_gap must be non-negative");
  QueryContext& ctx = *context;

  // Reset the output in place: capacity survives, so a warm result object
  // costs nothing to refill.
  NearestNeighborResult& result = *result_out;
  result.neighbors.clear();
  result.trace.clear();
  result.stats = QueryStats{};
  result.guaranteed_exact = false;
  result.unexplored_optimistic_bound = 0.0;
  result.best_unscanned_bound = 0.0;

  // Bind the similarity function, bound calculator, and packed bitmap to
  // each target, reusing the context's buffers. RebindTarget re-targets a
  // warm function object in place (built-in families), so with a warm
  // context this loop allocates nothing; slots beyond num_targets keep
  // their bindings but never participate (all loops run to num_targets).
  if (ctx.functions_.size() < num_targets) {
    ctx.functions_.resize(num_targets);
  }
  if (ctx.calculators_.size() < num_targets) {
    ctx.calculators_.resize(num_targets);
  }
  if (ctx.packed_targets_.size() < num_targets) {
    ctx.packed_targets_.resize(num_targets);
  }
  // The blocked layout only serves ids it covers; transactions appended
  // after its build take the legacy probe path (checked once per query so
  // a dynamic insert mid-stream can never read past the layout).
  const bool use_layout =
      layout_ != nullptr && layout_->num_rows() >= database_->size();
  for (size_t t = 0; t < num_targets; ++t) {
    family.RebindTarget(targets[t], &ctx.functions_[t]);
    table_->partition().CountsPerSignature(targets[t], &ctx.counts_scratch_);
    ctx.calculators_[t].Reset(ctx.counts_scratch_,
                              table_->activation_threshold());
    ctx.packed_targets_[t].Assign(targets[t], database_->universe_size(),
                                  use_layout ? layout_ : nullptr);
  }
  const double target_count = static_cast<double>(num_targets);

  // FindOptimisticBound for every occupied entry: the average over targets
  // of f_t(M_opt, D_opt) (paper §4.3 for the multi-target case; with a single
  // target this is exactly Figure 3's FindOptimisticBound). The M/D bounds
  // for a chunk come from the SIMD bounds kernel over the table's dense
  // coordinate array, one target at a time (t-major scratch, so chunks touch
  // disjoint slices). Chunks write disjoint slots of the output array, so
  // the parallel fan-out is deterministic: identical bounds for any thread
  // count — and the per-candidate sum accumulates targets in ascending t
  // exactly as before, keeping the doubles bit-identical.
  const auto& entries = table_->entries();
  const Supercoordinate* coords = table_->coordinates().data();
  const size_t num_entries = entries.size();
  ctx.optimistic_.resize(num_entries);
  ctx.bound_match_.resize(num_targets * num_entries);
  ctx.bound_dist_.resize(num_targets * num_entries);
  auto compute_bounds = [&](size_t begin, size_t end) {
    for (size_t t = 0; t < num_targets; ++t) {
      const size_t base = t * num_entries;
      ctx.calculators_[t].ComputeBatch(coords + begin, end - begin,
                                       ctx.bound_match_.data() + base + begin,
                                       ctx.bound_dist_.data() + base + begin);
    }
    for (size_t i = begin; i < end; ++i) {
      double sum = 0.0;
      for (size_t t = 0; t < num_targets; ++t) {
        const size_t base = t * num_entries;
        sum += ctx.functions_[t]->Evaluate(ctx.bound_match_[base + i],
                                           ctx.bound_dist_[base + i]);
      }
      ctx.optimistic_[i] = sum / target_count;
    }
  };
  if (ctx.bound_pool_ != nullptr &&
      num_entries >= ctx.parallel_bound_min_entries_) {
    const size_t chunk = std::max<size_t>(1, ctx.parallel_bound_chunk_);
    const size_t num_chunks = (num_entries + chunk - 1) / chunk;
    ctx.bound_pool_->ParallelFor(
        num_chunks,
        [&](size_t c) {
          compute_bounds(c * chunk, std::min(num_entries, (c + 1) * chunk));
        },
        /*chunk=*/1);
  } else {
    compute_bounds(0, num_entries);
  }

  // Visit-order keys (paper §4): either the optimistic bounds themselves or
  // the similarity between supercoordinates; pruning always uses the bounds.
  if (options.sort_order == EntrySortOrder::kSupercoordinateSimilarity) {
    ctx.order_keys_.resize(num_entries);
    // Use the first target's supercoordinate and function as the ranking key.
    table_->partition().CountsPerSignature(targets[0], &ctx.counts_scratch_);
    Supercoordinate target_coordinate = SupercoordinateFromCounts(
        ctx.counts_scratch_, table_->activation_threshold());
    for (size_t i = 0; i < num_entries; ++i) {
      int match = 0, hamming = 0;
      SupercoordinateMatchAndHamming(entries[i].coordinate, target_coordinate,
                                     &match, &hamming);
      ctx.order_keys_[i] = ctx.functions_[0]->Evaluate(match, hamming);
    }
  }
  const std::vector<double>& keys =
      options.sort_order == EntrySortOrder::kOptimisticBound ? ctx.optimistic_
                                                             : ctx.order_keys_;

  // Lazy entry ordering: a max-heap over entry indices replaces the full
  // sort. The comparator is a total order (key, then index), so the pop
  // sequence is exactly the fully-sorted visit order — but a query that
  // prunes or terminates after m pops pays O(n + m log n) instead of
  // O(n log n).
  auto visit_after = [&keys](uint32_t a, uint32_t b) {
    if (keys[a] != keys[b]) return keys[a] < keys[b];
    return a > b;
  };
  std::vector<uint32_t>& order_heap = ctx.entry_heap_;
  order_heap.resize(num_entries);
  std::iota(order_heap.begin(), order_heap.end(), 0u);
  std::make_heap(order_heap.begin(), order_heap.end(), visit_after);
  size_t remaining = num_entries;
  auto pop_next = [&]() {
    std::pop_heap(order_heap.begin(),
                  order_heap.begin() + static_cast<ptrdiff_t>(remaining),
                  visit_after);
    return order_heap[--remaining];
  };

  result.stats.database_size = database_->size();
  result.stats.entries_total = num_entries;
  const uint64_t budget =
      AccessBudget(options.max_access_fraction, database_->size());
  // Overload budget (tightest-wins between the per-call options and the
  // context's session default). `limited` is hoisted so the unlimited case
  // pays one branch per entry and zero clock reads.
  const QueryBudget qbudget =
      QueryBudget::Tightest(options.budget, ctx.budget_);
  const bool budget_limited = qbudget.limited();

  // Min-heap of the k best candidates; front is the pessimistic bound once
  // the heap is full.
  std::vector<Neighbor>& knn_heap = ctx.knn_heap_;
  knn_heap.clear();
  auto pessimistic = [&]() {
    return knn_heap.size() == k ? knn_heap.front().similarity : kNegInfinity;
  };
  auto finish_candidate = [&](TransactionId id, double similarity) {
    ++result.stats.transactions_evaluated;
    Neighbor incoming{id, similarity};
    if (knn_heap.size() < k) {
      knn_heap.push_back(incoming);
      std::push_heap(knn_heap.begin(), knn_heap.end(), BetterThan());
    } else if (BetterThan()(incoming, knn_heap.front())) {
      std::pop_heap(knn_heap.begin(), knn_heap.end(), BetterThan());
      knn_heap.back() = incoming;
      std::push_heap(knn_heap.begin(), knn_heap.end(), BetterThan());
    }
  };
  auto evaluate_candidate = [&](TransactionId id) {
    const Transaction& candidate = database_->Get(id);
    double sum = 0.0;
    for (size_t t = 0; t < num_targets; ++t) {
      size_t match = 0, hamming = 0;
      // Packed probe kernel; bit-identical to the merge-scan MatchAndHamming.
      ctx.packed_targets_[t].MatchAndHamming(candidate, &match, &hamming);
      sum += ctx.functions_[t]->Evaluate(static_cast<int>(match),
                                         static_cast<int>(hamming));
    }
    // Divide (not multiply by a reciprocal) so the value is bit-identical to
    // an oracle computing sum / n — ties then compare exactly.
    finish_candidate(id, sum / target_count);
  };
  // Batched evaluation of one entry's candidate list through the SIMD
  // match kernel. Same integer x/y per candidate, same ascending-t
  // accumulation, same division, same heap-update order as
  // evaluate_candidate — bit-identical results, proven at the engine level
  // by kernel_test.cc's forced-ISA sweep against FindKNearestReference.
  auto evaluate_candidates_batch = [&](const TransactionId* ids, size_t n) {
    if (ctx.match_scratch_.size() < n) {
      ctx.match_scratch_.resize(n);
      ctx.hamming_scratch_.resize(n);
    }
    if (ctx.score_scratch_.size() < n) ctx.score_scratch_.resize(n);
    std::fill_n(ctx.score_scratch_.begin(), n, 0.0);
    for (size_t t = 0; t < num_targets; ++t) {
      ctx.packed_targets_[t].MatchAndHammingBatch(
          ids, n, ctx.match_scratch_.data(), ctx.hamming_scratch_.data());
      for (size_t i = 0; i < n; ++i) {
        ctx.score_scratch_[i] += ctx.functions_[t]->Evaluate(
            static_cast<int>(ctx.match_scratch_[i]),
            static_cast<int>(ctx.hamming_scratch_[i]));
      }
    }
    for (size_t i = 0; i < n; ++i) {
      finish_candidate(ids[i], ctx.score_scratch_[i] / target_count);
    }
  };

  auto record_trace = [&](uint32_t entry_index, EntryTrace::Action action) {
    if (!options.collect_trace) return;
    EntryTrace entry_trace;
    entry_trace.coordinate = entries[entry_index].coordinate;
    entry_trace.optimistic_bound = ctx.optimistic_[entry_index];
    entry_trace.transaction_count = entries[entry_index].transaction_count;
    entry_trace.action = action;
    entry_trace.pessimistic_bound = pessimistic();
    result.trace.push_back(entry_trace);
  };

  bool terminated_early = false;
  QueryTermination termination = QueryTermination::kCompleted;
  double max_pruned_bound = kNegInfinity;
  while (remaining > 0) {
    // Cooperative budget check, entry granularity. Guarded on at least one
    // scanned entry so a degraded answer always carries at least one real
    // candidate (an already-expired deadline still returns the best of the
    // top-ranked entry, never an empty neighbor list); the first pop can
    // never prune (the k-heap cannot be full before the first scan), so
    // entries_scanned > 0 always holds from the second iteration on.
    if (budget_limited && result.stats.entries_scanned > 0) {
      if (qbudget.cancelled()) {
        terminated_early = true;
        termination = QueryTermination::kCancelled;
        break;
      }
      if (result.stats.entries_scanned >= qbudget.max_entries) {
        terminated_early = true;
        termination = QueryTermination::kEntryBudget;
        break;
      }
      if (qbudget.deadline_expired()) {
        terminated_early = true;
        termination = QueryTermination::kDeadline;
        break;
      }
    }
    uint32_t entry_index = pop_next();
    double optimistic = ctx.optimistic_[entry_index];
    if (knn_heap.size() == k &&
        optimistic <= pessimistic() + options.optimality_gap) {
      max_pruned_bound = std::max(max_pruned_bound, optimistic);
      record_trace(entry_index, EntryTrace::Action::kPruned);
      if (options.sort_order == EntrySortOrder::kOptimisticBound) {
        // Entries are visited in decreasing optimistic bound, so everything
        // still in the heap is prunable too; it only has to be popped when a
        // trace wants the per-entry records in visit order.
        result.stats.entries_pruned += remaining + 1;
        if (options.collect_trace) {
          while (remaining > 0) {
            record_trace(pop_next(), EntryTrace::Action::kPruned);
          }
        }
        remaining = 0;
        break;
      }
      ++result.stats.entries_pruned;
      continue;
    }
    record_trace(entry_index, EntryTrace::Action::kScanned);
    table_->FetchEntryTransactions(entry_index, &result.stats.io,
                                   &ctx.candidate_ids_);
    ++result.stats.entries_scanned;
    if (deleted_ != nullptr) DropDeleted(&ctx.candidate_ids_);
    if (use_layout) {
      evaluate_candidates_batch(ctx.candidate_ids_.data(),
                                ctx.candidate_ids_.size());
    } else {
      for (TransactionId id : ctx.candidate_ids_) evaluate_candidate(id);
    }
    if (result.stats.transactions_evaluated >= budget && remaining > 0) {
      terminated_early = true;
      termination = QueryTermination::kAccessFraction;
      break;
    }
  }

  // Early-termination certificate (paper §4.2): the best similarity any
  // unexplored entry could still hold. Without a trace the max is computed
  // directly over the heap's remaining elements (order is irrelevant for a
  // max); with a trace the entries are popped so the records appear in visit
  // order, exactly as a full sort would have produced them.
  double unexplored_bound = kNegInfinity;
  if (terminated_early) {
    result.stats.entries_unexplored = remaining;
    if (options.collect_trace) {
      while (remaining > 0) {
        uint32_t entry_index = pop_next();
        unexplored_bound =
            std::max(unexplored_bound, ctx.optimistic_[entry_index]);
        record_trace(entry_index, EntryTrace::Action::kUnexplored);
      }
    } else {
      for (size_t i = 0; i < remaining; ++i) {
        unexplored_bound =
            std::max(unexplored_bound, ctx.optimistic_[order_heap[i]]);
      }
    }
  }
  result.unexplored_optimistic_bound = unexplored_bound;
  result.best_unscanned_bound = std::max(max_pruned_bound, unexplored_bound);
  // Exact iff nothing left unscanned could beat the k-th best found. While
  // the heap holds fewer than k rows nothing can have been pruned, so the
  // test then passes only when every entry was scanned — which is exactly
  // right when fewer than k rows are live.
  result.guaranteed_exact = result.best_unscanned_bound <= pessimistic();
  // Paper-§4 quality certificate, duplicated into the stats so it survives
  // paths that only propagate QueryStats (metrics, the quarantine fallback).
  result.stats.termination = termination;
  result.stats.is_exact = result.guaranteed_exact;
  result.stats.certificate_bound = result.best_unscanned_bound;

  std::sort(knn_heap.begin(), knn_heap.end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.id < b.id;
            });
  result.neighbors.assign(knn_heap.begin(), knn_heap.end());
}

MBI_HOT void BranchAndBoundEngine::DropDeleted(
    std::vector<TransactionId>* ids) const {
  size_t kept = 0;
  for (const TransactionId id : *ids) {
    if (!deleted_->IsMarked(id)) (*ids)[kept++] = id;
  }
  ids->erase(ids->begin() + static_cast<ptrdiff_t>(kept), ids->end());
}

NearestNeighborResult BranchAndBoundEngine::FindKNearestReference(
    const Transaction& target, const SimilarityFamily& family, size_t k,
    const SearchOptions& options) const {
  return FindKNearestMultiTargetReference({target}, family, k, options);
}

NearestNeighborResult BranchAndBoundEngine::FindKNearestMultiTargetReference(
    const std::vector<Transaction>& targets, const SimilarityFamily& family,
    size_t k, const SearchOptions& options) const {
  MBI_CHECK(!targets.empty());
  MBI_CHECK(k >= 1);

  // Bind the similarity function and bound calculator to each target.
  std::vector<std::unique_ptr<SimilarityFunction>> functions;
  std::vector<BoundCalculator> calculators;
  functions.reserve(targets.size());
  calculators.reserve(targets.size());
  for (const Transaction& target : targets) {
    functions.push_back(family.ForTarget(target));
    calculators.emplace_back(table_->partition().CountsPerSignature(target),
                             table_->activation_threshold());
  }
  const double target_count = static_cast<double>(targets.size());

  const auto& entries = table_->entries();
  EntryOrder order;
  order.indices.resize(entries.size());
  order.optimistic.resize(entries.size());
  for (uint32_t i = 0; i < entries.size(); ++i) {
    order.indices[i] = i;
    double sum = 0.0;
    for (size_t t = 0; t < targets.size(); ++t) {
      sum += calculators[t].OptimisticSimilarity(entries[i].coordinate,
                                                 *functions[t]);
    }
    order.optimistic[i] = sum / target_count;
  }

  // Sort the directory (main-memory sort, paper §4). The alternative order
  // ranks entries by the similarity between supercoordinates instead, while
  // pruning still uses the optimistic bounds.
  if (options.sort_order == EntrySortOrder::kOptimisticBound) {
    std::sort(order.indices.begin(), order.indices.end(),
              [&](uint32_t a, uint32_t b) {
                if (order.optimistic[a] != order.optimistic[b]) {
                  return order.optimistic[a] > order.optimistic[b];
                }
                return a < b;
              });
  } else {
    std::vector<double> coordinate_similarity(entries.size());
    // Use the first target's supercoordinate and function as the ranking key.
    Supercoordinate target_coordinate = ComputeSupercoordinate(
        targets[0], table_->partition(), table_->activation_threshold());
    for (uint32_t i = 0; i < entries.size(); ++i) {
      int match = 0, hamming = 0;
      SupercoordinateMatchAndHamming(entries[i].coordinate, target_coordinate,
                                     &match, &hamming);
      coordinate_similarity[i] = functions[0]->Evaluate(match, hamming);
    }
    std::sort(order.indices.begin(), order.indices.end(),
              [&](uint32_t a, uint32_t b) {
                if (coordinate_similarity[a] != coordinate_similarity[b]) {
                  return coordinate_similarity[a] > coordinate_similarity[b];
                }
                return a < b;
              });
  }

  NearestNeighborResult result;
  result.stats.database_size = database_->size();
  result.stats.entries_total = entries.size();
  const uint64_t budget =
      AccessBudget(options.max_access_fraction, database_->size());

  // Min-heap of the k best candidates; front is the pessimistic bound once
  // the heap is full.
  std::vector<Neighbor> heap;
  heap.reserve(k + 1);
  auto pessimistic = [&]() {
    return heap.size() == k ? heap.front().similarity : kNegInfinity;
  };
  auto evaluate_candidate = [&](TransactionId id) {
    const Transaction& candidate = database_->Get(id);
    double sum = 0.0;
    for (size_t t = 0; t < targets.size(); ++t) {
      size_t match = 0, hamming = 0;
      MatchAndHamming(targets[t], candidate, &match, &hamming);
      sum += functions[t]->Evaluate(static_cast<int>(match),
                                    static_cast<int>(hamming));
    }
    // Divide (not multiply by a reciprocal) so the value is bit-identical to
    // an oracle computing sum / n — ties then compare exactly.
    double similarity = sum / target_count;
    ++result.stats.transactions_evaluated;
    Neighbor incoming{id, similarity};
    if (heap.size() < k) {
      heap.push_back(incoming);
      std::push_heap(heap.begin(), heap.end(), BetterThan());
    } else if (BetterThan()(incoming, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), BetterThan());
      heap.back() = incoming;
      std::push_heap(heap.begin(), heap.end(), BetterThan());
    }
  };

  MBI_CHECK_MSG(options.optimality_gap >= 0.0,
                "optimality_gap must be non-negative");
  auto record_trace = [&](uint32_t entry_index, EntryTrace::Action action) {
    if (!options.collect_trace) return;
    EntryTrace entry_trace;
    entry_trace.coordinate = entries[entry_index].coordinate;
    entry_trace.optimistic_bound = order.optimistic[entry_index];
    entry_trace.transaction_count = entries[entry_index].transaction_count;
    entry_trace.action = action;
    entry_trace.pessimistic_bound = pessimistic();
    result.trace.push_back(entry_trace);
  };

  size_t next = 0;
  bool terminated_early = false;
  double max_pruned_bound = kNegInfinity;
  for (; next < order.indices.size(); ++next) {
    uint32_t entry_index = order.indices[next];
    double optimistic = order.optimistic[entry_index];
    if (heap.size() == k &&
        optimistic <= pessimistic() + options.optimality_gap) {
      max_pruned_bound = std::max(max_pruned_bound, optimistic);
      record_trace(entry_index, EntryTrace::Action::kPruned);
      if (options.sort_order == EntrySortOrder::kOptimisticBound) {
        // Entries are sorted by decreasing optimistic bound, so everything
        // that follows is prunable too.
        for (size_t i = next + 1; i < order.indices.size(); ++i) {
          record_trace(order.indices[i], EntryTrace::Action::kPruned);
        }
        result.stats.entries_pruned += order.indices.size() - next;
        next = order.indices.size();
        break;
      }
      ++result.stats.entries_pruned;
      continue;
    }
    record_trace(entry_index, EntryTrace::Action::kScanned);
    std::vector<TransactionId> ids =
        table_->FetchEntryTransactions(entry_index, &result.stats.io);
    ++result.stats.entries_scanned;
    for (TransactionId id : ids) evaluate_candidate(id);
    if (result.stats.transactions_evaluated >= budget &&
        next + 1 < order.indices.size()) {
      terminated_early = true;
      ++next;
      break;
    }
  }

  // Early-termination certificate (paper §4.2): the best similarity any
  // unexplored entry could still hold.
  double unexplored_bound = kNegInfinity;
  if (terminated_early) {
    for (size_t i = next; i < order.indices.size(); ++i) {
      unexplored_bound =
          std::max(unexplored_bound, order.optimistic[order.indices[i]]);
      ++result.stats.entries_unexplored;
      record_trace(order.indices[i], EntryTrace::Action::kUnexplored);
    }
  }
  result.unexplored_optimistic_bound = unexplored_bound;
  result.best_unscanned_bound = std::max(max_pruned_bound, unexplored_bound);
  result.guaranteed_exact =
      heap.size() == std::min<size_t>(k, database_->size()) &&
      result.best_unscanned_bound <= pessimistic();
  // Certificate mirror (the frozen reference ignores QueryBudget by design,
  // so kAccessFraction is the only early termination it can report).
  result.stats.termination = terminated_early
                                 ? QueryTermination::kAccessFraction
                                 : QueryTermination::kCompleted;
  result.stats.is_exact = result.guaranteed_exact;
  result.stats.certificate_bound = result.best_unscanned_bound;

  std::sort(heap.begin(), heap.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.id < b.id;
  });
  result.neighbors = std::move(heap);
  return result;
}

RangeQueryResult BranchAndBoundEngine::FindInRange(
    const Transaction& target, const SimilarityFamily& family,
    double threshold, const SearchOptions& options) const {
  std::vector<const SimilarityFamily*> families = {&family};
  std::vector<double> thresholds = {threshold};
  return FindInRangeMulti(target, families, thresholds, options);
}

RangeQueryResult BranchAndBoundEngine::FindInRangeMulti(
    const Transaction& target,
    const std::vector<const SimilarityFamily*>& families,
    const std::vector<double>& thresholds,
    const SearchOptions& options) const {
  MBI_CHECK(!families.empty());
  MBI_CHECK(families.size() == thresholds.size());

  std::vector<std::unique_ptr<SimilarityFunction>> functions;
  functions.reserve(families.size());
  for (const SimilarityFamily* family : families) {
    MBI_CHECK(family != nullptr);
    functions.push_back(family->ForTarget(target));
  }
  BoundCalculator calculator(table_->partition().CountsPerSignature(target),
                             table_->activation_threshold());
  const bool use_layout =
      layout_ != nullptr && layout_->num_rows() >= database_->size();
  PackedTarget packed;
  packed.Assign(target, database_->universe_size(),
                use_layout ? layout_ : nullptr);

  RangeQueryResult result;
  result.stats.database_size = database_->size();
  result.stats.entries_total = table_->entries().size();
  const uint64_t budget =
      AccessBudget(options.max_access_fraction, database_->size());
  const QueryBudget& qbudget = options.budget;
  const bool budget_limited = qbudget.limited();

  bool terminated_early = false;
  QueryTermination termination = QueryTermination::kCompleted;
  double unexplored_bound = kNegInfinity;
  const auto& entries = table_->entries();
  // All entry bounds in one SIMD batch up front (range queries visit the
  // directory in index order, so there is no lazy prefix to exploit).
  std::vector<int32_t> bound_match(entries.size());
  std::vector<int32_t> bound_dist(entries.size());
  calculator.ComputeBatch(table_->coordinates().data(), entries.size(),
                          bound_match.data(), bound_dist.data());
  std::vector<TransactionId> ids;
  std::vector<uint32_t> match_scratch;
  std::vector<uint32_t> hamming_scratch;
  for (uint32_t i = 0; i < entries.size(); ++i) {
    if (!terminated_early && budget_limited &&
        result.stats.entries_scanned > 0) {
      // Same min-one-entry guarantee as RunKNearest: the budget can only cut
      // the enumeration after the first scanned entry, so a degraded range
      // answer is never structurally empty.
      if (qbudget.cancelled()) {
        terminated_early = true;
        termination = QueryTermination::kCancelled;
      } else if (result.stats.entries_scanned >= qbudget.max_entries) {
        terminated_early = true;
        termination = QueryTermination::kEntryBudget;
      } else if (qbudget.deadline_expired()) {
        terminated_early = true;
        termination = QueryTermination::kDeadline;
      }
    }
    if (terminated_early) {
      ++result.stats.entries_unexplored;
      // Certificate over what was left behind: no skipped transaction can
      // beat the primary function's optimistic bound for its entry.
      unexplored_bound = std::max(
          unexplored_bound, functions[0]->Evaluate(bound_match[i], bound_dist[i]));
      continue;
    }
    bool prunable = false;
    for (size_t f = 0; f < functions.size(); ++f) {
      double optimistic = functions[f]->Evaluate(bound_match[i], bound_dist[i]);
      if (optimistic < thresholds[f]) {
        prunable = true;
        break;
      }
    }
    if (prunable) {
      ++result.stats.entries_pruned;
      continue;
    }
    table_->FetchEntryTransactions(i, &result.stats.io, &ids);
    ++result.stats.entries_scanned;
    if (deleted_ != nullptr) DropDeleted(&ids);
    if (use_layout) {
      match_scratch.resize(ids.size());
      hamming_scratch.resize(ids.size());
      packed.MatchAndHammingBatch(ids.data(), ids.size(), match_scratch.data(),
                                  hamming_scratch.data());
    }
    for (size_t c = 0; c < ids.size(); ++c) {
      const TransactionId id = ids[c];
      size_t match = 0, hamming = 0;
      if (use_layout) {
        match = match_scratch[c];
        hamming = hamming_scratch[c];
      } else {
        packed.MatchAndHamming(database_->Get(id), &match, &hamming);
      }
      ++result.stats.transactions_evaluated;
      bool qualifies = true;
      double primary_similarity = 0.0;
      for (size_t f = 0; f < functions.size(); ++f) {
        double value = functions[f]->Evaluate(static_cast<int>(match),
                                              static_cast<int>(hamming));
        if (f == 0) primary_similarity = value;
        if (value < thresholds[f]) {
          qualifies = false;
          break;
        }
      }
      if (qualifies) result.matches.push_back({id, primary_similarity});
    }
    if (result.stats.transactions_evaluated >= budget &&
        i + 1 < entries.size()) {
      terminated_early = true;
      termination = QueryTermination::kAccessFraction;
    }
  }

  result.guaranteed_complete = !terminated_early;
  result.stats.termination = termination;
  result.stats.is_exact = result.guaranteed_complete;
  result.stats.certificate_bound = unexplored_bound;
  std::sort(result.matches.begin(), result.matches.end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.id < b.id;
            });
  return result;
}

void BranchAndBoundEngine::CheckBoundDominance(
    const Transaction& target, const SimilarityFamily& family) const {
  std::unique_ptr<SimilarityFunction> similarity = family.ForTarget(target);
  BoundCalculator calculator(table_->partition().CountsPerSignature(target),
                             table_->activation_threshold());

  for (size_t i = 0; i < table_->entries().size(); ++i) {
    const SignatureTable::Entry& entry = table_->entries()[i];
    const double optimistic =
        calculator.OptimisticSimilarity(entry.coordinate, *similarity);
    std::vector<TransactionId> ids =
        table_->FetchEntryTransactions(i, /*stats=*/nullptr);
    for (TransactionId id : ids) {
      size_t match = 0;
      size_t hamming = 0;
      MatchAndHamming(target, database_->Get(id), &match, &hamming);
      const double actual = similarity->Evaluate(static_cast<int>(match),
                                                 static_cast<int>(hamming));
      MBI_CHECK_MSG(actual <= optimistic,
                    "optimistic bound fails to dominate an indexed "
                    "transaction (Lemma 2.1 violated)");
    }
  }
}

}  // namespace mbi
