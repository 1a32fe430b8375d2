#include "core/branch_and_bound.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>

#include "core/bounds.h"
#include "core/entry_order.h"
#include "core/query_context.h"
#include "core/row_scorer.h"
#include "txn/packed_target.h"
#include "util/macros.h"

namespace mbi {
namespace {

constexpr double kNegInfinity = -std::numeric_limits<double>::infinity();

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
  MBI_CHECK_MSG(layout_->num_rows() >= table->num_indexed_transactions(),
                "candidate layout must cover every row the table indexes");
}

NearestNeighborResult BranchAndBoundEngine::FindKNearest(
    const Transaction& target, const SimilarityFamily& family, size_t k,
    const SearchOptions& options) const {
  QueryContext context;
  NearestNeighborResult result;
  FindKNearest(target, family, k, options, &context, &result);
  return result;
}

MBI_HOT void BranchAndBoundEngine::FindKNearestMultiTarget(
    std::span<const Transaction> targets, const SimilarityFamily& family,
    size_t k, const SearchOptions& options, QueryContext* context,
    NearestNeighborResult* result_out, double floor) const {
  MBI_CHECK(context != nullptr);
  MBI_CHECK(result_out != nullptr);
  const size_t num_targets = targets.size();
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

  // Bind the row scorer (similarity functions and packed bitmaps) and the
  // bound calculator to each target, reusing the context's buffers.
  // RebindTarget re-targets a warm function object in place (built-in
  // families), so with a warm context this allocates nothing; slots beyond
  // num_targets keep their bindings but never participate (all loops run to
  // num_targets).
  RowScorer& scorer = ctx.scorer_;
  scorer.Bind(targets, family, database_->universe_size(), layout_);
  if (ctx.calculators_.size() < num_targets) {
    ctx.calculators_.resize(num_targets);
  }
  for (size_t t = 0; t < num_targets; ++t) {
    table_->partition().CountsPerSignature(targets[t], &ctx.counts_scratch_);
    ctx.calculators_[t].Reset(ctx.counts_scratch_,
                              table_->activation_threshold());
  }
  const double target_count = static_cast<double>(num_targets);

  // FindOptimisticBound for every occupied entry: the average over targets
  // of f_t(M', D') (paper §4.3 for the multi-target case; with a single
  // target this is Figure 3's FindOptimisticBound over the entry's count
  // summary, which is at least as tight as the paper's activation-bit
  // bound — core/bounds.h). The M'/D' bounds for a chunk come from the SIMD
  // summary kernel, one target at a time (t-major scratch, so chunks touch
  // disjoint slices, and the parallel fan-out is deterministic: identical
  // bounds for any thread count).
  const auto& entries = table_->entries();
  const EntrySummaries summaries = table_->summaries();
  const size_t num_entries = entries.size();
  ctx.bound_match_.resize(num_targets * num_entries);
  ctx.bound_dist_.resize(num_targets * num_entries);
  auto compute_bounds = [&](size_t begin, size_t end) {
    for (size_t t = 0; t < num_targets; ++t) {
      const size_t base = t * num_entries;
      ctx.calculators_[t].ComputeBatch(summaries, begin, end - begin,
                                       ctx.bound_match_.data() + base + begin,
                                       ctx.bound_dist_.data() + base + begin);
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

  // Entry ordering (paper §4): a stable counting sort yields the visit order
  // (key descending, index ascending) — the order the frozen reference's
  // full sort produces — and the scan walks it with a cursor. With a floor,
  // an entry bounded at or below floor + gap is pruned wherever it is
  // reached, so under the bound order those entries are left out of the
  // order (they would all trail it) and settled in bulk from `below`; a
  // trace still orders every entry so that it can record them in visit
  // order.
  const bool has_floor = floor > kNegInfinity;
  const bool by_bound = options.sort_order == EntrySortOrder::kOptimisticBound;
  const double cutoff = has_floor && by_bound && !options.collect_trace
                            ? floor + options.optimality_gap
                            : kNegInfinity;
  KeysLeftOut below;
  // Per-entry bounds, when they are not read from the order's cells.
  const double* entry_bounds = nullptr;
  if (by_bound && num_targets == 1) {
    // One target under the bound order: the key is f(M', D') of one cell,
    // so f runs once per occupied cell and an entry's bound is read back
    // from its cell (EntryOrderScratch::Key).
    below = OrderByBoundCell(ctx.bound_match_.data(), ctx.bound_dist_.data(),
                             num_entries, scorer.function(0),
                             &ctx.order_scratch_, &ctx.entry_order_, cutoff);
  } else {
    // The mean over targets: each f_t still runs once per occupied cell of
    // target t's grid, and the per-entry sum reads those cells in ascending
    // t and divides by n, so the doubles are bit-identical to summing
    // f_t(M', D') per entry.
    ctx.entry_bounds_.assign(num_entries, 0.0);
    for (size_t t = 0; t < num_targets; ++t) {
      const size_t base = t * num_entries;
      AssignBoundCells(ctx.bound_match_.data() + base,
                       ctx.bound_dist_.data() + base, num_entries,
                       scorer.function(t), &ctx.order_scratch_);
      for (size_t i = 0; i < num_entries; ++i) {
        ctx.entry_bounds_[i] += ctx.order_scratch_.Key(i);
      }
    }
    for (double& bound : ctx.entry_bounds_) bound /= target_count;
    entry_bounds = ctx.entry_bounds_.data();
    const double* keys = entry_bounds;
    if (!by_bound) {
      // The ablation's visit order ranks entries by the similarity between
      // supercoordinates, using the first target's; pruning still uses the
      // bounds.
      ctx.order_keys_.resize(num_entries);
      table_->partition().CountsPerSignature(targets[0], &ctx.counts_scratch_);
      Supercoordinate target_coordinate = SupercoordinateFromCounts(
          ctx.counts_scratch_, table_->activation_threshold());
      for (size_t i = 0; i < num_entries; ++i) {
        int match = 0, hamming = 0;
        SupercoordinateMatchAndHamming(entries[i].coordinate,
                                       target_coordinate, &match, &hamming);
        ctx.order_keys_[i] = scorer.function(0).Evaluate(match, hamming);
      }
      keys = ctx.order_keys_.data();
    }
    below = OrderByKeyDescending(keys, num_entries, &ctx.order_scratch_,
                                 &ctx.entry_order_, cutoff);
  }
  auto bound_of = [&](uint32_t entry_index) {
    return entry_bounds != nullptr ? entry_bounds[entry_index]
                                   : ctx.order_scratch_.Key(entry_index);
  };
  const std::vector<uint32_t>& order = ctx.entry_order_;
  const size_t num_ordered = order.size();
  size_t cursor = 0;
  size_t below_left = below.count;

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
  // the heap is full. The caller's floor (k rows it already holds) raises
  // the bound in effect; with the default -inf it changes nothing.
  std::vector<Neighbor>& knn_heap = ctx.knn_heap_;
  knn_heap.clear();
  auto pessimistic = [&]() {
    return std::max(
        knn_heap.size() == k ? knn_heap.front().similarity : kNegInfinity,
        floor);
  };
  // Each scanned entry's rows go through the row scorer into the k-heap
  // (core/row_scorer.h: integer x/y per row from the SIMD match kernel,
  // targets accumulated in ascending t and the sum divided by n, so every
  // score is bit-identical to the frozen reference's sum / n and ties
  // compare exactly — kernel_test.cc's forced-ISA sweep proves it).
  TopKSink top_k{k, &knn_heap};

  auto record_trace = [&](uint32_t entry_index, EntryTrace::Action action) {
    if (!options.collect_trace) return;
    EntryTrace entry_trace;
    entry_trace.coordinate = entries[entry_index].coordinate;
    entry_trace.optimistic_bound = bound_of(entry_index);
    entry_trace.transaction_count = entries[entry_index].transaction_count;
    entry_trace.action = action;
    entry_trace.pessimistic_bound = pessimistic();
    result.trace.push_back(entry_trace);
  };

  bool terminated_early = false;
  QueryTermination termination = QueryTermination::kCompleted;
  double max_pruned_bound = kNegInfinity;
  while (cursor < num_ordered || below_left > 0) {
    // Cooperative budget check, entry granularity. Guarded on at least one
    // scanned entry so a degraded answer always carries at least one real
    // candidate (an already-expired deadline still returns the best of the
    // top-ranked entry, never an empty neighbor list). Without a floor the
    // first entry can never prune (the k-heap cannot be full before the
    // first scan), so entries_scanned > 0 holds from the second iteration
    // on; with one, pruned entries cost nothing and the caller already
    // holds k rows.
    if (budget_limited && result.stats.entries_scanned > 0) {
      termination = qbudget.Check(result.stats.entries_scanned);
      if (termination != QueryTermination::kCompleted) {
        terminated_early = true;
        break;
      }
    }
    if (cursor == num_ordered) {
      // Only the entries left out below the floor remain: the first of them
      // in visit order would prune itself and the rest.
      result.stats.entries_pruned += below_left;
      max_pruned_bound = std::max(max_pruned_bound, below.max);
      below_left = 0;
      break;
    }
    const uint32_t entry_index = order[cursor++];
    const double optimistic = bound_of(entry_index);
    if ((knn_heap.size() == k || has_floor) &&
        optimistic <= pessimistic() + options.optimality_gap) {
      max_pruned_bound = std::max(max_pruned_bound, optimistic);
      record_trace(entry_index, EntryTrace::Action::kPruned);
      if (by_bound) {
        // Entries are visited in decreasing optimistic bound, so the whole
        // tail is prunable too, the entries left out below the floor with
        // it; the ordered tail is only walked when a trace wants the
        // per-entry records in visit order.
        result.stats.entries_pruned += num_ordered - cursor + 1 + below_left;
        max_pruned_bound = std::max(max_pruned_bound, below.max);
        if (options.collect_trace) {
          for (; cursor < num_ordered; ++cursor) {
            record_trace(order[cursor], EntryTrace::Action::kPruned);
          }
        }
        cursor = num_ordered;
        below_left = 0;
        break;
      }
      ++result.stats.entries_pruned;
      continue;
    }
    record_trace(entry_index, EntryTrace::Action::kScanned);
    std::span<const TransactionId> ids =
        table_->EntryTransactions(entry_index, &result.stats.io);
    ++result.stats.entries_scanned;
    if (deleted_ != nullptr) ids = LiveIds(ids, &ctx.candidate_ids_);
    scorer.ScoreIds(ids, top_k);
    if (top_k.scored >= budget &&
        (cursor < num_ordered || below_left > 0)) {
      terminated_early = true;
      termination = QueryTermination::kAccessFraction;
      break;
    }
  }

  // Early-termination certificate (paper §4.2): the best similarity any
  // unexplored entry could still hold, a max over the unvisited tail of the
  // order (which a trace records in visit order) and the entries left out
  // below the floor.
  double unexplored_bound = kNegInfinity;
  if (terminated_early) {
    result.stats.entries_unexplored = num_ordered - cursor + below_left;
    if (below_left > 0) unexplored_bound = below.max;
    for (; cursor < num_ordered; ++cursor) {
      unexplored_bound = std::max(unexplored_bound, bound_of(order[cursor]));
      record_trace(order[cursor], EntryTrace::Action::kUnexplored);
    }
  }
  // Paper-§4.2 certificate: no transaction the search did not evaluate can
  // beat the best optimistic bound over pruned and unexplored entries, and
  // the answer is exact iff that bound cannot beat the k-th best found.
  // While the heap holds fewer than k rows and there is no floor nothing can
  // have been pruned, so the test then passes only when every entry was
  // scanned — which is exactly right when fewer than k rows are live. With a
  // floor the caller's k rows stand in for the missing ones.
  result.stats.transactions_evaluated = top_k.scored;
  result.stats.termination = termination;
  result.stats.certificate_bound = std::max(max_pruned_bound, unexplored_bound);
  result.stats.is_exact = result.stats.certificate_bound <= pessimistic();

  std::sort(knn_heap.begin(), knn_heap.end(), BestFirst());
  result.neighbors.assign(knn_heap.begin(), knn_heap.end());
}

MBI_HOT std::span<const TransactionId> BranchAndBoundEngine::LiveIds(
    std::span<const TransactionId> ids,
    std::vector<TransactionId>* scratch) const {
  scratch->resize(ids.size());
  size_t kept = 0;
  for (const TransactionId id : ids) {
    if (!deleted_->IsMarked(id)) (*scratch)[kept++] = id;
  }
  return {scratch->data(), kept};
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
  PackedTarget packed;
  packed.Assign(target, database_->universe_size(), layout_);

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
  calculator.ComputeBatch(table_->summaries(), 0, entries.size(),
                          bound_match.data(), bound_dist.data());
  std::vector<TransactionId> live_scratch;
  std::vector<uint32_t> match_scratch;
  std::vector<uint32_t> hamming_scratch;
  for (uint32_t i = 0; i < entries.size(); ++i) {
    if (!terminated_early && budget_limited &&
        result.stats.entries_scanned > 0) {
      // Same min-one-entry guarantee as the k-NN search: the budget can only
      // cut the enumeration after the first scanned entry, so a degraded
      // range answer is never structurally empty.
      termination = qbudget.Check(result.stats.entries_scanned);
      terminated_early = termination != QueryTermination::kCompleted;
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
    std::span<const TransactionId> ids =
        table_->EntryTransactions(i, &result.stats.io);
    ++result.stats.entries_scanned;
    if (deleted_ != nullptr) ids = LiveIds(ids, &live_scratch);
    match_scratch.resize(ids.size());
    hamming_scratch.resize(ids.size());
    packed.MatchAndHammingBatch(ids.data(), ids.size(), match_scratch.data(),
                                hamming_scratch.data());
    for (size_t c = 0; c < ids.size(); ++c) {
      const TransactionId id = ids[c];
      const uint32_t match = match_scratch[c];
      const uint32_t hamming = hamming_scratch[c];
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

  result.stats.termination = termination;
  result.stats.is_exact = !terminated_early;
  result.stats.certificate_bound = unexplored_bound;
  std::sort(result.matches.begin(), result.matches.end(), BestFirst());
  return result;
}

void BranchAndBoundEngine::CheckBoundDominance(
    const Transaction& target, const SimilarityFamily& family) const {
  std::unique_ptr<SimilarityFunction> similarity = family.ForTarget(target);
  BoundCalculator calculator(table_->partition().CountsPerSignature(target),
                             table_->activation_threshold());

  const EntrySummaries summaries = table_->summaries();
  for (size_t i = 0; i < table_->entries().size(); ++i) {
    const OptimisticBounds bounds = calculator.Compute(summaries, i);
    const double optimistic =
        similarity->Evaluate(bounds.match_upper, bounds.dist_lower);
    for (TransactionId id : table_->EntryTransactions(i, /*stats=*/nullptr)) {
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
