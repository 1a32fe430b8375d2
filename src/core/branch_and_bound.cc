#include "core/branch_and_bound.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/bounds.h"
#include "core/entry_order.h"
#include "core/query_context.h"
#include "core/row_scorer.h"
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

/// A range query's RangeSink over the first family's scores (paper §4.3):
/// a row reaching τ_0 is kept only if every other f_j(x, y) reaches τ_j,
/// with (x, y) from the sparse probe (integer-exact, as the kernel's).
struct ConjunctionSink : RangeSink {
  const Transaction* target = nullptr;
  const TransactionDatabase* database = nullptr;
  std::span<const std::unique_ptr<SimilarityFunction>> others;
  std::span<const double> other_thresholds;

  static constexpr bool full() { return false; }  // Keeps every match.
  static constexpr double worst() { return kNegInfinity; }

  void operator()(TransactionId id, double score) {
    ++scored;
    if (!(score >= threshold)) return;
    size_t x = 0, y = 0;
    if (!others.empty()) MatchAndHamming(*target, database->Get(id), &x, &y);
    for (size_t j = 0; j < others.size(); ++j) {
      const double value =
          others[j]->Evaluate(static_cast<int>(x), static_cast<int>(y));
      if (!(value >= other_thresholds[j])) return;
    }
    matches->push_back({id, score});
  }
};

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
  MBI_CHECK(k >= 1);
  MBI_CHECK_MSG(options.optimality_gap >= 0.0,
                "optimality_gap must be non-negative");

  // Reset the output in place: capacity survives, so a warm result object
  // costs nothing to refill.
  NearestNeighborResult& result = *result_out;
  result.neighbors.clear();
  result.trace.clear();

  // The scan keeps the k best in a heap whose front, once it holds k rows,
  // is the pessimistic bound; only the bound test prunes (no veto).
  std::vector<Neighbor>& knn_heap = context->knn_heap_;
  knn_heap.clear();
  TopKSink top_k{k, &knn_heap};
  Scan(targets, family, options, floor, context, top_k,
       [](uint32_t) { return false; }, &result.stats, &result.trace);

  std::sort(knn_heap.begin(), knn_heap.end(), BestFirst());
  result.neighbors.assign(knn_heap.begin(), knn_heap.end());
}

template <typename Sink, typename Veto>
MBI_HOT void BranchAndBoundEngine::Scan(
    std::span<const Transaction> targets, const SimilarityFamily& family,
    const SearchOptions& options, double floor, QueryContext* context,
    Sink& sink, Veto veto, QueryStats* stats_out,
    std::vector<EntryTrace>* trace) const {
  const size_t num_targets = targets.size();
  QueryContext& ctx = *context;
  QueryStats& stats = *stats_out;
  stats = QueryStats{};

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

  stats.database_size = database_->size();
  stats.entries_total = num_entries;
  const uint64_t budget =
      AccessBudget(options.max_access_fraction, database_->size());
  // Overload budget (tightest-wins between the per-call options and the
  // context's session default). `limited` is hoisted so the unlimited case
  // pays one branch per entry and zero clock reads.
  const QueryBudget qbudget =
      QueryBudget::Tightest(options.budget, ctx.budget_);
  const bool budget_limited = qbudget.limited();

  // The pessimistic bound in effect: the full sink's worst row (the k-th
  // best), raised to the floor (a range query's only bound).
  auto pessimistic = [&]() {
    return std::max(sink.full() ? sink.worst() : kNegInfinity, floor);
  };

  auto record_trace = [&](uint32_t entry_index, EntryTrace::Action action) {
    if (!options.collect_trace) return;
    EntryTrace entry_trace;
    entry_trace.coordinate = entries[entry_index].coordinate;
    entry_trace.optimistic_bound = bound_of(entry_index);
    entry_trace.transaction_count = entries[entry_index].transaction_count;
    entry_trace.action = action;
    entry_trace.pessimistic_bound = pessimistic();
    trace->push_back(entry_trace);
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
    if (budget_limited && stats.entries_scanned > 0) {
      termination = qbudget.Check(stats.entries_scanned);
      if (termination != QueryTermination::kCompleted) {
        terminated_early = true;
        break;
      }
    }
    if (cursor == num_ordered) {
      // Only the entries left out below the floor remain: the first of them
      // in visit order would prune itself and the rest.
      stats.entries_pruned += below_left;
      max_pruned_bound = std::max(max_pruned_bound, below.max);
      below_left = 0;
      break;
    }
    const uint32_t entry_index = order[cursor++];
    const double optimistic = bound_of(entry_index);
    if ((sink.full() || has_floor) &&
        optimistic <= pessimistic() + options.optimality_gap) {
      max_pruned_bound = std::max(max_pruned_bound, optimistic);
      record_trace(entry_index, EntryTrace::Action::kPruned);
      if (by_bound) {
        // Entries are visited in decreasing optimistic bound, so the whole
        // tail is prunable too, the entries left out below the floor with
        // it; the ordered tail is only walked when a trace wants the
        // per-entry records in visit order.
        stats.entries_pruned += num_ordered - cursor + 1 + below_left;
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
      ++stats.entries_pruned;
      continue;
    }
    if (veto(entry_index)) {
      // No row here could be kept: pruned without raising the certificate.
      ++stats.entries_pruned;
      record_trace(entry_index, EntryTrace::Action::kPruned);
      continue;
    }
    record_trace(entry_index, EntryTrace::Action::kScanned);
    std::span<const TransactionId> ids =
        table_->EntryTransactions(entry_index, &stats.io);
    ++stats.entries_scanned;
    if (deleted_ != nullptr) ids = LiveIds(ids, &ctx.candidate_ids_);
    scorer.ScoreIds(ids, sink);
    if (sink.scored >= budget && (cursor < num_ordered || below_left > 0)) {
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
    stats.entries_unexplored = num_ordered - cursor + below_left;
    if (below_left > 0) unexplored_bound = below.max;
    for (; cursor < num_ordered; ++cursor) {
      unexplored_bound = std::max(unexplored_bound, bound_of(order[cursor]));
      record_trace(order[cursor], EntryTrace::Action::kUnexplored);
    }
  }
  // Paper-§4.2 certificate: no transaction the search did not evaluate can
  // beat the best optimistic bound over pruned and unexplored entries, and
  // the answer is exact iff that bound cannot beat the pessimistic bound.
  // While a k-heap holds fewer than k rows and there is no floor nothing can
  // have been pruned, so the test then passes only when every entry was
  // scanned — which is exactly right when fewer than k rows are live. With a
  // floor the caller's k rows stand in for the missing ones; a complete
  // range query pruned only entries below its threshold, so it is exact.
  stats.transactions_evaluated = sink.scored;
  stats.termination = termination;
  stats.certificate_bound = std::max(max_pruned_bound, unexplored_bound);
  stats.is_exact = stats.certificate_bound <= pessimistic();
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
  const SimilarityFamily* const first = &family;
  return InRange(target, {&first, 1}, {&threshold, 1}, options);
}

RangeQueryResult BranchAndBoundEngine::FindInRangeMulti(
    const Transaction& target,
    const std::vector<const SimilarityFamily*>& families,
    const std::vector<double>& thresholds, const SearchOptions& options) const {
  return InRange(target, families, thresholds, options);
}

RangeQueryResult BranchAndBoundEngine::InRange(
    const Transaction& target,
    std::span<const SimilarityFamily* const> families,
    std::span<const double> thresholds, const SearchOptions& options) const {
  MBI_CHECK(!families.empty());
  MBI_CHECK(families.size() == thresholds.size());
  // The conjuncts after the first, bound to the target.
  std::vector<std::unique_ptr<SimilarityFunction>> others;
  for (size_t j = 0; j < families.size(); ++j) {
    MBI_CHECK(families[j] != nullptr);
    if (j > 0) others.push_back(families[j]->ForTarget(target));
  }
  // The floor just below τ_0 prunes exactly the entries bounded below τ_0.
  // The gap and the trace do not apply to a range query.
  SearchOptions scan_options = options;
  scan_options.optimality_gap = 0.0;
  scan_options.collect_trace = false;
  QueryContext context;
  RangeQueryResult result;
  ConjunctionSink sink{{thresholds[0], &result.matches}, &target, database_,
                       others, thresholds.subspan(1)};
  // A visited entry some other conjunct's bound f_j(M', D') rules out.
  auto veto = [&](uint32_t e) {
    for (size_t j = 0; j < others.size(); ++j) {
      const double bound = others[j]->Evaluate(context.bound_match_[e],
                                               context.bound_dist_[e]);
      if (bound < thresholds[j + 1]) return true;
    }
    return false;
  };
  Scan({&target, 1}, *families[0], scan_options,
       std::nextafter(thresholds[0], kNegInfinity), &context, sink, veto,
       &result.stats, /*trace=*/nullptr);
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
