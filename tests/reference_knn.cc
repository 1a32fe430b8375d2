#include "reference_knn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "core/bounds.h"
#include "core/supercoordinate.h"
#include "util/macros.h"

namespace mbi {
namespace {

constexpr double kNegInfinity = -std::numeric_limits<double>::infinity();

/// Strict ordering "a is a better result than b"; as a std::*_heap `<` it
/// keeps the worst kept candidate at the front (the pessimistic bound).
struct BetterThan {
  bool operator()(const Neighbor& a, const Neighbor& b) const {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.id < b.id;
  }
};

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

NearestNeighborResult FindKNearestReference(const TransactionDatabase& database,
                                            const SignatureTable& table,
                                            const Transaction& target,
                                            const SimilarityFamily& family,
                                            size_t k,
                                            const SearchOptions& options) {
  return FindKNearestMultiTargetReference(database, table, {target}, family, k,
                                          options);
}

NearestNeighborResult FindKNearestMultiTargetReference(
    const TransactionDatabase& database, const SignatureTable& table,
    const std::vector<Transaction>& targets, const SimilarityFamily& family,
    size_t k, const SearchOptions& options) {
  MBI_CHECK(!targets.empty());
  MBI_CHECK(k >= 1);

  // Bind the similarity function and bound calculator to each target.
  std::vector<std::unique_ptr<SimilarityFunction>> functions;
  std::vector<BoundCalculator> calculators;
  functions.reserve(targets.size());
  calculators.reserve(targets.size());
  for (const Transaction& target : targets) {
    functions.push_back(family.ForTarget(target));
    calculators.emplace_back(table.partition().CountsPerSignature(target),
                             table.activation_threshold());
  }
  const double target_count = static_cast<double>(targets.size());

  const auto& entries = table.entries();
  const EntrySummaries summaries = table.summaries();
  EntryOrder order;
  order.indices.resize(entries.size());
  order.optimistic.resize(entries.size());
  for (uint32_t i = 0; i < entries.size(); ++i) {
    order.indices[i] = i;
    double sum = 0.0;
    for (size_t t = 0; t < targets.size(); ++t) {
      // One entry's count-summary bound, written out signature by signature
      // (BoundCalculator::Compute), not the engine's SIMD batch.
      const OptimisticBounds bounds = calculators[t].Compute(summaries, i);
      sum += functions[t]->Evaluate(bounds.match_upper, bounds.dist_lower);
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
        targets[0], table.partition(), table.activation_threshold());
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
  result.stats.database_size = database.size();
  result.stats.entries_total = entries.size();
  const uint64_t budget =
      AccessBudget(options.max_access_fraction, database.size());

  // Min-heap of the k best candidates; front is the pessimistic bound once
  // the heap is full.
  std::vector<Neighbor> heap;
  heap.reserve(k + 1);
  auto pessimistic = [&]() {
    return heap.size() == k ? heap.front().similarity : kNegInfinity;
  };
  auto evaluate_candidate = [&](TransactionId id) {
    const Transaction& candidate = database.Get(id);
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
        table.FetchEntryTransactions(entry_index, &result.stats.io);
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
  // The reference ignores QueryBudget by design, so kAccessFraction is the
  // only early termination it can report.
  result.stats.termination = terminated_early
                                 ? QueryTermination::kAccessFraction
                                 : QueryTermination::kCompleted;
  result.stats.certificate_bound = std::max(max_pruned_bound, unexplored_bound);
  result.stats.is_exact =
      heap.size() == std::min<size_t>(k, database.size()) &&
      result.stats.certificate_bound <= pessimistic();

  std::sort(heap.begin(), heap.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.id < b.id;
  });
  result.neighbors = std::move(heap);
  return result;
}


}  // namespace mbi
