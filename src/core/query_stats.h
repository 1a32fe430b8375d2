#ifndef MBI_CORE_QUERY_STATS_H_
#define MBI_CORE_QUERY_STATS_H_

#include <algorithm>
#include <cstdint>
#include <limits>

#include "storage/io_stats.h"

namespace mbi {

/// Why a query stopped scanning. Everything except kCompleted means the
/// answer may be degraded — consult `is_exact` / `certificate_bound`.
enum class QueryTermination : uint8_t {
  kCompleted = 0,      ///< Ran to completion (or proved optimality early).
  kAccessFraction,     ///< SearchOptions::max_access_fraction tripped.
  kEntryBudget,        ///< QueryBudget::max_entries tripped.
  kDeadline,           ///< QueryBudget::deadline_us expired.
  kCancelled,          ///< QueryBudget::cancel token was set.
};

inline const char* QueryTerminationName(QueryTermination t) {
  switch (t) {
    case QueryTermination::kCompleted: return "completed";
    case QueryTermination::kAccessFraction: return "access_fraction";
    case QueryTermination::kEntryBudget: return "entry_budget";
    case QueryTermination::kDeadline: return "deadline";
    case QueryTermination::kCancelled: return "cancelled";
  }
  return "unknown";
}

/// Per-query accounting reported by the branch-and-bound engine.
struct QueryStats {
  /// Transactions in the database searched over.
  uint64_t database_size = 0;

  /// Occupied signature table entries the query considered.
  uint64_t entries_total = 0;

  /// Entries whose transaction lists were actually read from disk.
  uint64_t entries_scanned = 0;

  /// Entries eliminated by the optimistic-bound test.
  uint64_t entries_pruned = 0;

  /// Entries left unexplored because of early termination.
  uint64_t entries_unexplored = 0;

  /// Transactions fetched and evaluated against the target.
  uint64_t transactions_evaluated = 0;

  /// Simulated-disk I/O incurred by the query.
  IoStats io;

  /// Times this query was answered by the SequentialScanner fallback because
  /// the index was quarantined (SignatureTableEngine; 0 on the healthy
  /// path). Results are still exact — only the speed degrades.
  uint64_t sequential_fallbacks = 0;

  /// Why scanning stopped. Anything but kCompleted marks a potentially
  /// degraded answer; these three fields together are the paper-§4 quality
  /// certificate and must survive every result path (including the
  /// quarantine fallback — see SignatureTableEngine::SequentialKNearest).
  QueryTermination termination = QueryTermination::kCompleted;

  /// True iff `certificate_bound` is at or below the pessimistic bound, one
  /// rule for k-NN and range: everything was scanned, or Lemma 2.1 bounds
  /// every pruned and unexplored entry at or below it. k-NN judges against
  /// max(k-th best, caller floor), so the neighbors are the exact top-k in
  /// similarity values; the dyn fan-out judges the union once, against the
  /// merged k-th best (KnnMerger::Finish). Range judges against the fixed
  /// floor just below the threshold, so every qualifying row was returned.
  bool is_exact = true;

  /// Largest optimistic similarity bound over the entries the search did not
  /// scan (pruned ∪ unexplored; a conjunctive range query's vetoed entries,
  /// which hold no qualifying row, do not count): no unevaluated transaction
  /// can beat it. -inf when every entry was scanned; a complete range query
  /// reports its largest pruned bound, below the threshold. This is the
  /// paper's a-posteriori quality guarantee: the true k-th best similarity
  /// is at most max(returned k-th, certificate_bound).
  double certificate_bound = -std::numeric_limits<double>::infinity();

  /// The paper's pruning-efficiency metric: the percentage of the database
  /// *not* accessed when the algorithm runs to completion. Clamped to
  /// [0, 100]: re-evaluation (a transaction indexed under several scanned
  /// entries, or a fallback rescan) can push `transactions_evaluated` past
  /// `database_size`, which must read as "no pruning", never as a negative
  /// percentage.
  double PruningEfficiencyPercent() const {
    return 100.0 * (1.0 - AccessedFraction());
  }

  /// Fraction of the database accessed, clamped to [0, 1] (see
  /// PruningEfficiencyPercent for why evaluations can exceed the database
  /// size).
  double AccessedFraction() const {
    if (database_size == 0) return 0.0;
    const double fraction = static_cast<double>(transactions_evaluated) /
                            static_cast<double>(database_size);
    return std::min(fraction, 1.0);
  }
};

/// Severity order for merging terminations: a combined answer inherits the
/// *most* degraded component's reason. kCompleted < kAccessFraction <
/// kEntryBudget < kDeadline < kCancelled — the enum is declared in this
/// order, so the numeric max is the merge.
inline QueryTermination MergeTermination(QueryTermination a,
                                         QueryTermination b) {
  return static_cast<uint8_t>(a) >= static_cast<uint8_t>(b) ? a : b;
}

/// Folds one component's (or one batch entry's) stats into an aggregate.
/// The aggregation rules are part of the §4 certificate contract and must
/// not be improvised per call site (engine batch paths, the dynamization
/// KnnMerger, and the CLI all share this; the KnnMerger then re-judges
/// `is_exact` once over the union of one query's parts):
///
///  * counters and I/O — sum (work is additive across components),
///  * `database_size` — sum (components partition the logical database;
///    callers aggregating *repeat* queries over the same data want averages,
///    not this),
///  * `is_exact` — logical AND (one degraded component degrades the whole),
///  * `certificate_bound` — max (the bound must dominate every component's
///    unexplored region; sum or last-writer would be unsound),
///  * `termination` — most severe (MergeTermination).
inline void MergeQueryStats(const QueryStats& component, QueryStats* agg) {
  agg->database_size += component.database_size;
  agg->entries_total += component.entries_total;
  agg->entries_scanned += component.entries_scanned;
  agg->entries_pruned += component.entries_pruned;
  agg->entries_unexplored += component.entries_unexplored;
  agg->transactions_evaluated += component.transactions_evaluated;
  agg->io += component.io;
  agg->sequential_fallbacks += component.sequential_fallbacks;
  agg->termination = MergeTermination(agg->termination, component.termination);
  agg->is_exact = agg->is_exact && component.is_exact;
  agg->certificate_bound =
      std::max(agg->certificate_bound, component.certificate_bound);
}

}  // namespace mbi

#endif  // MBI_CORE_QUERY_STATS_H_
