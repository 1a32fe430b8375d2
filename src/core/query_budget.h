#ifndef MBI_CORE_QUERY_BUDGET_H_
#define MBI_CORE_QUERY_BUDGET_H_

// Cooperative per-query resource budget: a wall-clock deadline, an
// entry-scan cap, and a cancellation token. Carried by value in
// SearchOptions (and optionally pinned on a QueryContext for session-wide
// defaults); the engines check it at entry granularity and, on expiry,
// return a *certified degraded answer* instead of crashing or blocking —
// QueryStats::termination / certificate_bound record what was given up
// (paper §4's a-posteriori quality guarantee).
//
// All fields are plain data; a default-constructed budget is unlimited and
// costs one branch per check, which keeps the MBI_HOT paths honest.

#include <atomic>
#include <cstdint>
#include <limits>

#include "core/query_stats.h"
#include "util/deadline_clock.h"

namespace mbi {

struct QueryBudget {
  /// Absolute deadline in the clock's NowUs() timeline; +inf = none.
  double deadline_us = std::numeric_limits<double>::infinity();

  /// Maximum entries this query may scan before it must return whatever it
  /// has, counted in the path's scan unit: occupied signature-table entries
  /// on the indexed path, candidate rows on the scan/re-rank paths (which
  /// check at 256-row chunk boundaries, so they may overshoot by at most
  /// 255 rows — DESIGN.md §13.4).
  uint64_t max_entries = std::numeric_limits<uint64_t>::max();

  /// Cooperative cancellation: the query gives up (with a certified partial
  /// answer) at its next check after the flag becomes true. Not owned; must
  /// outlive the query. Null = not cancellable.
  const std::atomic<bool>* cancel = nullptr;

  /// Clock the deadline is measured against. Null = DeadlineClock::Real().
  /// Tests inject a ManualClock here to script expiry deterministically.
  const DeadlineClock* clock = nullptr;

  /// True when any limit is set — lets hot loops hoist "budget can never
  /// trip" out of the per-entry check.
  bool limited() const {
    return deadline_us != std::numeric_limits<double>::infinity() ||
           max_entries != std::numeric_limits<uint64_t>::max() ||
           cancel != nullptr;
  }

  const DeadlineClock* effective_clock() const {
    return clock != nullptr ? clock : DeadlineClock::Real();
  }

  bool cancelled() const {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }

  bool deadline_expired() const {
    return deadline_us != std::numeric_limits<double>::infinity() &&
           effective_clock()->NowUs() >= deadline_us;
  }

  /// The one budget poll every query loop runs: kCompleted while the budget
  /// holds after `scanned` units of the path's scan unit, else the limit
  /// that tripped, tested cancel -> entry cap -> deadline (a cap and a
  /// deadline tripping at the same check report kEntryBudget, and a tripped
  /// cap reads no clock). Callers keep the min-one rule themselves: they
  /// poll only once at least one unit has been scanned, so a degraded
  /// answer always carries real candidates.
  QueryTermination Check(uint64_t scanned) const {
    if (cancelled()) return QueryTermination::kCancelled;
    if (scanned >= max_entries) return QueryTermination::kEntryBudget;
    if (deadline_expired()) return QueryTermination::kDeadline;
    return QueryTermination::kCompleted;
  }

  /// Budget with an absolute deadline `ms` milliseconds from `clock`'s now
  /// (other limits unlimited). Non-positive `ms` means already expired.
  static QueryBudget WithDeadlineAfterMs(double ms,
                                         const DeadlineClock* clock = nullptr) {
    QueryBudget budget;
    budget.clock = clock;
    budget.deadline_us = budget.effective_clock()->NowUs() + ms * 1000.0;
    return budget;
  }

  /// Tightest-wins merge of two budgets (used when both SearchOptions and
  /// the QueryContext carry one). A non-null clock in `a` wins, else `b`'s;
  /// two distinct cancel tokens cannot be merged without allocation, so `a`'s
  /// token wins when both are set.
  static QueryBudget Tightest(const QueryBudget& a, const QueryBudget& b) {
    QueryBudget merged;
    merged.deadline_us = a.deadline_us < b.deadline_us ? a.deadline_us
                                                       : b.deadline_us;
    merged.max_entries =
        a.max_entries < b.max_entries ? a.max_entries : b.max_entries;
    merged.cancel = a.cancel != nullptr ? a.cancel : b.cancel;
    merged.clock = a.clock != nullptr ? a.clock : b.clock;
    return merged;
  }
};

}  // namespace mbi

#endif  // MBI_CORE_QUERY_BUDGET_H_
