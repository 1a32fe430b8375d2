#ifndef MBI_CORE_ROW_SCORER_H_
#define MBI_CORE_ROW_SCORER_H_

// The one per-row scoring step every query path shares (paper §4): score
// the rows a path chose to visit against n bound targets and hand each
// (id, score) to the caller's sink. The paths differ only in which rows they
// visit (the row source) and in what they keep (the sink); the arithmetic
// and the top-k live here once.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/branch_and_bound.h"
#include "core/query_budget.h"
#include "core/query_stats.h"
#include "core/similarity.h"
#include "txn/candidate_layout.h"
#include "txn/packed_target.h"
#include "txn/transaction.h"
#include "util/hot_path.h"

namespace mbi {

/// Keeps the best `k` rows offered in `*heap`, a BestFirst heap under
/// OfferToTopK (the caller sorts it best first at the end), and counts every
/// row offered. Over a full scan this equals sort-then-truncate, ids
/// included, because BestFirst breaks ties by ascending id.
struct TopKSink {
  size_t k = 0;
  std::vector<Neighbor>* heap = nullptr;
  uint64_t scored = 0;

  void operator()(TransactionId id, double score) {
    ++scored;
    OfferToTopK({id, score}, k, heap);
  }
};

/// Appends every row offered with `score >= threshold` to `*matches`
/// (unsorted) and counts every row offered.
struct RangeSink {
  double threshold = 0.0;
  std::vector<Neighbor>* matches = nullptr;
  uint64_t scored = 0;

  void operator()(TransactionId id, double score) {
    ++scored;
    if (score >= threshold) matches->push_back({id, score});
  }
};

/// Scores rows against n targets bound together. A row's score is the mean
/// over targets of f_t(x, y): the kernel runs per target in ascending t, the
/// values are added into a sum that starts at 0.0, and the sum is divided
/// (not multiplied by a reciprocal) by n. The frozen reference computes the
/// same sum / n, so scores compare bit-identically; with one target the score
/// is (0.0 + f) / 1, which equals f under == (it only turns -0.0 into +0.0).
///
/// Three row sources, all integer-exact and so interchangeable:
///   * ScoreIds: a transaction-id span through the gather SIMD kernel
///     (MatchAndHammingBatch);
///   * ScoreRows: a row range through the streaming SIMD kernel
///     (MatchAndHammingRows);
///   * Score: one Transaction through the per-row sparse probe, no SIMD
///     kernel (rows without a layout, and the layout-free oracle).
/// The two batch sources need a layout at Bind. A sink is any callable
/// `sink(TransactionId id, double score)`: TopKSink, RangeSink, or a
/// caller's lambda (the dyn merger). Ids reach the sink in source order.
///
/// Bind reuses every buffer, so a scorer held in a warm QueryContext scores
/// without allocating. Not thread-safe: one scorer per concurrent query.
class RowScorer {
 public:
  /// Binds `targets` (at least one) under `family` (through RebindTarget,
  /// so warm function slots are reused) and packs each target over
  /// `universe_size` items, with `layout`'s dense rows when non-null.
  MBI_HOT void Bind(std::span<const Transaction> targets,
                    const SimilarityFamily& family, size_t universe_size,
                    const CandidateLayout* layout);

  size_t num_targets() const { return num_targets_; }

  /// True when the batch sources may be used (a layout was bound).
  bool has_layout() const { return packed_[0].has_layout(); }

  /// Target t's bound similarity function.
  const SimilarityFunction& function(size_t t) const { return *functions_[t]; }

  /// The mean over targets of f_t(|target_t|, 0), which dominates every
  /// row's score for admissible f (matches cannot exceed the target size and
  /// the Hamming distance cannot go below zero): the certificate of a scan
  /// cut short by its budget.
  double PointwiseBound() const;

  /// Scores the rows `ids` (each < the layout's row count).
  template <typename Sink>
  MBI_HOT void ScoreIds(std::span<const TransactionId> ids, Sink&& sink) {
    ScoreBatch(
        ids.size(),
        [&](const PackedTarget& packed, uint32_t* match, uint32_t* hamming) {
          packed.MatchAndHammingBatch(ids.data(), ids.size(), match, hamming);
        },
        [&](size_t i) { return ids[i]; }, sink);
  }

  /// Scores the rows [first, first + count) in order.
  template <typename Sink>
  MBI_HOT void ScoreRows(TransactionId first, size_t count, Sink&& sink) {
    ScoreBatch(
        count,
        [&](const PackedTarget& packed, uint32_t* match, uint32_t* hamming) {
          packed.MatchAndHammingRows(first, count, match, hamming);
        },
        [&](size_t i) { return static_cast<TransactionId>(first + i); },
        sink);
  }

  /// Scores one row through the per-row probe.
  MBI_HOT double Score(const Transaction& row) const {
    double sum = 0.0;
    for (size_t t = 0; t < num_targets_; ++t) {
      size_t match = 0, hamming = 0;
      packed_[t].MatchAndHamming(row, &match, &hamming);
      sum += functions_[t]->Evaluate(static_cast<int>(match),
                                     static_cast<int>(hamming));
    }
    return sum / static_cast<double>(num_targets_);
  }

 private:
  /// One kernel pass per target over `count` rows into the match/Hamming
  /// scratch, f_t accumulated per row, then `sink(id_of(i), sum_i / n)`.
  template <typename Kernel, typename IdOf, typename Sink>
  MBI_HOT void ScoreBatch(size_t count, Kernel kernel, IdOf id_of,
                          Sink& sink) {
    if (match_.size() < count) {
      match_.resize(count);
      hamming_.resize(count);
    }
    if (sums_.size() < count) sums_.resize(count);
    std::fill_n(sums_.begin(), count, 0.0);
    for (size_t t = 0; t < num_targets_; ++t) {
      kernel(packed_[t], match_.data(), hamming_.data());
      const SimilarityFunction& similarity = *functions_[t];
      for (size_t i = 0; i < count; ++i) {
        sums_[i] += similarity.Evaluate(static_cast<int>(match_[i]),
                                        static_cast<int>(hamming_[i]));
      }
    }
    const double n = static_cast<double>(num_targets_);
    for (size_t i = 0; i < count; ++i) sink(id_of(i), sums_[i] / n);
  }

  // Slots beyond num_targets_ keep their bindings for reuse but never take
  // part (every loop runs to num_targets_).
  std::vector<std::unique_ptr<SimilarityFunction>> functions_;
  std::vector<PackedTarget> packed_;
  size_t num_targets_ = 0;
  // Kernel output and per-row sums for one batch.
  std::vector<uint32_t> match_;
  std::vector<uint32_t> hamming_;
  std::vector<double> sums_;
};

/// Rows scored between two budget checks on the scan-shaped paths (the
/// sequential scan, the inverted-index re-rank, the dyn buffer scan).
inline constexpr size_t kRowChunk = 256;

/// How far a chunked scan got, in rows (DESIGN.md §13.4's stats unit).
struct ScanOutcome {
  QueryTermination termination = QueryTermination::kCompleted;
  uint64_t rows_total = 0;
  uint64_t rows_scanned = 0;
};

/// Calls `score_chunk(begin, count)` over rows [0, total) in kRowChunk
/// slices, polling `budget` between slices but never before the first: a
/// degraded scan always carries at least one chunk (the min-one rule). Rows,
/// not chunks, are charged against max_entries, so a scan overshoots the
/// entry cap by at most kRowChunk - 1 rows.
template <typename ScoreChunk>
MBI_HOT ScanOutcome ScanInChunks(uint64_t total, const QueryBudget& budget,
                                 ScoreChunk&& score_chunk) {
  ScanOutcome outcome;
  outcome.rows_total = total;
  for (uint64_t begin = 0; begin < total; begin += kRowChunk) {
    if (begin > 0) {
      outcome.termination = budget.Check(begin);
      if (outcome.termination != QueryTermination::kCompleted) break;
    }
    const uint64_t count = std::min<uint64_t>(kRowChunk, total - begin);
    score_chunk(static_cast<size_t>(begin), static_cast<size_t>(count));
    outcome.rows_scanned += count;
  }
  return outcome;
}

/// Stats of a scan-shaped query (row units), certified with `pointwise`
/// (RowScorer::PointwiseBound) when the budget cut it short.
inline void FillScanStats(const ScanOutcome& outcome, uint64_t evaluated,
                          uint64_t database_size, double pointwise,
                          QueryStats* stats) {
  stats->database_size = database_size;
  stats->entries_total = outcome.rows_total;
  stats->entries_scanned = outcome.rows_scanned;
  stats->entries_unexplored = outcome.rows_total - outcome.rows_scanned;
  stats->transactions_evaluated = evaluated;
  stats->termination = outcome.termination;
  stats->is_exact = outcome.termination == QueryTermination::kCompleted;
  stats->certificate_bound =
      stats->is_exact ? -std::numeric_limits<double>::infinity() : pointwise;
}

}  // namespace mbi

#endif  // MBI_CORE_ROW_SCORER_H_
