#ifndef MBI_BASELINE_SEQUENTIAL_SCAN_H_
#define MBI_BASELINE_SEQUENTIAL_SCAN_H_

#include <vector>

#include "core/branch_and_bound.h"
#include "core/similarity.h"
#include "storage/io_stats.h"
#include "txn/database.h"
#include "txn/delete_mask.h"
#include "txn/packed_target.h"
#include "util/hot_path.h"
#include "util/macros.h"
#include "util/metrics.h"

namespace mbi {

/// Exact k-nearest-neighbour search by scanning every transaction.
///
/// This is both the "straightforward solution" the paper's introduction
/// dismisses for very large collections and the ground-truth oracle the
/// test suite and accuracy experiments compare against. When a non-null
/// `stats` is supplied, the scan charges one transaction fetch per row and
/// page reads as if streaming a sequential layout with the given page size —
/// both FindKNearest and FindInRange use the same charging model, so the
/// quarantine fallback reports real I/O for range queries too.
class SequentialScanner {
 public:
  /// With a non-null `layout` (a blocked candidate bitmap, see
  /// txn/candidate_layout.h), single-target scans stream the dense rows
  /// through the runtime-dispatched SIMD match kernel in fixed-size chunks.
  /// The layout must cover every database row when a query runs; a scan
  /// over a database that outgrew it aborts. The default (null) keeps the
  /// per-candidate probe, preserving this class's role as an independent
  /// oracle. Results are bit-identical either way.
  ///
  /// With a non-null `deleted` (a dyn part's delete marks, borrowed) every
  /// scan skips marked rows: they are still read and charged, never scored.
  explicit SequentialScanner(const TransactionDatabase* database,
                             const CandidateLayout* layout = nullptr,
                             const DeleteMask* deleted = nullptr);

  /// Enables aggregate instrumentation: per-query counters and a latency
  /// histogram in `registry` (names mbi.scan.*, see DESIGN.md §8). Pass
  /// nullptr to disable (the default — the oracle role of this class must
  /// not pay for metrics).
  void set_metrics(MetricsRegistry* registry);

  /// Exact k best neighbours, best first (ties: ascending id).
  std::vector<Neighbor> FindKNearest(const Transaction& target,
                                     const SimilarityFamily& family, size_t k,
                                     IoStats* stats = nullptr,
                                     uint32_t page_size_bytes = 4096) const;

  /// Budget-aware variant filling a full NearestNeighborResult (certificate
  /// included) — the form the quarantine fallback propagates, so termination
  /// fields are never dropped. One scanned row costs one "entry" against
  /// QueryBudget::max_entries (the same unit the branch-and-bound path
  /// charges); the budget is checked between kScanChunk-row chunks, so a
  /// scan may overshoot the entry budget by at most kScanChunk - 1 rows and
  /// always scores at least one chunk. On expiry the returned prefix top-k
  /// is certified with f(|target|, 0), a pointwise optimistic bound for
  /// every admissible similarity (matches cannot exceed the target size and
  /// the Hamming distance cannot go below zero).
  void FindKNearest(const Transaction& target, const SimilarityFamily& family,
                    size_t k, const QueryBudget& budget,
                    NearestNeighborResult* result,
                    uint32_t page_size_bytes = 4096) const;

  /// Budget-aware range query (see the budget-aware FindKNearest).
  void FindInRange(const Transaction& target, const SimilarityFamily& family,
                   double threshold, const QueryBudget& budget,
                   RangeQueryResult* result,
                   uint32_t page_size_bytes = 4096) const;

  /// Rows scored per budget check in the budget-aware scans.
  static constexpr size_t kScanChunk = 256;

  /// How far a budgeted scan got: row accounting feeds the entries_* stats
  /// (row units — the stats-unit contract in DESIGN.md §13.4), termination
  /// the certificate.
  struct ScanOutcome {
    QueryTermination termination = QueryTermination::kCompleted;
    uint64_t rows_total = 0;
    uint64_t rows_scanned = 0;
  };

  /// Exact multi-target variant: maximizes average similarity to `targets`.
  std::vector<Neighbor> FindKNearestMultiTarget(
      const std::vector<Transaction>& targets, const SimilarityFamily& family,
      size_t k) const;

  /// Exact range query: every transaction with f >= threshold, best first.
  /// Charges the same streaming I/O as FindKNearest when `stats` is given.
  std::vector<Neighbor> FindInRange(const Transaction& target,
                                    const SimilarityFamily& family,
                                    double threshold, IoStats* stats = nullptr,
                                    uint32_t page_size_bytes = 4096) const;

 private:
  struct MetricHandles {
    Counter* knn_queries = nullptr;
    Counter* range_queries = nullptr;
    Counter* transactions_scanned = nullptr;
    LatencyHistogram* latency = nullptr;
  };

  void RecordScan(bool is_range, double elapsed_us) const;

  /// The scan's inner loop: scores transactions against the packed target in
  /// kScanChunk-row chunks, appending to the caller-owned `scored` buffer
  /// and charging the streaming I/O model, until the database is exhausted
  /// or `budget` expires (checked between chunks, always after at least one
  /// chunk). MBI_HOT: growth of `*scored` aside, the loop must not allocate
  /// (util/hot_path.h).
  MBI_HOT ScanOutcome ScoreAllCandidates(const PackedTarget& packed,
                                         const SimilarityFunction& similarity,
                                         IoStats* stats,
                                         uint32_t page_size_bytes,
                                         const QueryBudget& budget,
                                         std::vector<Neighbor>* scored) const;

  /// The layout this query scans, or null for the probe path. A bound
  /// layout must cover every current database row.
  const CandidateLayout* EffectiveLayout() const {
    MBI_CHECK_MSG(
        layout_ == nullptr || layout_->num_rows() >= database_->size(),
        "candidate layout must cover every database row");
    return layout_;
  }

  /// True when `id` carries a delete mark (never, without a mask).
  bool Deleted(TransactionId id) const {
    return deleted_ != nullptr && deleted_->IsMarked(id);
  }

  const TransactionDatabase* database_;
  const CandidateLayout* layout_;
  const DeleteMask* deleted_;
  MetricHandles metrics_;
  bool metrics_enabled_ = false;
};

}  // namespace mbi

#endif  // MBI_BASELINE_SEQUENTIAL_SCAN_H_
