#ifndef MBI_BASELINE_INVERTED_INDEX_H_
#define MBI_BASELINE_INVERTED_INDEX_H_

#include <cstdint>
#include <vector>

#include "baseline/compressed_postings.h"
#include "core/branch_and_bound.h"
#include "core/row_scorer.h"
#include "core/similarity.h"
#include "storage/buffer_pool.h"
#include "storage/transaction_store.h"
#include "txn/candidate_layout.h"
#include "txn/database.h"
#include "util/metrics.h"

namespace mbi {

/// The inverted-index baseline of paper §5.1.
///
/// For every item, the index stores the ids of the transactions containing
/// it. A similarity query runs in two phases: (1) union the TID lists of the
/// target's items to form the candidate set; (2) fetch each candidate from
/// the database and score it. The paper's Table 1 reports the *minimum*
/// percentage of transactions such a query must access — the candidate-set
/// size — and argues that page scattering makes the real cost still higher
/// because candidates are spread over unrelated pages. Both effects are
/// measured here: logical candidates and distinct pages touched on a
/// sequential (arrival-order) layout.
///
/// Correctness caveat (also the paper's point): phase 1 only sees
/// transactions sharing at least one item with the target, so the two-phase
/// answer is exact only for similarity functions where a zero-match
/// transaction can never win (e.g. match count, match ratio, cosine — all
/// have f(0, y) <= f(x, y') for the winners). For functions like inverse
/// Hamming distance, a short transaction *disjoint* from the target can beat
/// every candidate; FindKNearest reports whether its answer is guaranteed by
/// construction via `candidates_complete`.
class InvertedIndex {
 public:
  /// Result of a two-phase k-NN query with access accounting.
  struct Result {
    std::vector<Neighbor> neighbors;  // Best first.
    /// Phase-1 candidate count (distinct TIDs in the union of lists).
    uint64_t candidates = 0;
    /// candidates / database size — Table 1's metric.
    double accessed_fraction = 0.0;
    /// Distinct data pages touched in phase 2 on the sequential layout
    /// (page-scattering effect) over total data pages.
    uint64_t pages_touched = 0;
    uint64_t pages_total = 0;
    /// False when the candidate set provably cannot be trusted to contain
    /// the true optimum for the supplied similarity family (zero-match
    /// transactions could win).
    bool candidates_complete = false;
    IoStats io;
    /// Budget accounting + quality certificate (termination, is_exact,
    /// certificate_bound), in the same shape as the engine's QueryStats.
    /// One "entry" is one phase-2 candidate row (the repo-wide stats unit;
    /// the budget is checked every kScanChunk candidates, bounding the
    /// overshoot at kScanChunk - 1).
    QueryStats stats;
  };

  /// Builds the index and a sequential page layout of `database`.
  /// `buffer_pool_pages` caches phase-2 page fetches (0 = no cache).
  /// With `compress_postings`, TID lists are stored delta+varint encoded
  /// (realistic IR index size accounting; query results are identical).
  explicit InvertedIndex(const TransactionDatabase* database,
                         uint32_t page_size_bytes = 4096,
                         size_t buffer_pool_pages = 0,
                         bool compress_postings = false);

  /// Enables aggregate instrumentation (names mbi.inverted.*, see DESIGN.md
  /// §8): query/candidate counters, a latency histogram, and — because each
  /// query builds its own BufferPool — per-query pool hit/miss traffic under
  /// mbi.bufferpool.*. Pass nullptr to disable (the default).
  void set_metrics(MetricsRegistry* registry);

  /// Phase 1 only: the candidate TIDs for `target`, ascending.
  std::vector<TransactionId> Candidates(const Transaction& target) const;

  /// Full two-phase k-NN.
  Result FindKNearest(const Transaction& target,
                      const SimilarityFamily& family, size_t k) const {
    return FindKNearest(target, family, k, QueryBudget{});
  }

  /// Budget-aware two-phase k-NN: phase 1 always completes (the union is
  /// the index's fixed cost), phase-2 re-ranking checks `budget` every
  /// kScanChunk candidates and, on expiry, returns the best of the scored
  /// prefix certified with f(|target|, 0) in Result::stats.
  Result FindKNearest(const Transaction& target, const SimilarityFamily& family,
                      size_t k, const QueryBudget& budget) const;

  /// Candidates re-ranked per budget check in phase 2.
  static constexpr size_t kScanChunk = kRowChunk;

  /// TID list of one item (decodes when the index is compressed).
  std::vector<TransactionId> PostingsOf(ItemId item) const;

  const TransactionDatabase& database() const { return *database_; }

  bool compressed() const { return compress_postings_; }

  /// Bytes of posting lists (index size accounting; compressed size when
  /// compression is on).
  uint64_t PostingsBytes() const;

  /// Walks the index and aborts (via MBI_CHECK) on any structural
  /// inconsistency: every posting list is strictly ascending with in-range
  /// ids (compressed lists are decoded first), the lists exactly mirror the
  /// database (transaction t appears in item i's list iff t contains i), and
  /// the sequential page layout maps every transaction to a page that
  /// actually holds it. O(total item occurrences · log); meant for tests and
  /// debug flags, not for query paths.
  void CheckInvariants() const;

 private:
  struct MetricHandles {
    Counter* queries = nullptr;
    Counter* candidates = nullptr;
    LatencyHistogram* latency = nullptr;
  };

  const TransactionDatabase* database_;
  bool compress_postings_;
  std::vector<std::vector<TransactionId>> postings_;           // Uncompressed.
  std::vector<CompressedPostingList> compressed_postings_;    // Compressed.
  TransactionStore sequential_store_;
  /// Blocked candidate bitmap for phase-2 re-ranking through the SIMD match
  /// kernel. Built with the postings, so it covers every candidate they
  /// can yield.
  CandidateLayout layout_;
  size_t buffer_pool_pages_;
  MetricsRegistry* metrics_registry_ = nullptr;
  MetricHandles metrics_;
};

}  // namespace mbi

#endif  // MBI_BASELINE_INVERTED_INDEX_H_
