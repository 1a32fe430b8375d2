#include "baseline/sequential_scan.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "storage/page_store.h"
#include "txn/packed_target.h"
#include "util/macros.h"

namespace mbi {
namespace {

void SortBestFirst(std::vector<Neighbor>* neighbors) {
  std::sort(neighbors->begin(), neighbors->end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.id < b.id;
            });
}

/// Streaming-layout I/O model shared by every scan: one transaction fetch
/// per row, a page read whenever the current page cannot hold the next row.
class SequentialIoCharger {
 public:
  SequentialIoCharger(IoStats* stats, uint32_t page_size_bytes)
      : stats_(stats), page_size_bytes_(page_size_bytes) {}

  void Charge(const Transaction& candidate) {
    if (stats_ == nullptr) return;
    ++stats_->transactions_fetched;
    const uint64_t need = PageStore::SerializedSize(candidate);
    if (page_bytes_used_ == 0 ||
        page_bytes_used_ + need > page_size_bytes_) {
      ++stats_->pages_read;
      stats_->bytes_read += page_size_bytes_;
      page_bytes_used_ = 0;
    }
    page_bytes_used_ += need;
  }

 private:
  IoStats* stats_;
  uint32_t page_size_bytes_;
  uint64_t page_bytes_used_ = 0;
};

}  // namespace

SequentialScanner::SequentialScanner(const TransactionDatabase* database,
                                     const CandidateLayout* layout,
                                     const DeleteMask* deleted)
    : database_(database), layout_(layout), deleted_(deleted) {
  MBI_CHECK(database != nullptr);
}

void SequentialScanner::set_metrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = MetricHandles{};
    metrics_enabled_ = false;
    return;
  }
  metrics_.knn_queries = registry->GetCounter(
      "mbi.scan.query.knn", "queries", "sequential-scan k-NN queries");
  metrics_.range_queries = registry->GetCounter(
      "mbi.scan.query.range", "queries", "sequential-scan range queries");
  metrics_.transactions_scanned = registry->GetCounter(
      "mbi.scan.transactions.scanned", "transactions",
      "transactions evaluated by sequential scans");
  metrics_.latency = registry->GetHistogram(
      "mbi.scan.latency", "us", "sequential-scan query latency");
  metrics_enabled_ = true;
}

void SequentialScanner::RecordScan(bool is_range, double elapsed_us) const {
  if (!metrics_enabled_) return;
  (is_range ? metrics_.range_queries : metrics_.knn_queries)->Increment();
  metrics_.transactions_scanned->Increment(database_->size());
  metrics_.latency->Record(elapsed_us);
}

MBI_HOT SequentialScanner::ScanOutcome SequentialScanner::ScoreAllCandidates(
    const PackedTarget& packed, const SimilarityFunction& similarity,
    IoStats* stats, uint32_t page_size_bytes, const QueryBudget& budget,
    std::vector<Neighbor>* scored) const {
  SequentialIoCharger charger(stats, page_size_bytes);
  const size_t n = database_->size();
  ScanOutcome outcome;
  outcome.rows_total = n;
  const bool budget_limited = budget.limited();
  // SIMD match-kernel output for one chunk (layout path). The buffers live
  // on the stack (const method, no mutable scratch), so the zero-allocation
  // contract holds without state.
  uint32_t match[kScanChunk];
  uint32_t hamming[kScanChunk];
  const bool use_layout = packed.has_layout();
  for (size_t base = 0; base < n; base += kScanChunk) {
    // Budget check between chunks, never before the first: a degraded scan
    // always carries at least kScanChunk real candidates (or the whole
    // database if smaller), mirroring RunKNearest's min-one-entry rule.
    // Rows — not chunks — are charged against max_entries so the scan path
    // enforces the budget in the same unit as branch-and-bound; checking at
    // chunk boundaries bounds the overshoot at kScanChunk - 1 rows.
    if (budget_limited && outcome.rows_scanned > 0) {
      if (budget.cancelled()) {
        outcome.termination = QueryTermination::kCancelled;
        break;
      }
      if (outcome.rows_scanned >= budget.max_entries) {
        outcome.termination = QueryTermination::kEntryBudget;
        break;
      }
      if (budget.deadline_expired()) {
        outcome.termination = QueryTermination::kDeadline;
        break;
      }
    }
    const size_t len = std::min(kScanChunk, n - base);
    if (use_layout) {
      // Stream the blocked layout through the SIMD match kernel.
      packed.MatchAndHammingRows(static_cast<TransactionId>(base), len, match,
                                 hamming);
      for (size_t i = 0; i < len; ++i) {
        const auto id = static_cast<TransactionId>(base + i);
        charger.Charge(database_->Get(id));
        if (Deleted(id)) continue;
        scored->push_back(
            {id, similarity.Evaluate(static_cast<int>(match[i]),
                                     static_cast<int>(hamming[i]))});
      }
    } else {
      for (size_t i = 0; i < len; ++i) {
        const auto id = static_cast<TransactionId>(base + i);
        const Transaction& candidate = database_->Get(id);
        charger.Charge(candidate);
        if (Deleted(id)) continue;
        size_t m = 0, h = 0;
        packed.MatchAndHamming(candidate, &m, &h);
        scored->push_back({id, similarity.Evaluate(static_cast<int>(m),
                                                   static_cast<int>(h))});
      }
    }
    outcome.rows_scanned += len;
  }
  return outcome;
}

std::vector<Neighbor> SequentialScanner::FindKNearest(
    const Transaction& target, const SimilarityFamily& family, size_t k,
    IoStats* stats, uint32_t page_size_bytes) const {
  MBI_CHECK(k >= 1);
  ScopedTimer timer(nullptr);
  std::unique_ptr<SimilarityFunction> similarity = family.ForTarget(target);

  PackedTarget packed;
  packed.Assign(target, database_->universe_size(), EffectiveLayout());
  std::vector<Neighbor> scored;
  scored.reserve(database_->size());
  ScoreAllCandidates(packed, *similarity, stats, page_size_bytes,
                     QueryBudget{}, &scored);
  SortBestFirst(&scored);
  if (scored.size() > k) scored.resize(k);
  RecordScan(/*is_range=*/false, timer.ElapsedUs());
  return scored;
}

namespace {

/// Shared stats fill for the budget-aware scans: row accounting maps onto
/// the entries_* fields (one row = one "entry", the same unit the
/// branch-and-bound path charges — DESIGN.md §13.4 stats-unit contract), and
/// an incomplete scan is certified with f(|target|, 0) — no unscanned
/// transaction can match more than the whole target or differ by less than
/// nothing, so for admissible f (monotone up in matches, down in Hamming)
/// this bound dominates every skipped similarity (Lemma 2.1 in pointwise
/// form).
void FillScanStats(const SequentialScanner::ScanOutcome& outcome,
                   const SimilarityFunction& similarity,
                   const Transaction& target, uint64_t evaluated,
                   uint64_t database_size, QueryStats* stats) {
  stats->database_size = database_size;
  stats->entries_total = outcome.rows_total;
  stats->entries_scanned = outcome.rows_scanned;
  stats->entries_unexplored = outcome.rows_total - outcome.rows_scanned;
  stats->transactions_evaluated = evaluated;
  stats->termination = outcome.termination;
  stats->is_exact = outcome.termination == QueryTermination::kCompleted;
  stats->certificate_bound =
      stats->is_exact
          ? -std::numeric_limits<double>::infinity()
          : similarity.Evaluate(static_cast<int>(target.size()), 0);
}

}  // namespace

void SequentialScanner::FindKNearest(const Transaction& target,
                                     const SimilarityFamily& family, size_t k,
                                     const QueryBudget& budget,
                                     NearestNeighborResult* result,
                                     uint32_t page_size_bytes) const {
  MBI_CHECK(k >= 1);
  MBI_CHECK(result != nullptr);
  ScopedTimer timer(nullptr);
  std::unique_ptr<SimilarityFunction> similarity = family.ForTarget(target);

  PackedTarget packed;
  packed.Assign(target, database_->universe_size(), EffectiveLayout());
  result->neighbors.clear();
  result->trace.clear();
  result->stats = QueryStats{};
  std::vector<Neighbor> scored;
  scored.reserve(database_->size());
  const ScanOutcome outcome =
      ScoreAllCandidates(packed, *similarity, &result->stats.io,
                         page_size_bytes, budget, &scored);
  const auto evaluated = static_cast<uint64_t>(scored.size());
  SortBestFirst(&scored);
  if (scored.size() > k) scored.resize(k);
  result->neighbors = std::move(scored);
  FillScanStats(outcome, *similarity, target, evaluated, database_->size(),
                &result->stats);
  result->guaranteed_exact = result->stats.is_exact;
  result->unexplored_optimistic_bound = result->stats.certificate_bound;
  result->best_unscanned_bound = result->stats.certificate_bound;
  RecordScan(/*is_range=*/false, timer.ElapsedUs());
}

void SequentialScanner::FindInRange(const Transaction& target,
                                    const SimilarityFamily& family,
                                    double threshold, const QueryBudget& budget,
                                    RangeQueryResult* result,
                                    uint32_t page_size_bytes) const {
  MBI_CHECK(result != nullptr);
  ScopedTimer timer(nullptr);
  std::unique_ptr<SimilarityFunction> similarity = family.ForTarget(target);
  PackedTarget packed;
  packed.Assign(target, database_->universe_size(), EffectiveLayout());
  result->matches.clear();
  result->stats = QueryStats{};
  std::vector<Neighbor> scored;
  scored.reserve(database_->size());
  const ScanOutcome outcome =
      ScoreAllCandidates(packed, *similarity, &result->stats.io,
                         page_size_bytes, budget, &scored);
  const auto evaluated = static_cast<uint64_t>(scored.size());
  for (const Neighbor& neighbor : scored) {
    if (neighbor.similarity >= threshold) result->matches.push_back(neighbor);
  }
  SortBestFirst(&result->matches);
  FillScanStats(outcome, *similarity, target, evaluated, database_->size(),
                &result->stats);
  result->guaranteed_complete = result->stats.is_exact;
  RecordScan(/*is_range=*/true, timer.ElapsedUs());
}

std::vector<Neighbor> SequentialScanner::FindKNearestMultiTarget(
    const std::vector<Transaction>& targets, const SimilarityFamily& family,
    size_t k) const {
  MBI_CHECK(k >= 1);
  MBI_CHECK(!targets.empty());
  std::vector<std::unique_ptr<SimilarityFunction>> functions;
  std::vector<PackedTarget> packed(targets.size());
  functions.reserve(targets.size());
  for (size_t t = 0; t < targets.size(); ++t) {
    functions.push_back(family.ForTarget(targets[t]));
    packed[t].Assign(targets[t], database_->universe_size());
  }
  std::vector<Neighbor> scored;
  scored.reserve(database_->size());
  for (TransactionId id = 0; id < database_->size(); ++id) {
    if (Deleted(id)) continue;
    const Transaction& candidate = database_->Get(id);
    double sum = 0.0;
    for (size_t t = 0; t < targets.size(); ++t) {
      size_t match = 0, hamming = 0;
      packed[t].MatchAndHamming(candidate, &match, &hamming);
      sum += functions[t]->Evaluate(static_cast<int>(match),
                                    static_cast<int>(hamming));
    }
    scored.push_back({id, sum / static_cast<double>(targets.size())});
  }
  SortBestFirst(&scored);
  if (scored.size() > k) scored.resize(k);
  return scored;
}

std::vector<Neighbor> SequentialScanner::FindInRange(
    const Transaction& target, const SimilarityFamily& family,
    double threshold, IoStats* stats, uint32_t page_size_bytes) const {
  ScopedTimer timer(nullptr);
  std::unique_ptr<SimilarityFunction> similarity = family.ForTarget(target);
  PackedTarget packed;
  packed.Assign(target, database_->universe_size(), EffectiveLayout());
  SequentialIoCharger charger(stats, page_size_bytes);
  std::vector<Neighbor> matches;
  if (packed.has_layout()) {
    constexpr size_t kChunk = 256;
    uint32_t match[kChunk];
    uint32_t hamming[kChunk];
    const size_t n = database_->size();
    for (size_t base = 0; base < n; base += kChunk) {
      const size_t len = std::min(kChunk, n - base);
      packed.MatchAndHammingRows(static_cast<TransactionId>(base), len, match,
                                 hamming);
      for (size_t i = 0; i < len; ++i) {
        const auto id = static_cast<TransactionId>(base + i);
        charger.Charge(database_->Get(id));
        if (Deleted(id)) continue;
        double value = similarity->Evaluate(static_cast<int>(match[i]),
                                            static_cast<int>(hamming[i]));
        if (value >= threshold) matches.push_back({id, value});
      }
    }
  } else {
    for (TransactionId id = 0; id < database_->size(); ++id) {
      const Transaction& candidate = database_->Get(id);
      charger.Charge(candidate);
      if (Deleted(id)) continue;
      size_t match = 0, hamming = 0;
      packed.MatchAndHamming(candidate, &match, &hamming);
      double value = similarity->Evaluate(static_cast<int>(match),
                                          static_cast<int>(hamming));
      if (value >= threshold) matches.push_back({id, value});
    }
  }
  SortBestFirst(&matches);
  RecordScan(/*is_range=*/true, timer.ElapsedUs());
  return matches;
}

}  // namespace mbi
