#include "baseline/sequential_scan.h"

#include <algorithm>
#include <utility>

#include "storage/page_store.h"
#include "util/macros.h"

namespace mbi {
namespace {

void SortBestFirst(std::vector<Neighbor>* neighbors) {
  std::sort(neighbors->begin(), neighbors->end(), BestFirst());
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

template <typename Sink>
MBI_HOT void SequentialScanner::Scan(RowScorer& scorer,
                                     const QueryBudget& budget, IoStats* io,
                                     uint32_t page_size_bytes, Sink& sink,
                                     QueryStats* stats) const {
  SequentialIoCharger charger(io, page_size_bytes);
  // A delete-marked row is read and charged, never offered to the sink.
  auto live = [&](TransactionId id, double score) {
    if (!Deleted(id)) sink(id, score);
  };
  const ScanOutcome outcome = ScanInChunks(
      database_->size(), budget, [&](size_t begin, size_t count) {
        const auto first = static_cast<TransactionId>(begin);
        const auto end = static_cast<TransactionId>(begin + count);
        if (io != nullptr) {
          for (TransactionId id = first; id < end; ++id) {
            charger.Charge(database_->Get(id));
          }
        }
        if (scorer.has_layout()) {
          scorer.ScoreRows(first, count, live);
          return;
        }
        for (TransactionId id = first; id < end; ++id) {
          if (!Deleted(id)) sink(id, scorer.Score(database_->Get(id)));
        }
      });
  // An incomplete scan is certified with the pointwise bound f(|target|, 0)
  // (RowScorer::PointwiseBound), which dominates every skipped row.
  FillScanStats(outcome, sink.scored, database_->size(),
                scorer.PointwiseBound(), stats);
}

void SequentialScanner::KNearest(std::span<const Transaction> targets,
                                 const SimilarityFamily& family, size_t k,
                                 const QueryBudget& budget, IoStats* io,
                                 uint32_t page_size_bytes,
                                 NearestNeighborResult* result) const {
  MBI_CHECK(k >= 1);
  MBI_CHECK(result != nullptr);
  ScopedTimer timer(nullptr);
  RowScorer scorer;
  scorer.Bind(targets, family, database_->universe_size(), EffectiveLayout());
  result->neighbors.clear();
  result->trace.clear();
  result->stats = QueryStats{};
  TopKSink sink{k, &result->neighbors};
  Scan(scorer, budget, io, page_size_bytes, sink, &result->stats);
  SortBestFirst(&result->neighbors);
  RecordScan(/*is_range=*/false, timer.ElapsedUs());
}

void SequentialScanner::InRange(const Transaction& target,
                                const SimilarityFamily& family,
                                double threshold, const QueryBudget& budget,
                                IoStats* io, uint32_t page_size_bytes,
                                RangeQueryResult* result) const {
  MBI_CHECK(result != nullptr);
  ScopedTimer timer(nullptr);
  RowScorer scorer;
  scorer.Bind({&target, 1}, family, database_->universe_size(),
              EffectiveLayout());
  result->matches.clear();
  result->stats = QueryStats{};
  RangeSink sink{threshold, &result->matches};
  Scan(scorer, budget, io, page_size_bytes, sink, &result->stats);
  SortBestFirst(&result->matches);
  RecordScan(/*is_range=*/true, timer.ElapsedUs());
}

std::vector<Neighbor> SequentialScanner::FindKNearest(
    const Transaction& target, const SimilarityFamily& family, size_t k,
    IoStats* stats, uint32_t page_size_bytes) const {
  NearestNeighborResult result;
  KNearest({&target, 1}, family, k, QueryBudget{}, stats, page_size_bytes,
           &result);
  return std::move(result.neighbors);
}

void SequentialScanner::FindKNearest(const Transaction& target,
                                     const SimilarityFamily& family, size_t k,
                                     const QueryBudget& budget,
                                     NearestNeighborResult* result,
                                     uint32_t page_size_bytes) const {
  MBI_CHECK(result != nullptr);
  KNearest({&target, 1}, family, k, budget, &result->stats.io,
           page_size_bytes, result);
}

void SequentialScanner::FindInRange(const Transaction& target,
                                    const SimilarityFamily& family,
                                    double threshold, const QueryBudget& budget,
                                    RangeQueryResult* result,
                                    uint32_t page_size_bytes) const {
  MBI_CHECK(result != nullptr);
  InRange(target, family, threshold, budget, &result->stats.io,
          page_size_bytes, result);
}

std::vector<Neighbor> SequentialScanner::FindKNearestMultiTarget(
    const std::vector<Transaction>& targets, const SimilarityFamily& family,
    size_t k) const {
  NearestNeighborResult result;
  KNearest(targets, family, k, QueryBudget{}, /*io=*/nullptr,
           /*page_size_bytes=*/4096, &result);
  return std::move(result.neighbors);
}

std::vector<Neighbor> SequentialScanner::FindInRange(
    const Transaction& target, const SimilarityFamily& family,
    double threshold, IoStats* stats, uint32_t page_size_bytes) const {
  RangeQueryResult result;
  InRange(target, family, threshold, QueryBudget{}, stats, page_size_bytes,
          &result);
  return std::move(result.matches);
}

}  // namespace mbi
