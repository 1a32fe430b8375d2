#include "engine/engine.h"

#include <limits>
#include <optional>
#include <utility>

#include "core/batch_query.h"
#include "util/deadline_clock.h"

namespace mbi {

SignatureTableEngine::SignatureTableEngine(const TransactionDatabase* database)
    : database_(database), scanner_(database, &layout_) {
  // After the scanner's null check: the layout address handed to the
  // scanner stays valid across this assignment.
  layout_ = CandidateLayout::Build(*database_);
}

Status SignatureTableEngine::OpenIndex(const std::string& path, Env* env) {
  StatusOr<SignatureTable> loaded = LoadSignatureTable(path, *database_, env);
  if (loaded.ok()) {
    AdoptTable(std::move(loaded).value());
    return Status::Ok();
  }
  if (loaded.status().code() == StatusCode::kCorruption) {
    engine_.reset();
    table_.reset();
    {
      MutexLock lock(&state_mu_);
      quarantined_ = true;
      quarantine_reason_ = loaded.status();
    }
    if (metrics_enabled_) metrics_.quarantined->Set(1.0);
  }
  return loaded.status();
}

void SignatureTableEngine::AdoptTable(SignatureTable table) {
  engine_.reset();  // Points into the old table; drop it first.
  table_.emplace(std::move(table));
  table_->set_metrics(metrics_registry_);
  engine_.emplace(database_, &*table_, &layout_);
  {
    MutexLock lock(&state_mu_);
    quarantined_ = false;
    quarantine_reason_ = Status::Ok();
  }
  if (metrics_enabled_) metrics_.quarantined->Set(0.0);
}

void SignatureTableEngine::set_metrics(MetricsRegistry* registry) {
  metrics_registry_ = registry;
  scanner_.set_metrics(registry);
  if (table_.has_value()) table_->set_metrics(registry);
  if (registry == nullptr) {
    metrics_ = MetricHandles{};
    metrics_enabled_ = false;
    return;
  }
  metrics_.knn_queries = registry->GetCounter(
      "mbi.engine.query.knn", "queries", "k-NN queries answered");
  metrics_.range_queries = registry->GetCounter(
      "mbi.engine.query.range", "queries", "range queries answered");
  metrics_.fallbacks =
      registry->GetCounter("mbi.engine.query.fallback", "queries",
                           "queries served by the sequential fallback");
  metrics_.entries_considered =
      registry->GetCounter("mbi.engine.entries.considered", "entries",
                           "occupied table entries considered");
  metrics_.entries_scanned = registry->GetCounter(
      "mbi.engine.entries.scanned", "entries", "table entries scanned");
  metrics_.entries_pruned =
      registry->GetCounter("mbi.engine.entries.pruned", "entries",
                           "table entries pruned by the optimistic bound");
  metrics_.entries_unexplored =
      registry->GetCounter("mbi.engine.entries.unexplored", "entries",
                           "table entries left unexplored at termination");
  metrics_.transactions_evaluated =
      registry->GetCounter("mbi.engine.transactions.evaluated", "transactions",
                           "transactions fetched and scored");
  metrics_.pages_read = registry->GetCounter(
      "mbi.engine.io.pages_read", "pages", "physical page reads by queries");
  metrics_.pages_cached =
      registry->GetCounter("mbi.engine.io.pages_cached", "pages",
                           "page reads served from cache by queries");
  metrics_.bytes_read = registry->GetCounter(
      "mbi.engine.io.bytes_read", "bytes", "bytes read by queries");
  metrics_.transactions_fetched =
      registry->GetCounter("mbi.engine.io.transactions_fetched", "transactions",
                           "transaction fetches from the simulated disk");
  metrics_.knn_latency = registry->GetHistogram("mbi.engine.latency.knn", "us",
                                                "k-NN query latency");
  metrics_.range_latency = registry->GetHistogram(
      "mbi.engine.latency.range", "us", "range query latency");
  metrics_.quarantined = registry->GetGauge(
      "mbi.engine.quarantined", "bool", "1 while the index is quarantined");
  metrics_.quarantined->Set(quarantined() ? 1.0 : 0.0);
  metrics_.degraded =
      registry->GetCounter("mbi.engine.query.degraded", "queries",
                           "queries answered with a certified non-exact "
                           "(budget- or fraction-limited) result");
  metrics_.deadline_expired =
      registry->GetCounter("mbi.engine.query.deadline_expired", "queries",
                           "queries cut short by a QueryBudget deadline");
  metrics_.cancelled =
      registry->GetCounter("mbi.engine.query.cancelled", "queries",
                           "queries cut short by a cancellation token");
  metrics_enabled_ = true;
}

void SignatureTableEngine::RecordQueryStats(const QueryStats& stats,
                                            bool is_range) const {
  (is_range ? metrics_.range_queries : metrics_.knn_queries)->Increment();
  if (stats.sequential_fallbacks > 0) {
    metrics_.fallbacks->Increment(stats.sequential_fallbacks);
  }
  metrics_.entries_considered->Increment(stats.entries_total);
  metrics_.entries_scanned->Increment(stats.entries_scanned);
  metrics_.entries_pruned->Increment(stats.entries_pruned);
  metrics_.entries_unexplored->Increment(stats.entries_unexplored);
  metrics_.transactions_evaluated->Increment(stats.transactions_evaluated);
  metrics_.pages_read->Increment(stats.io.pages_read);
  metrics_.pages_cached->Increment(stats.io.pages_cached);
  metrics_.bytes_read->Increment(stats.io.bytes_read);
  metrics_.transactions_fetched->Increment(stats.io.transactions_fetched);
  if (!stats.is_exact) metrics_.degraded->Increment();
  if (stats.termination == QueryTermination::kDeadline) {
    metrics_.deadline_expired->Increment();
  } else if (stats.termination == QueryTermination::kCancelled) {
    metrics_.cancelled->Increment();
  }
}

void SignatureTableEngine::RecordQuery(const QueryStats& stats, bool is_range,
                                       double elapsed_us) const {
  RecordQueryStats(stats, is_range);
  (is_range ? metrics_.range_latency : metrics_.knn_latency)
      ->Record(elapsed_us);
}

void SignatureTableEngine::SequentialKNearest(
    const Transaction& target, const SimilarityFamily& family, size_t k,
    const QueryBudget& budget, NearestNeighborResult* result) const {
  fallback_queries_.fetch_add(1, std::memory_order_relaxed);
  // The budget-aware scanner fills the complete QueryStats — including the
  // termination / is_exact / certificate_bound trio, which an earlier
  // version of this path silently dropped by rebuilding the stats by hand
  // (query_budget_test pins the regression).
  scanner_.FindKNearest(target, family, k, budget, result);
  result->stats.sequential_fallbacks = 1;
}

RangeQueryResult SignatureTableEngine::SequentialInRange(
    const Transaction& target, const SimilarityFamily& family,
    double threshold, const QueryBudget& budget) const {
  fallback_queries_.fetch_add(1, std::memory_order_relaxed);
  RangeQueryResult result;
  scanner_.FindInRange(target, family, threshold, budget, &result);
  result.stats.sequential_fallbacks = 1;
  return result;
}

void SignatureTableEngine::FindKNearest(const Transaction& target,
                                        const SimilarityFamily& family,
                                        size_t k, const SearchOptions& options,
                                        QueryContext* context,
                                        NearestNeighborResult* result) const {
  MBI_CHECK(context != nullptr && result != nullptr);
  // Disabled metrics skip even the clock reads.
  const double start_us = metrics_enabled_ ? SteadyNowUs() : 0.0;
  if (healthy()) {
    engine_->FindKNearest(target, family, k, options, context, result);
  } else {
    // Same tightest-wins budget merge the branch-and-bound path applies.
    SequentialKNearest(target, family, k,
                       QueryBudget::Tightest(options.budget, context->budget()),
                       result);
  }
  if (metrics_enabled_) {
    RecordQuery(result->stats, /*is_range=*/false, SteadyNowUs() - start_us);
  }
}

NearestNeighborResult SignatureTableEngine::FindKNearest(
    const Transaction& target, const SimilarityFamily& family, size_t k,
    const SearchOptions& options, QueryContext* context) const {
  std::optional<QueryContext> fresh;
  if (context == nullptr) context = &fresh.emplace();
  NearestNeighborResult result;
  FindKNearest(target, family, k, options, context, &result);
  return result;
}

RangeQueryResult SignatureTableEngine::FindInRangeImpl(
    const Transaction& target, const SimilarityFamily& family,
    double threshold, const SearchOptions& options) const {
  if (!healthy()) {
    return SequentialInRange(target, family, threshold, options.budget);
  }
  return engine_->FindInRange(target, family, threshold, options);
}

RangeQueryResult SignatureTableEngine::FindInRange(
    const Transaction& target, const SimilarityFamily& family,
    double threshold, const SearchOptions& options) const {
  if (!metrics_enabled_) {
    return FindInRangeImpl(target, family, threshold, options);
  }
  ScopedTimer timer(nullptr);
  RangeQueryResult result = FindInRangeImpl(target, family, threshold, options);
  RecordQuery(result.stats, /*is_range=*/true, timer.ElapsedUs());
  return result;
}

std::vector<NearestNeighborResult> SignatureTableEngine::FindKNearestBatch(
    const std::vector<Transaction>& targets, const SimilarityFamily& family,
    size_t k, const SearchOptions& options, size_t num_threads,
    ThreadPool* pool) const {
  std::vector<NearestNeighborResult> results;
  if (healthy()) {
    results = mbi::FindKNearestBatch(*engine_, targets, family, k, options,
                                     num_threads, pool);
  } else {
    // Degraded mode: answer each target exactly via the scanner. Parallelism
    // is not worth preserving here — the whole mode exists to limp along
    // until the index is rebuilt.
    results.resize(targets.size());
    for (size_t i = 0; i < targets.size(); ++i) {
      SequentialKNearest(targets[i], family, k, options.budget, &results[i]);
    }
  }
  if (metrics_enabled_) {
    // Per-query wall time is not observable inside the fan-out, so the batch
    // records counters only; the latency histograms stay single-query.
    for (const NearestNeighborResult& result : results) {
      RecordQueryStats(result.stats, /*is_range=*/false);
    }
  }
  return results;
}

StatusOr<std::vector<NearestNeighborResult>>
SignatureTableEngine::FindKNearestBatchAdmitted(
    AdmissionController* controller, const std::vector<Transaction>& targets,
    const SimilarityFamily& family, size_t k, const SearchOptions& options,
    size_t num_threads, ThreadPool* pool) const {
  MBI_CHECK(controller != nullptr);
  SearchOptions admitted = options;
  AdmissionSlot slot(controller, &admitted.budget);
  if (!slot.ok()) return slot.status();
  return FindKNearestBatch(targets, family, k, admitted, num_threads, pool);
}

}  // namespace mbi
