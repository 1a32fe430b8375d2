#include "dyn/dynamic_index.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "core/batch_query.h"
#include "util/macros.h"

namespace mbi {

namespace {

/// The fan-out order: larger components first (their k best usually raise
/// the shared floor most), equal sizes by smallest gid so the order — and
/// with it every query's counts — is deterministic.
bool FansOutBefore(const std::shared_ptr<const DynComponent>& a,
                   const std::shared_ptr<const DynComponent>& b) {
  if (a->size() != b->size()) return a->size() > b->size();
  return a->gids.front() < b->gids.front();
}

}  // namespace

// --- DynComponent -----------------------------------------------------------

std::shared_ptr<const DynComponent> DynComponent::Create(
    int level, std::vector<TransactionId> gids, TransactionDatabase rows,
    const IndexBuildConfig& build, bool quarantine) {
  MBI_CHECK(gids.size() == rows.size());
  MBI_CHECK(!rows.empty());
  MBI_CHECK(std::is_sorted(gids.begin(), gids.end()));
  auto component = std::make_shared<DynComponent>(std::move(rows));
  component->level = level;
  component->gids = std::move(gids);
  component->layout = CandidateLayout::Build(component->rows);
  component->quarantined = quarantine;
  if (!quarantine) {
    component->table.emplace(BuildIndex(component->rows, build));
    component->engine.emplace(&component->rows, &component->table.value(),
                              &component->layout, &component->deleted);
  }
  component->scanner.emplace(&component->rows, &component->layout,
                             &component->deleted);
  return component;
}

std::shared_ptr<const DynComponent> DynComponent::CreateFromLoaded(
    int level, std::vector<TransactionId> gids, TransactionDatabase rows,
    std::optional<SignatureTable> table) {
  MBI_CHECK(gids.size() == rows.size());
  MBI_CHECK(!rows.empty());
  MBI_CHECK(std::is_sorted(gids.begin(), gids.end()));
  auto component = std::make_shared<DynComponent>(std::move(rows));
  component->level = level;
  component->gids = std::move(gids);
  component->layout = CandidateLayout::Build(component->rows);
  if (table.has_value()) {
    component->table.emplace(std::move(*table));
    component->engine.emplace(&component->rows, &component->table.value(),
                              &component->layout, &component->deleted);
  } else {
    component->quarantined = true;
  }
  component->scanner.emplace(&component->rows, &component->layout,
                             &component->deleted);
  return component;
}

size_t DynComponent::CarryDeletesInto(const DynComponent* merged) const {
  size_t purged = 0;
  deleted.ForEachMarked([&](size_t row) {
    const TransactionId gid = gids[row];
    if (merged != nullptr) {
      const auto it =
          std::lower_bound(merged->gids.begin(), merged->gids.end(), gid);
      if (it != merged->gids.end() && *it == gid) {
        merged->deleted.Mark(static_cast<size_t>(it - merged->gids.begin()));
        return;
      }
    }
    ++purged;
  });
  return purged;
}

// --- DynamicIndex: lifecycle ------------------------------------------------

DynamicIndex::DynamicIndex(size_t universe_size,
                           const DynamicIndexOptions& options)
    : universe_size_(universe_size),
      options_(options),
      scheduler_(options.pool, options.merge_deadline_ms),
      metrics_(MakeMetrics(options.metrics)) {
  MBI_CHECK(universe_size_ >= 1);
  MBI_CHECK(options_.buffer_capacity >= 1);
  MBI_CHECK(options_.level_fanout >= 2);
  MBI_CHECK(options_.max_l0_components >= 1);
  MutexLock lock(&mu_);
  state_.buffer = std::make_shared<MutableBuffer>(options_.buffer_capacity);
  UpdateGaugesLocked();
}

DynamicIndex::~DynamicIndex() {
  // Abandon pending reconstructions: RunMerge observes the cancellation at
  // its next phase boundary and returns without publishing.
  scheduler_.RequestStop();
  scheduler_.Drain();
}

DynamicIndex::Metrics DynamicIndex::MakeMetrics(MetricsRegistry* registry) {
  Metrics m;
  if (registry == nullptr) return m;
  m.inserts = registry->GetCounter("mbi.dyn.inserts", "rows", "Rows inserted");
  m.deletes =
      registry->GetCounter("mbi.dyn.deletes", "rows", "Rows deleted");
  m.spills = registry->GetCounter("mbi.dyn.spills", "spills",
                                  "Buffer spills into level 0");
  m.merges = registry->GetCounter("mbi.dyn.merges", "merges",
                                  "Level merges published");
  m.merges_abandoned =
      registry->GetCounter("mbi.dyn.merges_abandoned", "merges",
                           "Level merges abandoned (budget/shutdown)");
  m.backpressure =
      registry->GetCounter("mbi.dyn.backpressure", "rejections",
                           "Inserts rejected by admission control");
  m.queries = registry->GetCounter("mbi.dyn.queries", "queries",
                                   "Fan-out k-NN queries answered");
  m.components = registry->GetGauge("mbi.dyn.components", "components",
                                    "Published static components");
  m.tombstones = registry->GetGauge("mbi.dyn.tombstones", "rows",
                                    "Unpurged tombstones");
  m.buffer_fill = registry->GetGauge("mbi.dyn.buffer_fill", "rows",
                                     "Rows in the mutable buffer");
  m.live_rows =
      registry->GetGauge("mbi.dyn.live_rows", "rows", "Live (queryable) rows");
  m.merge_latency = registry->GetHistogram(
      "mbi.dyn.merge_latency", "us", "Background reconstruction latency");
  return m;
}

void DynamicIndex::UpdateGaugesLocked() {
  if (options_.metrics == nullptr) return;
  metrics_.components->Set(static_cast<double>(state_.components.size()));
  metrics_.tombstones->Set(static_cast<double>(tombstones_));
  metrics_.buffer_fill->Set(static_cast<double>(state_.buffer->size()));
  metrics_.live_rows->Set(static_cast<double>(live_rows_));
}

// --- Writes -----------------------------------------------------------------

StatusOr<TransactionId> DynamicIndex::Insert(const Transaction& txn) {
  std::optional<MergePlan> plan;
  TransactionId gid;
  {
    MutexLock lock(&mu_);
    if (state_.buffer->full()) {
      // The eager spill below was blocked by backpressure on an earlier
      // insert; re-check admission before accepting more rows.
      if (merge_in_flight_ &&
          CountAtLevelLocked(0) >= options_.max_l0_components) {
        if (metrics_.backpressure != nullptr) {
          metrics_.backpressure->Increment();
        }
        return Status::Unavailable(
            "dynamic index overloaded: level 0 at capacity behind an "
            "in-flight merge; retry_after_ms=" +
            std::to_string(options_.admission_retry_after_ms));
      }
      SpillLocked();
      plan = MaybeStartMergeLocked();
    }
    gid = next_gid_++;
    MBI_CHECK(state_.buffer->Append(gid, txn));
    ++live_rows_;
    // Eager spill: freeze the buffer the moment it fills so buffer_capacity
    // bounds the un-indexed scan prefix. Skipped while backpressured (L0
    // saturated behind a merge) — the next insert re-checks admission above.
    if (state_.buffer->full() &&
        !(merge_in_flight_ &&
          CountAtLevelLocked(0) >= options_.max_l0_components)) {
      SpillLocked();
      if (!plan.has_value()) plan = MaybeStartMergeLocked();
    }
    if (metrics_.inserts != nullptr) metrics_.inserts->Increment();
    UpdateGaugesLocked();
  }
  // Outside mu_: the inline (null-pool) scheduler runs the merge right here
  // on the inserting thread, and its publish phase re-acquires mu_.
  if (plan.has_value()) SubmitMerge(std::move(*plan));
  return gid;
}

Status DynamicIndex::AppendRowLocked(TransactionId gid,
                                     const Transaction& txn) {
  // Load path: replays persisted rows with their original gids, spilling as
  // the (possibly reconfigured) buffer capacity dictates. No admission
  // control — a load must either fully succeed or fail.
  MBI_CHECK(state_.buffer->Append(gid, txn));
  ++live_rows_;
  if (state_.buffer->full()) SpillLocked();
  return Status::Ok();
}

void DynamicIndex::SpillLocked() {
  const MutableBuffer& buffer = *state_.buffer;
  const size_t n = buffer.size();
  MBI_CHECK(n >= 1);

  // Freeze the live prefix; deleted buffer rows die here (the row never
  // reaches a component, so its mark is purged).
  std::vector<TransactionId> gids;
  TransactionDatabase rows(static_cast<uint32_t>(universe_size_));
  gids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (buffer.deleted().IsMarked(i)) continue;
    const BufferedRow& row = buffer.row(i);
    gids.push_back(row.gid);
    rows.Add(row.txn);
  }
  tombstones_ -= n - gids.size();
  if (!gids.empty()) {
    InsertInFanOutOrder(DynComponent::Create(/*level=*/0, std::move(gids),
                                             std::move(rows), options_.build),
                        &state_.components);
  }
  state_.buffer = std::make_shared<MutableBuffer>(options_.buffer_capacity);
  if (metrics_.spills != nullptr) metrics_.spills->Increment();
}

Status DynamicIndex::Delete(TransactionId gid) {
  MutexLock lock(&mu_);
  if (gid >= next_gid_) {
    return Status::NotFound("gid was never assigned");
  }
  MBI_RETURN_IF_ERROR(MarkDeletedLocked(gid));
  --live_rows_;
  if (metrics_.deletes != nullptr) metrics_.deletes->Increment();
  UpdateGaugesLocked();
  return Status::Ok();
}

Status DynamicIndex::MarkDeletedLocked(TransactionId gid) {
  // The mark is set in place: queries holding a snapshot see it from their
  // next read of that row on, and nothing proportional to the number of
  // deletes is copied.
  bool marked = false;
  bool found = false;
  for (const auto& component : state_.components) {
    const auto it =
        std::lower_bound(component->gids.begin(), component->gids.end(), gid);
    if (it != component->gids.end() && *it == gid) {
      found = true;
      marked = component->deleted.Mark(
          static_cast<size_t>(it - component->gids.begin()));
      break;
    }
  }
  const size_t n = state_.buffer->size();
  for (size_t i = 0; i < n && !found; ++i) {
    if (state_.buffer->row(i).gid == gid) {
      found = true;
      marked = state_.buffer->deleted().Mark(i);
    }
  }
  if (!found) return Status::NotFound("row already deleted and purged");
  if (!marked) return Status::NotFound("row already deleted");
  ++tombstones_;
  return Status::Ok();
}

// --- Merging ----------------------------------------------------------------

size_t DynamicIndex::CountAtLevelLocked(int level) const {
  size_t count = 0;
  for (const auto& component : state_.components) {
    if (component->level == level) ++count;
  }
  return count;
}

std::optional<DynamicIndex::MergePlan> DynamicIndex::MaybeStartMergeLocked() {
  if (merge_in_flight_ || scheduler_.stopping()) return std::nullopt;
  int max_level = -1;
  for (const auto& component : state_.components) {
    max_level = std::max(max_level, component->level);
  }
  // One merge in flight at a time, lowest overflowing level first; cascades
  // re-check at publish.
  for (int level = 0; level <= max_level; ++level) {
    if (CountAtLevelLocked(level) < options_.level_fanout) continue;
    MergePlan plan;
    plan.out_level = level + 1;
    for (const auto& component : state_.components) {
      if (component->level == level) plan.victims.push_back(component);
    }
    merge_in_flight_ = true;
    return plan;
  }
  return std::nullopt;
}

void DynamicIndex::SubmitMerge(MergePlan plan) {
  const bool accepted = scheduler_.Submit(
      [this, plan = std::move(plan)](const QueryBudget& budget) {
        RunMerge(plan, budget);
      });
  if (!accepted) {
    // Shutting down: the claim must be unwound or writers wedge forever.
    MutexLock lock(&mu_);
    AbandonMergeLocked();
  }
}

void DynamicIndex::RunMerge(const MergePlan& plan, const QueryBudget& budget) {
  ScopedTimer timer(metrics_.merge_latency);
  // Phase 1: gather. Victim rows are immutable, so no lock is needed; rows
  // marked deleted by now die, and rows marked later are re-marked on the
  // merged component at publish.
  if (budget.cancelled() || budget.deadline_expired()) {
    MutexLock lock(&mu_);
    AbandonMergeLocked();
    return;
  }
  struct GatheredRow {
    TransactionId gid;
    const Transaction* txn;
  };
  std::vector<GatheredRow> gathered;
  for (const auto& victim : plan.victims) {
    for (size_t i = 0; i < victim->gids.size(); ++i) {
      if (victim->deleted.IsMarked(i)) continue;
      gathered.push_back(
          {victim->gids[i], &victim->rows.Get(static_cast<TransactionId>(i))});
    }
  }
  std::sort(gathered.begin(), gathered.end(),
            [](const GatheredRow& a, const GatheredRow& b) {
              return a.gid < b.gid;
            });

  // Phase 2: build — the expensive re-mining pass, entirely off-lock.
  if (budget.cancelled() || budget.deadline_expired()) {
    MutexLock lock(&mu_);
    AbandonMergeLocked();
    return;
  }
  std::shared_ptr<const DynComponent> merged;
  if (!gathered.empty()) {
    std::vector<TransactionId> gids;
    gids.reserve(gathered.size());
    TransactionDatabase rows(static_cast<uint32_t>(universe_size_));
    for (const GatheredRow& row : gathered) {
      gids.push_back(row.gid);
      rows.Add(*row.txn);
    }
    merged = DynComponent::Create(plan.out_level, std::move(gids),
                                  std::move(rows), options_.build);
  }

  // Phase 3: publish. A cancellation here still abandons — the built
  // component is simply dropped; victims remain authoritative.
  std::optional<MergePlan> cascade;
  {
    MutexLock lock(&mu_);
    // Merge window: a victim row marked after the gather was copied into the
    // merged component, so it is re-marked there; a row marked before the
    // gather was dropped, so its mark is purged with the victim. mu_ also
    // serializes Delete, so no mark can land between this hand-off and the
    // swap.
    size_t purged = 0;
    for (const auto& victim : plan.victims) {
      if (budget.cancelled()) {
        AbandonMergeLocked();
        return;
      }
      purged += victim->CarryDeletesInto(merged.get());
    }
    cascade = PublishMergeLocked(plan, std::move(merged), purged);
  }
  if (cascade.has_value()) SubmitMerge(std::move(*cascade));
}

std::optional<DynamicIndex::MergePlan> DynamicIndex::PublishMergeLocked(
    const MergePlan& plan, std::shared_ptr<const DynComponent> merged,
    size_t purged) {
  auto& components = state_.components;
  for (const auto& victim : plan.victims) {
    const auto it = std::find(components.begin(), components.end(), victim);
    MBI_CHECK(it != components.end());
    components.erase(it);
  }
  tombstones_ -= purged;
  if (merged != nullptr) InsertInFanOutOrder(std::move(merged), &components);
  merge_in_flight_ = false;
  if (metrics_.merges != nullptr) metrics_.merges->Increment();
  UpdateGaugesLocked();
  // Cascade: the merged run may overflow its destination level.
  return MaybeStartMergeLocked();
}

void DynamicIndex::AbandonMergeLocked() {
  merge_in_flight_ = false;
  if (metrics_.merges_abandoned != nullptr) {
    metrics_.merges_abandoned->Increment();
  }
}

Status DynamicIndex::Compact() {
  MergePlan plan;
  for (;;) {
    // Wait out any background merge so victim sets cannot overlap, then
    // re-check under the lock (a publish may have cascaded a new one).
    scheduler_.Drain();
    MutexLock lock(&mu_);
    if (merge_in_flight_) continue;
    if (state_.buffer->size() > 0) SpillLocked();
    if (state_.components.size() <= 1 && tombstones_ == 0) {
      return Status::Ok();  // Already fully compacted.
    }
    plan.victims = state_.components;
    int max_level = 0;
    for (const auto& component : state_.components) {
      max_level = std::max(max_level, component->level);
    }
    plan.out_level = max_level + 1;
    merge_in_flight_ = true;
    break;
  }
  // Unlimited budget: a compaction requested by the caller runs to
  // completion on the calling thread (never dropped by a stopping
  // scheduler — Compact is a foreground operation).
  RunMerge(plan, QueryBudget{});
  return Status::Ok();
}

void DynamicIndex::WaitForMaintenance() const { scheduler_.Drain(); }

void DynamicIndex::InsertInFanOutOrder(
    std::shared_ptr<const DynComponent> component,
    std::vector<std::shared_ptr<const DynComponent>>* components) {
  const auto at = std::upper_bound(components->begin(), components->end(),
                                   component, FansOutBefore);
  components->insert(at, std::move(component));
}

// --- Queries ----------------------------------------------------------------

uint64_t DynamicIndex::QueryComponent(const DynComponent& component,
                                      const Transaction& target,
                                      const SimilarityFamily& family,
                                      size_t k_component,
                                      const SearchOptions& options,
                                      double floor,
                                      DynQueryContext* context) const {
  NearestNeighborResult* out = &context->component_result;
  if (component.quarantined) {
    component.scanner->FindKNearest(target, family, k_component,
                                    options.budget, out);
    out->stats.sequential_fallbacks = 1;
  } else {
    component.engine->FindKNearest(target, family, k_component, options,
                                   &context->context, out, floor);
  }
  // Map component-local ids to global ids before the merge sees them.
  for (Neighbor& neighbor : out->neighbors) {
    neighbor.id = component.gids[neighbor.id];
  }
  return out->stats.entries_scanned;
}

void DynamicIndex::FindKNearest(const Transaction& target,
                                const SimilarityFamily& family, size_t k,
                                const SearchOptions& options,
                                DynQueryContext* context,
                                NearestNeighborResult* result) const {
  MBI_CHECK(k >= 1);
  State snapshot;
  {
    MutexLock lock(&mu_);
    snapshot = state_;
  }
  if (metrics_.queries != nullptr) metrics_.queries->Increment();

  context->merger.Reset(k);

  const QueryBudget budget =
      QueryBudget::Tightest(options.budget, context->context.budget());
  RowScorer& scorer = context->scorer;
  scorer.Bind({&target, 1}, family, universe_size_, /*layout=*/nullptr);
  const double optimistic = scorer.PointwiseBound();

  // --- Buffer scan: exact, row units, chunked budget checks (the min-one
  // chunk rule, DESIGN.md §13.4). The buffer keeps no layout, so its rows
  // go through the row scorer's per-row probe; delete-marked rows are
  // skipped before scoring. Buffers are usually smaller than one chunk, so
  // in practice the whole buffer scans under the min-one rule. ---
  const MutableBuffer& buffer = *snapshot.buffer;
  uint64_t evaluated = 0;
  const ScanOutcome buffer_scan = ScanInChunks(
      buffer.size(), budget, [&](size_t begin, size_t count) {
        for (size_t i = begin; i < begin + count; ++i) {
          if (buffer.deleted().IsMarked(i)) continue;
          const BufferedRow& row = buffer.row(i);
          context->merger.AddCandidate(row.gid, scorer.Score(row.txn));
          ++evaluated;
        }
      });
  QueryStats buffer_stats;
  FillScanStats(buffer_scan, evaluated, buffer.size(), optimistic,
                &buffer_stats);
  uint64_t charged = buffer_scan.rows_scanned;
  context->merger.AddStats(buffer_stats);

  // --- Component fan-out. ---
  // Largest first (the order state_.components is kept in), each component
  // pruned against the k-th best merged so far, so a later component
  // returns only rows that can still enter the top k (KnnMerger
  // invariants). A component with no live row is skipped outright. The
  // budget's entry cap is split across the fan-out by charging each
  // component's scan units as they accrue.
  for (const auto& component : snapshot.components) {
    if (component->deleted.AllMarked()) continue;
    // The min-one rule: the budget can skip a component only once some
    // probe has been charged.
    const QueryTermination skip_cause =
        charged > 0 ? budget.Check(charged) : QueryTermination::kCompleted;
    if (skip_cause != QueryTermination::kCompleted) {
      // Budget exhausted mid-fanout: this component's rows are certified
      // unexplored under the pointwise bound.
      QueryStats skipped;
      skipped.database_size = component->size();
      skipped.entries_total = component->size();
      skipped.entries_unexplored = component->size();
      skipped.termination = skip_cause;
      skipped.is_exact = false;
      skipped.certificate_bound = optimistic;
      context->merger.AddStats(skipped);
      continue;
    }
    SearchOptions component_options = options;
    component_options.budget = budget;
    if (budget.max_entries != std::numeric_limits<uint64_t>::max()) {
      const uint64_t remaining =
          budget.max_entries > charged ? budget.max_entries - charged : 0;
      // The component's own min-one rule guarantees progress even at 0.
      component_options.budget.max_entries = remaining;
    }
    charged += QueryComponent(*component, target, family,
                              std::min(k, component->size()),
                              component_options, context->merger.Threshold(),
                              context);
    context->merger.AddComponent(context->component_result);
  }

  context->merger.Finish(result);
}

NearestNeighborResult DynamicIndex::FindKNearest(
    const Transaction& target, const SimilarityFamily& family, size_t k,
    const SearchOptions& options) const {
  DynQueryContext context;
  NearestNeighborResult result;
  FindKNearest(target, family, k, options, &context, &result);
  return result;
}

void DynamicIndex::FindKNearestBatch(
    const std::vector<Transaction>& targets, const SimilarityFamily& family,
    size_t k, const SearchOptions& options, size_t num_threads,
    ThreadPool* pool, DynBatchWorkspace* workspace,
    std::vector<NearestNeighborResult>* results) const {
  results->resize(targets.size());
  RunSharded(targets.size(), num_threads, pool, &workspace->contexts,
             [&](DynQueryContext& context, size_t i) {
               FindKNearest(targets[i], family, k, options, &context,
                            &(*results)[i]);
             });
}

// --- Introspection ----------------------------------------------------------

size_t DynamicIndex::live_size() const {
  MutexLock lock(&mu_);
  return live_rows_;
}

size_t DynamicIndex::num_components() const {
  MutexLock lock(&mu_);
  return state_.components.size();
}

size_t DynamicIndex::buffered_rows() const {
  MutexLock lock(&mu_);
  return state_.buffer->size();
}

size_t DynamicIndex::tombstone_count() const {
  MutexLock lock(&mu_);
  return tombstones_;
}

TransactionId DynamicIndex::next_gid() const {
  MutexLock lock(&mu_);
  return next_gid_;
}

std::vector<DynamicIndex::LevelInfo> DynamicIndex::LevelBreakdown() const {
  MutexLock lock(&mu_);
  std::vector<LevelInfo> breakdown;
  for (const auto& component : state_.components) {
    LevelInfo* info = nullptr;
    for (LevelInfo& existing : breakdown) {
      if (existing.level == component->level) {
        info = &existing;
        break;
      }
    }
    if (info == nullptr) {
      breakdown.push_back({component->level, 0, 0});
      info = &breakdown.back();
    }
    ++info->components;
    info->rows += component->size();
  }
  std::sort(breakdown.begin(), breakdown.end(),
            [](const LevelInfo& a, const LevelInfo& b) {
              return a.level < b.level;
            });
  return breakdown;
}

Status DynamicIndex::CheckInvariants() const {
  State snapshot;
  TransactionId next_gid;
  size_t live_rows;
  size_t tombstones;
  size_t marked;
  {
    // Marks are counted under mu_, which serializes every writer of them.
    MutexLock lock(&mu_);
    snapshot = state_;
    next_gid = next_gid_;
    live_rows = live_rows_;
    tombstones = tombstones_;
    marked = state_.buffer->deleted().Count();
    for (const auto& component : state_.components) {
      marked += component->deleted.Count();
    }
  }
  if (!std::is_sorted(snapshot.components.begin(), snapshot.components.end(),
                      FansOutBefore)) {
    return Status::Corruption("components out of fan-out order");
  }
  std::vector<TransactionId> all_gids;
  for (const auto& component : snapshot.components) {
    if (component->gids.size() != component->rows.size()) {
      return Status::Corruption("component gid map size mismatch");
    }
    if (!std::is_sorted(component->gids.begin(), component->gids.end())) {
      return Status::Corruption("component gids not sorted");
    }
    if (!component->quarantined && !component->table.has_value()) {
      return Status::Corruption("healthy component without a table");
    }
    all_gids.insert(all_gids.end(), component->gids.begin(),
                    component->gids.end());
  }
  const size_t buffered = snapshot.buffer->size();
  for (size_t i = 0; i < buffered; ++i) {
    all_gids.push_back(snapshot.buffer->row(i).gid);
  }
  std::sort(all_gids.begin(), all_gids.end());
  if (std::adjacent_find(all_gids.begin(), all_gids.end()) !=
      all_gids.end()) {
    return Status::Corruption("gid owned by more than one component");
  }
  if (!all_gids.empty() && all_gids.back() >= next_gid) {
    return Status::Corruption("gid beyond the allocation watermark");
  }
  if (marked != tombstones) {
    return Status::Corruption("tombstone count disagrees with the marks");
  }
  if (all_gids.size() - marked != live_rows) {
    return Status::Corruption("live-row accounting drifted");
  }
  return Status::Ok();
}

}  // namespace mbi
