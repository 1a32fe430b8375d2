#include "baseline/inverted_index.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "txn/packed_target.h"
#include "util/macros.h"

namespace mbi {

InvertedIndex::InvertedIndex(const TransactionDatabase* database,
                             uint32_t page_size_bytes,
                             size_t buffer_pool_pages, bool compress_postings)
    : database_(database),
      compress_postings_(compress_postings),
      postings_(compress_postings ? 0 : database->universe_size()),
      compressed_postings_(compress_postings ? database->universe_size() : 0),
      sequential_store_(
          TransactionStore::BuildSequential(*database, page_size_bytes)),
      layout_(CandidateLayout::Build(*database)),
      buffer_pool_pages_(buffer_pool_pages) {
  MBI_CHECK(database != nullptr);
  for (TransactionId id = 0; id < database_->size(); ++id) {
    for (ItemId item : database_->Get(id).items()) {
      if (compress_postings_) {
        compressed_postings_[item].Append(id);  // Ids arrive ascending.
      } else {
        postings_[item].push_back(id);
      }
    }
  }
}

void InvertedIndex::set_metrics(MetricsRegistry* registry) {
  metrics_registry_ = registry;
  if (registry == nullptr) {
    metrics_ = MetricHandles{};
    sequential_store_.set_metrics(nullptr);
    return;
  }
  metrics_.queries = registry->GetCounter(
      "mbi.inverted.query.knn", "queries", "inverted-index k-NN queries");
  metrics_.candidates =
      registry->GetCounter("mbi.inverted.candidates", "transactions",
                           "phase-1 candidates fetched and scored");
  metrics_.latency = registry->GetHistogram(
      "mbi.inverted.latency", "us", "inverted-index query latency");
  sequential_store_.set_metrics(registry);
}

std::vector<TransactionId> InvertedIndex::Candidates(
    const Transaction& target) const {
  if (compress_postings_) {
    std::vector<const CompressedPostingList*> lists;
    lists.reserve(target.size());
    for (ItemId item : target.items()) {
      MBI_CHECK(item < compressed_postings_.size());
      lists.push_back(&compressed_postings_[item]);
    }
    return UnionPostings(lists);
  }
  // Flatten + sort of the (already sorted) posting lists; target
  // transactions have few items, so this stays cheap.
  std::vector<TransactionId> merged;
  for (ItemId item : target.items()) {
    MBI_CHECK(item < postings_.size());
    merged.insert(merged.end(), postings_[item].begin(), postings_[item].end());
  }
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  return merged;
}

InvertedIndex::Result InvertedIndex::FindKNearest(
    const Transaction& target, const SimilarityFamily& family, size_t k,
    const QueryBudget& budget) const {
  MBI_CHECK(k >= 1);
  ScopedTimer timer(nullptr);
  Result result;
  std::unique_ptr<SimilarityFunction> similarity = family.ForTarget(target);

  std::vector<TransactionId> candidates = Candidates(target);
  result.candidates = candidates.size();
  result.accessed_fraction =
      database_->empty() ? 0.0
                         : static_cast<double>(candidates.size()) /
                               static_cast<double>(database_->size());

  // Zero-match transactions can only be safely ignored if f(0, y) can never
  // exceed the similarity of some candidate. That holds for the families
  // whose f vanishes at x = 0 (match ratio, cosine) as long as at least one
  // candidate exists; inverse Hamming violates it structurally.
  result.candidates_complete =
      !candidates.empty() && similarity->Evaluate(0, 1) == 0.0 &&
      similarity->Evaluate(0, 0) == 0.0;

  // Phase 2: fetch candidates in id order through an optional buffer pool,
  // tracking the distinct pages the scattered fetches touch. Re-ranking
  // runs the SIMD match kernel over the layout (bit-identical to the merge
  // scan); candidates come from postings built with it, so it covers them.
  PackedTarget packed;
  packed.Assign(target, database_->universe_size(), &layout_);
  BufferPool pool(&sequential_store_.page_store(), buffer_pool_pages_);
  pool.set_metrics(metrics_registry_);
  std::unordered_set<PageId> touched;
  std::vector<Neighbor> scored;
  scored.reserve(candidates.size());
  // Phase 2 in kScanChunk-candidate slices: each slice goes through one
  // gather-form kernel batch (ids are sorted ascending, so the kernel's row
  // prefetch still streams forward), and the budget is checked between
  // slices — never before the first, so a degraded answer always carries
  // real candidates. One scored candidate costs one "entry" against
  // max_entries (same unit as branch-and-bound and the sequential scanner;
  // overshoot bounded at kScanChunk - 1 by the per-slice check).
  const size_t num_candidates = candidates.size();
  const bool budget_limited = budget.limited();
  QueryTermination termination = QueryTermination::kCompleted;
  uint64_t rows_scanned = 0;
  uint32_t chunk_match[kScanChunk];
  uint32_t chunk_hamming[kScanChunk];
  for (size_t base = 0; base < num_candidates; base += kScanChunk) {
    if (budget_limited && rows_scanned > 0) {
      if (budget.cancelled()) {
        termination = QueryTermination::kCancelled;
        break;
      }
      if (rows_scanned >= budget.max_entries) {
        termination = QueryTermination::kEntryBudget;
        break;
      }
      if (budget.deadline_expired()) {
        termination = QueryTermination::kDeadline;
        break;
      }
    }
    const size_t len = std::min(kScanChunk, num_candidates - base);
    packed.MatchAndHammingBatch(candidates.data() + base, len, chunk_match,
                                chunk_hamming);
    for (size_t i = 0; i < len; ++i) {
      const TransactionId id = candidates[base + i];
      touched.insert(sequential_store_.PageOfTransaction(id));
      sequential_store_.FetchTransaction(
          id, buffer_pool_pages_ > 0 ? &pool : nullptr, &result.io);
      scored.push_back(
          {id, similarity->Evaluate(static_cast<int>(chunk_match[i]),
                                    static_cast<int>(chunk_hamming[i]))});
    }
    rows_scanned += len;
  }
  result.pages_touched = touched.size();
  result.pages_total = sequential_store_.page_store().size();

  // Budget accounting + certificate (the same f(|target|, 0) pointwise bound
  // the sequential scanner uses; phase-1 completeness is reported separately
  // via candidates_complete). Entries are counted in candidate rows, the
  // common unit across every query path (DESIGN.md §13).
  result.stats.database_size = database_->size();
  result.stats.entries_total = num_candidates;
  result.stats.entries_scanned = rows_scanned;
  result.stats.entries_unexplored =
      result.stats.entries_total - rows_scanned;
  result.stats.transactions_evaluated = scored.size();
  result.stats.termination = termination;
  result.stats.is_exact = termination == QueryTermination::kCompleted;
  result.stats.certificate_bound =
      result.stats.is_exact
          ? -std::numeric_limits<double>::infinity()
          : similarity->Evaluate(static_cast<int>(target.size()), 0);

  // Every page pin taken during phase 2 must have been released, and the
  // pool's LRU bookkeeping must have survived the scattered access pattern.
  MBI_CHECK_EQ(pool.total_pins(), 0u);
  MBI_DCHECK((pool.CheckInvariants(), true));

  std::sort(scored.begin(), scored.end(), BestFirst());
  if (scored.size() > k) scored.resize(k);
  result.neighbors = std::move(scored);
  result.stats.io = result.io;
  if (metrics_.queries != nullptr) {
    metrics_.queries->Increment();
    metrics_.candidates->Increment(result.candidates);
    metrics_.latency->Record(timer.ElapsedUs());
  }
  return result;
}

std::vector<TransactionId> InvertedIndex::PostingsOf(ItemId item) const {
  MBI_CHECK(item < database_->universe_size());
  if (compress_postings_) return compressed_postings_[item].Decode();
  return postings_[item];
}

void InvertedIndex::CheckInvariants() const {
  const uint32_t universe = database_->universe_size();
  const uint64_t num_transactions = database_->size();

  // Sorted postings with in-range ids, and total length equal to the total
  // item occurrences of the database (each occurrence contributes exactly
  // one posting). Compressed lists are decoded once up front.
  std::vector<std::vector<TransactionId>> lists(universe);
  uint64_t total_postings = 0;
  for (ItemId item = 0; item < universe; ++item) {
    lists[item] = PostingsOf(item);
    const std::vector<TransactionId>& list = lists[item];
    total_postings += list.size();
    for (size_t i = 0; i < list.size(); ++i) {
      MBI_CHECK_LT(list[i], num_transactions);
      if (i > 0) MBI_CHECK_LT(list[i - 1], list[i]);
    }
  }
  MBI_CHECK_EQ(total_postings, database_->TotalItemOccurrences());

  // Membership: every item occurrence is findable in its posting list.
  // Together with the length check above this makes the lists *exactly* the
  // database's transpose — no missing and no phantom postings.
  for (TransactionId id = 0; id < num_transactions; ++id) {
    for (ItemId item : database_->Get(id).items()) {
      MBI_CHECK_LT(item, universe);
      MBI_CHECK_MSG(
          std::binary_search(lists[item].begin(), lists[item].end(), id),
          "transaction missing from its item's posting list");
    }

    // Sequential layout: the page mapped to this transaction holds it.
    PageId page = sequential_store_.PageOfTransaction(id);
    MBI_CHECK_LT(page, sequential_store_.page_store().size());
    const std::span<const TransactionId> ids =
        sequential_store_.page_store().IdsOnPage(page);
    MBI_CHECK_MSG(std::find(ids.begin(), ids.end(), id) != ids.end(),
                  "transaction not present on its mapped page");
  }
}

uint64_t InvertedIndex::PostingsBytes() const {
  uint64_t total = 0;
  if (compress_postings_) {
    for (const auto& list : compressed_postings_) total += list.ByteSize();
  } else {
    for (const auto& list : postings_) {
      total += list.size() * sizeof(TransactionId);
    }
  }
  return total;
}

}  // namespace mbi
