#include "baseline/minhash.h"

#include <algorithm>
#include <limits>

#include "core/row_scorer.h"
#include "core/similarity.h"
#include "util/macros.h"
#include "util/rng.h"

namespace mbi {
namespace {

/// 64-bit mix (splitmix64 finalizer) of an item under one hash seed.
uint64_t HashItem(ItemId item, uint64_t seed) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (item + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

MinHashIndex::MinHashIndex(const TransactionDatabase* database,
                           const MinHashConfig& config)
    : config_(config), database_(database) {
  MBI_CHECK(database != nullptr);
  MBI_CHECK(config_.num_bands >= 1);
  MBI_CHECK(config_.rows_per_band >= 1);

  Rng rng(config_.seed);
  hash_seeds_.resize(num_hashes());
  for (uint64_t& seed : hash_seeds_) seed = rng.NextUint64();

  // Signatures for the whole database, then the banded buckets.
  const uint32_t hashes = num_hashes();
  signatures_.resize(static_cast<size_t>(database_->size()) * hashes);
  band_buckets_.resize(config_.num_bands);
  for (TransactionId id = 0; id < database_->size(); ++id) {
    std::vector<uint64_t> signature = SignatureOf(database_->Get(id));
    std::copy(signature.begin(), signature.end(),
              signatures_.begin() + static_cast<size_t>(id) * hashes);
    for (uint32_t band = 0; band < config_.num_bands; ++band) {
      band_buckets_[band][BandKey(signature, band)].push_back(id);
    }
  }
}

std::vector<uint64_t> MinHashIndex::SignatureOf(
    const Transaction& transaction) const {
  std::vector<uint64_t> signature(num_hashes(),
                                  std::numeric_limits<uint64_t>::max());
  for (ItemId item : transaction.items()) {
    for (uint32_t h = 0; h < num_hashes(); ++h) {
      signature[h] = std::min(signature[h], HashItem(item, hash_seeds_[h]));
    }
  }
  return signature;
}

uint64_t MinHashIndex::BandKey(const std::vector<uint64_t>& signature,
                               uint32_t band) const {
  uint64_t key = 1469598103934665603ULL ^ band;
  for (uint32_t row = 0; row < config_.rows_per_band; ++row) {
    key ^= signature[band * config_.rows_per_band + row];
    key *= 1099511628211ULL;
  }
  return key;
}

double MinHashIndex::EstimateJaccard(const Transaction& a,
                                     const Transaction& b) const {
  std::vector<uint64_t> sig_a = SignatureOf(a);
  std::vector<uint64_t> sig_b = SignatureOf(b);
  size_t collisions = 0;
  for (uint32_t h = 0; h < num_hashes(); ++h) {
    collisions += sig_a[h] == sig_b[h];
  }
  return static_cast<double>(collisions) / static_cast<double>(num_hashes());
}

MinHashIndex::Result MinHashIndex::FindKNearestJaccard(
    const Transaction& target, size_t k) const {
  MBI_CHECK(k >= 1);
  Result result;
  std::vector<uint64_t> signature = SignatureOf(target);

  // Phase 1: union of the band buckets the target falls into.
  std::vector<TransactionId> candidates;
  for (uint32_t band = 0; band < config_.num_bands; ++band) {
    auto it = band_buckets_[band].find(BandKey(signature, band));
    if (it != band_buckets_[band].end()) {
      candidates.insert(candidates.end(), it->second.begin(),
                        it->second.end());
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  result.candidates = candidates.size();
  result.accessed_fraction =
      database_->empty() ? 0.0
                         : static_cast<double>(candidates.size()) /
                               static_cast<double>(database_->size());

  // Phase 2: exact Jaccard re-rank of the candidates into a bounded top-k,
  // through the row scorer's per-row probe (the index keeps no layout).
  RowScorer scorer;
  scorer.Bind({&target, 1}, JaccardFamily(), database_->universe_size(),
              /*layout=*/nullptr);
  TopKSink top_k{k, &result.neighbors};
  for (TransactionId id : candidates) {
    top_k(id, scorer.Score(database_->Get(id)));
  }
  std::sort(result.neighbors.begin(), result.neighbors.end(), BestFirst());
  return result;
}

uint64_t MinHashIndex::MemoryBytes() const {
  uint64_t total = signatures_.size() * sizeof(uint64_t);
  for (const auto& buckets : band_buckets_) {
    for (const auto& [key, ids] : buckets) {
      (void)key;
      total += sizeof(uint64_t) + ids.size() * sizeof(TransactionId);
    }
  }
  return total;
}

}  // namespace mbi
