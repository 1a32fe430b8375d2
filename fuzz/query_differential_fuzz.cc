/// Differential fuzz target: branch-and-bound vs. sequential scan, and the
/// dynamized (buffer + leveled components) fan-out vs. the same scan.
///
/// Decodes a transaction database, an index configuration, a query target,
/// and a similarity family from the fuzz input; builds a signature table
/// over the database; then asserts that the engine's *exact* k-NN answer
/// matches SequentialScanner's — bit-identical similarity sequences with
/// stats.is_exact set, and identical neighbour ids everywhere the ids are
/// actually determined. This is the paper's core claim (branch and bound
/// with Lemma 2.1 bounds loses nothing against a full scan for any
/// admissible f(x, y)) checked on machine-generated adversarial inputs
/// rather than the hand-picked shapes in tests/oracle_equivalence_test.cc.
///
/// A range leg then asks the static engine for every row at or above the
/// scan's k-th best similarity: the rows tied at that threshold sit exactly
/// on the inclusive prune boundary, and all of them must come back, the
/// same ids in the same order as SequentialScanner::FindInRange, with
/// stats.is_exact set. It reads no input bytes of its own.
///
/// The second leg feeds the same rows through a DynamicIndex with a
/// fuzz-chosen buffer capacity, level fanout, and tombstone stride — so the
/// split between the unindexed buffer and the leveled components (and which
/// rows are deleted) is adversarial, not hand-picked. The merged fan-out
/// answer must match a single scan over the live union under the identical
/// tie semantics (see tests/dyn_differential_test.cc and DESIGN.md §13.3).
///
/// Tie semantics (this fuzzer's first real catch): the engine prunes an
/// entry as soon as its optimistic bound is <= the k-th best similarity, so
/// a candidate *tied* with the k-th best can sit in a pruned bucket and
/// never be evaluated. Which ids represent the tie group at the k-th
/// similarity value is therefore unspecified — the scan resolves that group
/// globally by ascending id, the engine only among candidates it evaluated
/// (see the contract note on NearestNeighborResult::neighbors). Above the
/// cutoff group nothing can be pruned, so ids must match exactly; within it
/// this harness instead recomputes each engine-returned id's similarity from
/// scratch and asserts it is genuinely tied, distinct, and in ascending-id
/// order.
///
/// Decoded parameters are clamped into the constructors' documented domains
/// (cardinality <= universe, items < universe, ...) — the goal is deep
/// coverage of query logic, not of MBI_CHECK precondition aborts, which the
/// container-parser target already owns for untrusted bytes.
///
/// Build with -DMBI_FUZZ=ON; see fuzz/CMakeLists.txt and DESIGN.md §9.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "baseline/sequential_scan.h"
#include "core/branch_and_bound.h"
#include "core/index_builder.h"
#include "core/similarity.h"
#include "dyn/dynamic_index.h"
#include "engine/engine.h"
#include "fuzz_input.h"
#include "kernel/dispatch.h"
#include "txn/database.h"
#include "txn/transaction.h"

namespace {

mbi::Transaction DecodeTransaction(mbi::fuzz::FuzzInput* input,
                                   uint32_t universe_size,
                                   uint32_t max_items) {
  const uint32_t count = input->TakeInRange(0, max_items);
  std::vector<mbi::ItemId> items;
  items.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    items.push_back(input->TakeInRange(0, universe_size - 1));
  }
  return mbi::Transaction(std::move(items));  // Sorts and deduplicates.
}

std::unique_ptr<mbi::SimilarityFamily> DecodeFamily(uint8_t selector) {
  switch (selector % 4) {
    case 0: return std::make_unique<mbi::InverseHammingFamily>();
    case 1: return std::make_unique<mbi::MatchRatioFamily>();
    case 2: return std::make_unique<mbi::CosineFamily>();
    default: return std::make_unique<mbi::JaccardFamily>();
  }
}

/// Exact double equality (matching NaNs count as equal). Any difference
/// here is a real divergence between the two engines — both compute f over
/// the same integer (matches, hamming) pairs, so even floating-point
/// results must agree to the last bit.
bool SameSimilarity(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

/// How the engine-under-test's reported ids relate to the oracle scan.
struct IdResolver {
  /// The row behind a reported id, or nullptr when the id is not live
  /// (out of range, tombstoned) — which is itself a divergence.
  std::function<const mbi::Transaction*(mbi::TransactionId)> row;
  /// Maps the oracle's dense scan id to the id the engine must report for
  /// that row (identity for the static engine, gid for the dynamized one).
  std::function<mbi::TransactionId(mbi::TransactionId)> oracle_id;
};

/// The full tie-aware comparison for one exact answer, shared by both legs.
void CheckAgainstScan(const char* label,
                      const mbi::NearestNeighborResult& result,
                      const std::vector<mbi::Neighbor>& expected,
                      const mbi::Transaction& target,
                      const mbi::SimilarityFamily& family,
                      const IdResolver& resolver) {
  if (!result.stats.is_exact) {
    std::fprintf(stderr, "%s divergence: exact search not stats.is_exact\n",
                 label);
    abort();
  }
  if (result.neighbors.size() != expected.size()) {
    std::fprintf(stderr, "%s divergence: returned %zu neighbors, scan %zu\n",
                 label, result.neighbors.size(), expected.size());
    abort();
  }
  if (expected.empty()) return;

  // The similarity *sequence* must agree everywhere — pruning at the cutoff
  // can change which tied id is reported, never any value.
  for (size_t i = 0; i < expected.size(); ++i) {
    if (!SameSimilarity(result.neighbors[i].similarity,
                        expected[i].similarity)) {
      std::fprintf(stderr,
                   "%s divergence: neighbor %zu similarity %.17g vs %.17g\n",
                   label, i, result.neighbors[i].similarity,
                   expected[i].similarity);
      abort();
    }
  }

  // Ids are fully determined above the cutoff tie group (every candidate
  // strictly better than the k-th similarity is evaluated by both sides and
  // both sort ties ascending).
  const double cutoff = expected.back().similarity;
  const std::unique_ptr<mbi::SimilarityFunction> function =
      family.ForTarget(target);
  for (size_t i = 0; i < expected.size(); ++i) {
    const mbi::TransactionId id = result.neighbors[i].id;
    const bool in_cutoff_group = SameSimilarity(expected[i].similarity, cutoff);
    if (!in_cutoff_group && id != resolver.oracle_id(expected[i].id)) {
      std::fprintf(stderr,
                   "%s divergence: neighbor %zu id %u (sim %.17g) vs scan id "
                   "%u (sim %.17g)\n",
                   label, i, id, result.neighbors[i].similarity,
                   resolver.oracle_id(expected[i].id), expected[i].similarity);
      abort();
    }
    if (in_cutoff_group) {
      // The engine's pick must be a live row that is genuinely tied:
      // recompute its similarity from scratch, bypassing the index entirely.
      const mbi::Transaction* row = resolver.row(id);
      if (row == nullptr) {
        std::fprintf(stderr, "%s divergence: neighbor %zu id %u is not live\n",
                     label, i, id);
        abort();
      }
      size_t match = 0, hamming = 0;
      mbi::MatchAndHamming(target, *row, &match, &hamming);
      const double recomputed = function->Evaluate(static_cast<int>(match),
                                                   static_cast<int>(hamming));
      if (!SameSimilarity(recomputed, result.neighbors[i].similarity)) {
        std::fprintf(stderr,
                     "%s divergence: neighbor %zu id %u reported %.17g, "
                     "recomputed %.17g\n",
                     label, i, id, result.neighbors[i].similarity, recomputed);
        abort();
      }
    }
    if (i > 0 && SameSimilarity(result.neighbors[i].similarity,
                                result.neighbors[i - 1].similarity) &&
        id <= result.neighbors[i - 1].id) {
      std::fprintf(stderr,
                   "%s divergence: tied neighbors %zu/%zu not in ascending-id "
                   "order (%u then %u)\n",
                   label, i - 1, i, result.neighbors[i - 1].id, id);
      abort();
    }
  }
}

/// The range leg's comparison: a complete range answer is fully
/// determined, ids and order included.
void CheckRangeAgainstScan(const mbi::RangeQueryResult& result,
                           const std::vector<mbi::Neighbor>& expected,
                           double threshold) {
  if (!result.stats.is_exact) {
    std::fprintf(stderr,
                 "range divergence: complete search not stats.is_exact\n");
    abort();
  }
  if (result.matches.size() != expected.size()) {
    std::fprintf(stderr,
                 "range divergence: returned %zu matches >= %.17g, scan %zu\n",
                 result.matches.size(), threshold, expected.size());
    abort();
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (result.matches[i].id != expected[i].id ||
        !SameSimilarity(result.matches[i].similarity,
                        expected[i].similarity)) {
      std::fprintf(stderr,
                   "range divergence: match %zu id %u (sim %.17g) vs scan id "
                   "%u (sim %.17g)\n",
                   i, result.matches[i].id, result.matches[i].similarity,
                   expected[i].id, expected[i].similarity);
      abort();
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  mbi::fuzz::FuzzInput input(data, size);

  const uint32_t universe_size = input.TakeInRange(2, 48);
  const uint32_t num_transactions = input.TakeInRange(1, 40);
  const uint32_t cardinality =
      input.TakeInRange(1, universe_size < 10 ? universe_size : 10);
  const uint32_t activation_threshold = input.TakeInRange(1, 3);
  const bool balanced_partitioner = input.TakeByte() % 2 == 1;
  const uint8_t family_selector = input.TakeByte();
  const uint32_t k = input.TakeInRange(1, 8);
  // Dynamized leg: where the buffer/level split lands and which rows are
  // tombstoned is part of the fuzz input, so the adversary controls the
  // component boundaries the k-NN merge has to agree across.
  const uint32_t buffer_capacity = input.TakeInRange(1, num_transactions + 4);
  const uint32_t level_fanout = input.TakeInRange(2, 4);
  const uint32_t delete_stride = input.TakeInRange(0, 4);
  // Force a SIMD dispatch path from the input so the differential check
  // also covers every kernel ISA (unsupported requests clamp to the widest
  // available one — see kernel/dispatch.h). The scan below runs through the
  // same kernels, so divergence here means an ISA variant broke
  // bit-identity, exactly what tests/kernel_test.cc guards deterministically.
  mbi::kernel::ForceIsa(static_cast<mbi::kernel::Isa>(input.TakeByte() % 4));

  mbi::TransactionDatabase database(universe_size);
  for (uint32_t i = 0; i < num_transactions; ++i) {
    database.Add(DecodeTransaction(&input, universe_size, 12));
  }
  const mbi::Transaction target =
      DecodeTransaction(&input, universe_size, 12);

  mbi::IndexBuildConfig config;
  config.clustering.target_cardinality = cardinality;
  config.table.activation_threshold =
      static_cast<int>(activation_threshold);
  config.use_balanced_partitioner = balanced_partitioner;

  mbi::SignatureTableEngine engine(&database);
  engine.AdoptTable(mbi::BuildIndex(database, config));

  const std::unique_ptr<mbi::SimilarityFamily> family =
      DecodeFamily(family_selector);

  // Exact search only: early termination and gap pruning trade exactness
  // away by design, so only the default options carry the bit-identical
  // guarantee against the scan.
  const mbi::NearestNeighborResult result =
      engine.FindKNearest(target, *family, k);
  const mbi::SequentialScanner scanner(&database);
  const std::vector<mbi::Neighbor> expected =
      scanner.FindKNearest(target, *family, k);
  const IdResolver static_resolver{
      [&](mbi::TransactionId id) {
        return id < database.size() ? &database.Get(id) : nullptr;
      },
      [](mbi::TransactionId id) { return id; }};
  CheckAgainstScan("static", result, expected, target, *family,
                   static_resolver);

  // Range leg at the k-th best similarity: every row tied there is on the
  // prune boundary and must be returned.
  if (!expected.empty()) {
    const double threshold = expected.back().similarity;
    CheckRangeAgainstScan(engine.FindInRange(target, *family, threshold),
                          scanner.FindInRange(target, *family, threshold),
                          threshold);
  }

  // Leg two: the same rows through the dynamized index. Every merge re-runs
  // the miner/clusterer with the same build config, so a divergence here is
  // in the fan-out/merge layer, not in a differently-tuned table.
  mbi::DynamicIndexOptions options;
  options.buffer_capacity = buffer_capacity;
  options.level_fanout = level_fanout;
  options.build = config;
  mbi::DynamicIndex dyn(universe_size, options);
  std::map<mbi::TransactionId, const mbi::Transaction*> live;
  std::vector<mbi::TransactionId> live_gids;
  for (uint32_t i = 0; i < num_transactions; ++i) {
    auto gid = dyn.Insert(database.Get(i));
    if (!gid.ok()) {
      std::fprintf(stderr, "dyn divergence: insert failed: %s\n",
                   gid.status().message().c_str());
      abort();
    }
    live.emplace(gid.value(), &database.Get(i));
  }
  mbi::TransactionDatabase union_db(universe_size);
  {
    uint32_t i = 0;
    for (auto it = live.begin(); it != live.end();) {
      if (delete_stride != 0 && i++ % (delete_stride + 1) == 0 &&
          live.size() > 1) {
        if (!dyn.Delete(it->first).ok()) {
          std::fprintf(stderr, "dyn divergence: delete of live gid failed\n");
          abort();
        }
        it = live.erase(it);
        continue;
      }
      union_db.Add(*it->second);
      live_gids.push_back(it->first);
      ++it;
    }
  }

  const mbi::NearestNeighborResult dyn_result =
      dyn.FindKNearest(target, *family, k);
  const mbi::SequentialScanner union_scanner(&union_db);
  const std::vector<mbi::Neighbor> dyn_expected =
      union_scanner.FindKNearest(target, *family, k);
  const IdResolver dyn_resolver{
      [&](mbi::TransactionId gid) -> const mbi::Transaction* {
        const auto it = live.find(gid);
        return it != live.end() ? it->second : nullptr;
      },
      [&](mbi::TransactionId id) { return live_gids[id]; }};
  CheckAgainstScan("dyn", dyn_result, dyn_expected, target, *family,
                   dyn_resolver);
  return 0;
}
