#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baseline/sequential_scan.h"
#include "core/artifact_verify.h"
#include "core/branch_and_bound.h"
#include "core/index_builder.h"
#include "core/partition_io.h"
#include "core/table_io.h"
#include "gen/quest_generator.h"
#include "txn/database_io.h"
#include "util/rng.h"

namespace mbi {
namespace {

/// Randomized differential testing: for many random dataset/index/parameter
/// combinations, the branch-and-bound engine must agree with the sequential
/// scan oracle — for the paper's three similarity functions and for randomly
/// generated *admissible* custom functions (monotone in matches, antitone in
/// Hamming distance by construction).

bool SimilarityEqual(double a, double b) {
  if (std::isinf(a) && std::isinf(b)) return std::signbit(a) == std::signbit(b);
  return a == b;
}

/// A random function of the form
///   f(x, y) = a·x − b·y + c·sqrt(x) − d·log(1 + y) + e·x/(1 + y)
/// with non-negative coefficients: every term is nondecreasing in x and
/// nonincreasing in y, so f is admissible.
std::unique_ptr<CustomFamily> RandomAdmissibleFamily(Rng* rng, int index) {
  double a = rng->UniformDouble() * 3.0;
  double b = rng->UniformDouble() * 3.0;
  double c = rng->UniformDouble() * 2.0;
  double d = rng->UniformDouble() * 2.0;
  double e = rng->UniformDouble() * 4.0;
  return std::make_unique<CustomFamily>(
      "random_admissible_" + std::to_string(index),
      [a, b, c, d, e](int x, int y) {
        return a * x - b * y + c * std::sqrt(static_cast<double>(x)) -
               d * std::log1p(static_cast<double>(y)) +
               e * x / (1.0 + static_cast<double>(y));
      });
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTest, EngineAgreesWithScanOracleOnRandomConfigurations) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 7919 + 13);

  QuestGeneratorConfig config;
  config.universe_size = 100 + static_cast<uint32_t>(rng.UniformUint64(400));
  config.num_large_itemsets =
      20 + static_cast<uint32_t>(rng.UniformUint64(100));
  config.avg_itemset_size = 3.0 + rng.UniformDouble() * 5.0;
  config.avg_transaction_size = 5.0 + rng.UniformDouble() * 10.0;
  config.correlation_fraction = rng.UniformDouble() * 0.8;
  config.seed = seed;
  QuestGenerator generator(config);
  const uint64_t db_size = 300 + rng.UniformUint64(1200);
  TransactionDatabase db = generator.GenerateDatabase(db_size);

  IndexBuildConfig build;
  build.clustering.target_cardinality =
      5 + static_cast<uint32_t>(rng.UniformUint64(9));
  build.table.activation_threshold = 1 + static_cast<int>(rng.UniformUint64(2));
  build.use_balanced_partitioner = rng.Bernoulli(0.3);
  SignatureTable table = BuildIndex(db, build);
  BranchAndBoundEngine engine(&db, &table);
  SequentialScanner scanner(&db);

  // Assemble the function set: the paper's three plus two random admissible
  // functions.
  std::vector<std::unique_ptr<SimilarityFamily>> families;
  families.push_back(MakeSimilarityFamily("hamming"));
  families.push_back(MakeSimilarityFamily("match_ratio"));
  families.push_back(MakeSimilarityFamily("cosine"));
  families.push_back(RandomAdmissibleFamily(&rng, 0));
  families.push_back(RandomAdmissibleFamily(&rng, 1));

  for (int q = 0; q < 4; ++q) {
    Transaction target = generator.NextTransaction();
    for (const auto& family : families) {
      size_t k = 1 + rng.UniformUint64(7);
      auto result = engine.FindKNearest(target, *family, k);
      auto oracle = scanner.FindKNearest(target, *family, k);
      ASSERT_TRUE(result.stats.is_exact)
          << "seed " << seed << " family " << family->name();
      ASSERT_EQ(result.neighbors.size(), oracle.size());
      for (size_t i = 0; i < oracle.size(); ++i) {
        ASSERT_TRUE(SimilarityEqual(result.neighbors[i].similarity,
                                    oracle[i].similarity))
            << "seed " << seed << " family " << family->name() << " k=" << k
            << " rank " << i << ": " << result.neighbors[i].similarity
            << " vs " << oracle[i].similarity;
      }
    }
  }
}

TEST_P(FuzzTest, EarlyTerminationCertificatesNeverLie) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 104729 + 7);

  QuestGeneratorConfig config;
  config.universe_size = 200 + static_cast<uint32_t>(rng.UniformUint64(300));
  config.num_large_itemsets = 50;
  config.avg_transaction_size = 6.0 + rng.UniformDouble() * 8.0;
  config.seed = seed + 1000;
  QuestGenerator generator(config);
  TransactionDatabase db = generator.GenerateDatabase(2000);

  IndexBuildConfig build;
  build.clustering.target_cardinality = 10;
  SignatureTable table = BuildIndex(db, build);
  BranchAndBoundEngine engine(&db, &table);
  SequentialScanner scanner(&db);
  MatchRatioFamily family;

  for (int q = 0; q < 5; ++q) {
    Transaction target = generator.NextTransaction();
    auto oracle = scanner.FindKNearest(target, family, 1);
    SearchOptions options;
    options.max_access_fraction = 0.002 + rng.UniformDouble() * 0.05;
    auto result = engine.FindKNearest(target, family, 1, options);
    if (result.stats.is_exact) {
      ASSERT_TRUE(SimilarityEqual(result.neighbors[0].similarity,
                                  oracle[0].similarity))
          << "seed " << seed << ": certificate lied";
    }
    // The uniform quality bound holds regardless.
    ASSERT_GE(std::max(result.neighbors[0].similarity,
                       result.stats.certificate_bound),
              oracle[0].similarity)
        << "seed " << seed;
  }
}

TEST_P(FuzzTest, RangeQueriesMatchOracleAtRandomThresholds) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 31337 + 5);

  QuestGeneratorConfig config;
  config.universe_size = 250;
  config.num_large_itemsets = 60;
  config.avg_transaction_size = 8.0;
  config.seed = seed + 2000;
  QuestGenerator generator(config);
  TransactionDatabase db = generator.GenerateDatabase(1000);

  IndexBuildConfig build;
  build.clustering.target_cardinality = 9;
  SignatureTable table = BuildIndex(db, build);
  BranchAndBoundEngine engine(&db, &table);
  SequentialScanner scanner(&db);

  for (const char* name : {"match_ratio", "cosine"}) {
    auto family = MakeSimilarityFamily(name);
    for (int q = 0; q < 3; ++q) {
      Transaction target = generator.NextTransaction();
      double threshold = rng.UniformDouble() * 1.2;
      auto result = engine.FindInRange(target, *family, threshold);
      auto oracle = scanner.FindInRange(target, *family, threshold);
      ASSERT_TRUE(result.stats.is_exact);
      ASSERT_EQ(result.matches.size(), oracle.size())
          << "seed " << seed << " " << name << " threshold " << threshold;
      for (size_t i = 0; i < oracle.size(); ++i) {
        ASSERT_EQ(result.matches[i].id, oracle[i].id);
      }
    }
  }
}

// --- Corruption fuzz ----------------------------------------------------
//
// Loaders must return kCorruption — never crash, never abort, never hand
// back a plausible-but-wrong artifact — for ANY single-bit mutation or
// truncation of a valid artifact. This is the property that makes the
// quarantine path in engine/engine.h safe to rely on, and it runs under
// ASan/UBSan in the CI fault-injection job.

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return bytes;
  std::fseek(file, 0, SEEK_END);
  bytes.resize(static_cast<size_t>(std::ftell(file)));
  std::fseek(file, 0, SEEK_SET);
  if (!bytes.empty() &&
      std::fread(bytes.data(), 1, bytes.size(), file) != bytes.size()) {
    bytes.clear();
  }
  std::fclose(file);
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
  }
  ASSERT_EQ(std::fclose(file), 0);
}

/// Applies ~40 single-bit flips and ~12 truncations to the artifact at
/// `path` (restoring the clean bytes between mutations) and requires `load`
/// to report kCorruption for every one of them. The clean bytes are restored
/// on exit.
template <typename LoadFn>
void FuzzArtifact(const std::string& path, Rng* rng, LoadFn load) {
  const std::vector<uint8_t> clean = ReadFileBytes(path);
  ASSERT_FALSE(clean.empty());
  {
    Status healthy = load();
    ASSERT_TRUE(healthy.ok()) << "fixture is broken: " << healthy.ToString();
  }

  std::vector<uint8_t> mutated = clean;
  for (int i = 0; i < 40; ++i) {
    const size_t byte = static_cast<size_t>(rng->UniformUint64(clean.size()));
    const uint8_t mask = static_cast<uint8_t>(1u << rng->UniformUint64(8));
    mutated[byte] ^= mask;
    WriteFileBytes(path, mutated);
    Status corrupt = load();
    ASSERT_FALSE(corrupt.ok())
        << path << ": flip at byte " << byte << " mask " << int{mask}
        << " loaded successfully";
    EXPECT_EQ(corrupt.code(), StatusCode::kCorruption)
        << path << ": flip at byte " << byte << ": " << corrupt.ToString();
    // `mbi verify` must survive the same damage (report or refuse, no crash).
    auto report = VerifyArtifact(path);
    if (report.ok()) {
      EXPECT_FALSE(report->Overall().ok());
    }
    mutated[byte] ^= mask;
  }

  for (int i = 0; i < 12; ++i) {
    const size_t keep = static_cast<size_t>(rng->UniformUint64(clean.size()));
    WriteFileBytes(path, std::vector<uint8_t>(clean.begin(),
                                              clean.begin() +
                                                  static_cast<long>(keep)));
    Status corrupt = load();
    ASSERT_FALSE(corrupt.ok())
        << path << ": truncation to " << keep << " bytes loaded successfully";
    EXPECT_EQ(corrupt.code(), StatusCode::kCorruption);
  }

  WriteFileBytes(path, clean);
}

TEST_P(FuzzTest, CorruptArtifactsAlwaysFailCleanly) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 48271 + 11);

  QuestGeneratorConfig config;
  config.universe_size = 150;
  config.num_large_itemsets = 30;
  config.avg_transaction_size = 7.0;
  config.seed = seed + 5000;
  QuestGenerator generator(config);
  TransactionDatabase db = generator.GenerateDatabase(200);
  IndexBuildConfig build;
  build.clustering.target_cardinality = 8;
  SignatureTable table = BuildIndex(db, build);

  const std::string dir = ::testing::TempDir();
  const std::string db_path = dir + "/fuzz_" + std::to_string(seed) + ".mbid";
  const std::string part_path = dir + "/fuzz_" + std::to_string(seed) + ".mbsp";
  const std::string table_path =
      dir + "/fuzz_" + std::to_string(seed) + ".mbst";
  ASSERT_TRUE(SaveDatabase(db, db_path).ok());
  ASSERT_TRUE(SavePartition(table.partition(), part_path).ok());
  ASSERT_TRUE(SaveSignatureTable(table, table_path).ok());

  FuzzArtifact(db_path, &rng,
               [&] { return LoadDatabase(db_path).status(); });
  FuzzArtifact(part_path, &rng,
               [&] { return LoadPartition(part_path).status(); });
  FuzzArtifact(table_path, &rng,
               [&] { return LoadSignatureTable(table_path, db).status(); });

  std::remove(db_path.c_str());
  std::remove(part_path.c_str());
  std::remove(table_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace mbi
