#ifndef MBI_BENCH_COMMON_HARNESS_H_
#define MBI_BENCH_COMMON_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/branch_and_bound.h"
#include "core/index_builder.h"
#include "core/similarity.h"
#include "gen/quest_generator.h"
#include "txn/database.h"

namespace mbi::bench {

/// Flags shared by every figure/table driver.
///
/// `scale` divides the paper's database sizes so the full harness can be
/// smoke-tested quickly (`--scale=8` turns 800K-transaction runs into 100K).
/// Measured percentages are scale-dependent only through the paper's own
/// scaling trends.
struct HarnessFlags {
  int64_t scale = 1;
  int64_t queries = 100;
  int64_t seed = 42;
  bool csv = false;

  /// Parses argv; returns false if --help was requested (caller exits 0).
  static bool Parse(const std::string& description, int argc, char** argv,
                    HarnessFlags* flags);
};

/// The paper's generator setting: |U| = 1000 items, L = 2000 maximal
/// potentially large itemsets, I = avg_itemset_size, T = avg transaction
/// size (§5).
QuestGeneratorConfig PaperGeneratorConfig(double avg_transaction_size,
                                          double avg_itemset_size, uint64_t seed);

/// Copies the first `n` transactions — the paper's Dx axis reuses one
/// distribution at several sizes.
TransactionDatabase Prefix(const TransactionDatabase& database, uint64_t n);

/// Builds a signature table at cardinality `k` (single-linkage signatures,
/// activation threshold `r`).
SignatureTable BuildTable(const TransactionDatabase& database, uint32_t k,
                          int activation_threshold = 1);

/// Average pruning efficiency (percent) over `targets` when the branch and
/// bound runs to completion (paper's pruning-efficiency metric).
double AvgPruningEfficiency(const BranchAndBoundEngine& engine,
                            const std::vector<Transaction>& targets,
                            const SimilarityFamily& family);

/// Percentage of `targets` whose early-terminated nearest neighbour has the
/// same similarity value as the true nearest neighbour (paper's accuracy
/// metric; ties count as found).
double AccuracyAtTermination(const BranchAndBoundEngine& engine,
                             const std::vector<Transaction>& targets,
                             const SimilarityFamily& family,
                             double access_fraction,
                             EntrySortOrder sort_order =
                                 EntrySortOrder::kOptimisticBound);

/// Batched variant: one accuracy value per entry of `access_fractions`,
/// computing each query's exact answer only once. When `certified` is
/// non-null it receives, per level, the percentage of queries whose
/// early-terminated answer carries the §4.2 exactness certificate
/// (QueryStats::is_exact).
std::vector<double> AccuracyAtTerminationLevels(
    const BranchAndBoundEngine& engine,
    const std::vector<Transaction>& targets, const SimilarityFamily& family,
    const std::vector<double>& access_fractions,
    EntrySortOrder sort_order = EntrySortOrder::kOptimisticBound,
    std::vector<double>* certified = nullptr);

/// Prints the standard experiment banner.
void PrintBanner(const std::string& figure, const std::string& what,
                 const std::string& dataset, const HarnessFlags& flags);

/// Pins the calling thread to one CPU so timed sections stop migrating
/// between cores mid-measurement (each migration costs cold caches and,
/// on heterogeneous parts, a different clock). The CPU defaults to the
/// first one in the current affinity mask and can be overridden with
/// MBI_BENCH_CPU=<n>. Returns the pinned CPU, or -1 when pinning is
/// unsupported/denied (the benchmark still runs, unpinned).
int PinBenchmarkThread();

/// Pins the calling thread to a CPU other than `avoid_cpu`, picked from the
/// affinity mask the process had before PinBenchmarkThread narrowed it, so
/// background work cannot steal the timed thread's core. Returns that
/// CPU, or -1 when the process may use only one CPU (or pinning fails) —
/// the thread then stays where it is.
int PinThreadAwayFrom(int avoid_cpu);

/// Touches every transaction of `database` once so the timed sections
/// measure query work, not first-touch page faults on the data. Returns a
/// checksum of the visited items (forces the reads to happen).
uint64_t WarmDatabase(const TransactionDatabase& database);

/// Figure 6/9/12 driver: pruning efficiency vs database size for one
/// similarity family, K in {13, 14, 15}.
int RunPruningVsDbSize(const std::string& figure,
                       const std::string& family_name, int argc, char** argv);

/// Figure 7/10/13 driver: accuracy vs early-termination level on
/// T10.I6.D(800K/scale), K in {13, 14, 15}.
int RunAccuracyVsTermination(const std::string& figure,
                             const std::string& family_name, int argc,
                             char** argv);

/// Figure 8/11/14 driver: accuracy at 2% termination vs average transaction
/// size on Tx.I6.D(800K/scale), K in {13, 14, 15}.
int RunAccuracyVsTransactionSize(const std::string& figure,
                                 const std::string& family_name, int argc,
                                 char** argv);

}  // namespace mbi::bench

#endif  // MBI_BENCH_COMMON_HARNESS_H_
