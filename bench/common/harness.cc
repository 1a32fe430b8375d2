#include "common/harness.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#ifdef __linux__
#include <sched.h>
#endif

#include "util/flags.h"
#include "util/macros.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace mbi::bench {
namespace {

constexpr uint64_t kPaperDbSize = 800'000;
const std::vector<uint64_t> kPaperDbSizes = {100'000, 200'000, 400'000,
                                             600'000, 800'000};
const std::vector<uint32_t> kPaperCardinalities = {13, 14, 15};
const std::vector<double> kTerminationLevels = {0.002, 0.005, 0.01, 0.015,
                                                0.02};
const std::vector<double> kTransactionSizes = {5, 7, 10, 12, 15};

#ifdef __linux__
/// The affinity mask the process started with, captured on first use (which
/// PinBenchmarkThread makes sure happens before it narrows the mask).
const cpu_set_t& InitialAffinity() {
  static const cpu_set_t allowed = [] {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) != 0) CPU_ZERO(&mask);
    return mask;
  }();
  return allowed;
}

int PinCallingThread(int cpu) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(static_cast<size_t>(cpu), &mask);
  return sched_setaffinity(0, sizeof(mask), &mask) == 0 ? cpu : -1;
}
#endif

bool SimilarityEqual(double a, double b) {
  return (std::isinf(a) && std::isinf(b) && std::signbit(a) == std::signbit(b))
             ? true
             : a == b;
}

}  // namespace

bool HarnessFlags::Parse(const std::string& description, int argc, char** argv,
                         HarnessFlags* flags) {
  FlagParser parser(description);
  parser.AddInt64("scale", 1,
                  "divide the paper's database sizes by this factor "
                  "(e.g. 8 turns 800K into 100K) for quick runs",
                  &flags->scale);
  parser.AddInt64("queries", 100, "query targets per measurement point",
                  &flags->queries);
  parser.AddInt64("seed", 42, "generator seed", &flags->seed);
  parser.AddBool("csv", false, "emit CSV instead of an aligned table",
                 &flags->csv);
  if (!parser.Parse(argc, argv)) return false;
  MBI_CHECK_MSG(flags->scale >= 1, "--scale must be >= 1");
  MBI_CHECK_MSG(flags->queries >= 1, "--queries must be >= 1");
  return true;
}

int PinBenchmarkThread() {
#ifdef __linux__
  const cpu_set_t& allowed = InitialAffinity();
  int cpu = -1;
  if (const char* env = std::getenv("MBI_BENCH_CPU")) {
    cpu = std::atoi(env);
  } else {
    // First CPU we are already allowed on (respects container cpusets).
    for (size_t c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) {
        cpu = static_cast<int>(c);
        break;
      }
    }
  }
  if (cpu < 0) return -1;
  return PinCallingThread(cpu);
#else
  return -1;
#endif
}

int PinThreadAwayFrom(int avoid_cpu) {
#ifdef __linux__
  const cpu_set_t& allowed = InitialAffinity();
  for (size_t c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed) && static_cast<int>(c) != avoid_cpu) {
      return PinCallingThread(static_cast<int>(c));
    }
  }
  return -1;
#else
  (void)avoid_cpu;
  return -1;
#endif
}

uint64_t WarmDatabase(const TransactionDatabase& database) {
  uint64_t checksum = 0;
  for (TransactionId id = 0; id < database.size(); ++id) {
    for (ItemId item : database.Get(id).items()) checksum += item;
  }
  return checksum;
}

QuestGeneratorConfig PaperGeneratorConfig(double avg_transaction_size,
                                          double avg_itemset_size,
                                          uint64_t seed) {
  QuestGeneratorConfig config;
  config.universe_size = 1000;
  config.num_large_itemsets = 2000;
  config.avg_itemset_size = avg_itemset_size;
  config.avg_transaction_size = avg_transaction_size;
  config.seed = seed;
  return config;
}

TransactionDatabase Prefix(const TransactionDatabase& database, uint64_t n) {
  MBI_CHECK(n <= database.size());
  TransactionDatabase prefix(database.universe_size());
  for (TransactionId id = 0; id < n; ++id) prefix.Add(database.Get(id));
  return prefix;
}

SignatureTable BuildTable(const TransactionDatabase& database, uint32_t k,
                          int activation_threshold) {
  IndexBuildConfig build;
  build.clustering.target_cardinality = k;
  build.table.activation_threshold = activation_threshold;
  return BuildIndex(database, build);
}

double AvgPruningEfficiency(const BranchAndBoundEngine& engine,
                            const std::vector<Transaction>& targets,
                            const SimilarityFamily& family) {
  double total = 0.0;
  for (const Transaction& target : targets) {
    total += engine.FindNearest(target, family)
                 .stats.PruningEfficiencyPercent();
  }
  return total / static_cast<double>(targets.size());
}

double AccuracyAtTermination(const BranchAndBoundEngine& engine,
                             const std::vector<Transaction>& targets,
                             const SimilarityFamily& family,
                             double access_fraction,
                             EntrySortOrder sort_order) {
  return AccuracyAtTerminationLevels(engine, targets, family,
                                     {access_fraction}, sort_order)[0];
}

std::vector<double> AccuracyAtTerminationLevels(
    const BranchAndBoundEngine& engine,
    const std::vector<Transaction>& targets, const SimilarityFamily& family,
    const std::vector<double>& access_fractions, EntrySortOrder sort_order) {
  std::vector<int> found(access_fractions.size(), 0);
  for (const Transaction& target : targets) {
    NearestNeighborResult exact = engine.FindNearest(target, family);
    for (size_t level = 0; level < access_fractions.size(); ++level) {
      SearchOptions options;
      options.max_access_fraction = access_fractions[level];
      options.sort_order = sort_order;
      NearestNeighborResult fast = engine.FindNearest(target, family, options);
      found[level] += SimilarityEqual(fast.neighbors[0].similarity,
                                      exact.neighbors[0].similarity);
    }
  }
  std::vector<double> accuracy(access_fractions.size());
  for (size_t level = 0; level < access_fractions.size(); ++level) {
    accuracy[level] =
        100.0 * found[level] / static_cast<double>(targets.size());
  }
  return accuracy;
}

void PrintBanner(const std::string& figure, const std::string& what,
                 const std::string& dataset, const HarnessFlags& flags) {
  std::printf("=== %s: %s ===\n", figure.c_str(), what.c_str());
  std::printf(
      "dataset %s | universe 1000 items, L=2000 itemsets | seed %lld | "
      "%lld queries/point | scale 1/%lld\n\n",
      dataset.c_str(), static_cast<long long>(flags.seed),
      static_cast<long long>(flags.queries),
      static_cast<long long>(flags.scale));
}

int RunPruningVsDbSize(const std::string& figure,
                       const std::string& family_name, int argc, char** argv) {
  HarnessFlags flags;
  if (!HarnessFlags::Parse(
          figure + ": pruning efficiency vs database size (" + family_name +
              ")",
          argc, argv, &flags)) {
    return 0;
  }
  auto family = MakeSimilarityFamily(family_name);
  PrintBanner(figure,
              "pruning efficiency vs database size, similarity = " +
                  family_name,
              "T10.I6.Dx", flags);

  Stopwatch timer;
  QuestGenerator generator(
      PaperGeneratorConfig(10.0, 6.0, static_cast<uint64_t>(flags.seed)));
  const uint64_t max_size = kPaperDbSize / static_cast<uint64_t>(flags.scale);
  TransactionDatabase full = generator.GenerateDatabase(max_size);
  std::vector<Transaction> targets =
      generator.GenerateQueries(static_cast<uint64_t>(flags.queries));
  std::printf("generated %llu transactions in %.1fs\n\n",
              static_cast<unsigned long long>(max_size),
              timer.ElapsedSeconds());

  TablePrinter table({"db_size", "K=13", "K=14", "K=15"});
  for (uint64_t paper_size : kPaperDbSizes) {
    uint64_t size = paper_size / static_cast<uint64_t>(flags.scale);
    TransactionDatabase db = Prefix(full, size);
    std::vector<std::string> row = {TablePrinter::Format(
        static_cast<int64_t>(size))};
    for (uint32_t k : kPaperCardinalities) {
      SignatureTable sig_table = BuildTable(db, k);
      BranchAndBoundEngine engine(&db, &sig_table);
      row.push_back(TablePrinter::Format(
          AvgPruningEfficiency(engine, targets, *family), 2));
    }
    table.AddRow(std::move(row));
  }
  std::printf("pruning efficiency (%% of transactions pruned, exact search):\n");
  flags.csv ? table.PrintCsv(stdout) : table.Print(stdout);
  std::printf("\ntotal %.1fs\n", timer.ElapsedSeconds());
  return 0;
}

int RunAccuracyVsTermination(const std::string& figure,
                             const std::string& family_name, int argc,
                             char** argv) {
  HarnessFlags flags;
  if (!HarnessFlags::Parse(
          figure + ": accuracy vs early-termination level (" + family_name +
              ")",
          argc, argv, &flags)) {
    return 0;
  }
  auto family = MakeSimilarityFamily(family_name);
  const uint64_t size = kPaperDbSize / static_cast<uint64_t>(flags.scale);
  PrintBanner(figure,
              "accuracy vs early termination level, similarity = " +
                  family_name,
              DatasetName(10, 6, size), flags);

  Stopwatch timer;
  QuestGenerator generator(
      PaperGeneratorConfig(10.0, 6.0, static_cast<uint64_t>(flags.seed)));
  TransactionDatabase db = generator.GenerateDatabase(size);
  std::vector<Transaction> targets =
      generator.GenerateQueries(static_cast<uint64_t>(flags.queries));

  TablePrinter table({"termination_%", "K=13", "K=14", "K=15"});
  std::vector<std::vector<std::string>> rows(kTerminationLevels.size());
  for (size_t level = 0; level < kTerminationLevels.size(); ++level) {
    rows[level].push_back(
        TablePrinter::Format(100.0 * kTerminationLevels[level], 1));
  }
  for (uint32_t k : kPaperCardinalities) {
    SignatureTable sig_table = BuildTable(db, k);
    BranchAndBoundEngine engine(&db, &sig_table);
    std::vector<double> accuracy = AccuracyAtTerminationLevels(
        engine, targets, *family, kTerminationLevels);
    for (size_t level = 0; level < kTerminationLevels.size(); ++level) {
      rows[level].push_back(TablePrinter::Format(accuracy[level], 1));
    }
  }
  for (auto& row : rows) table.AddRow(std::move(row));
  std::printf("accuracy (%% of queries where the true NN was found):\n");
  flags.csv ? table.PrintCsv(stdout) : table.Print(stdout);
  std::printf("\ntotal %.1fs\n", timer.ElapsedSeconds());
  return 0;
}

int RunAccuracyVsTransactionSize(const std::string& figure,
                                 const std::string& family_name, int argc,
                                 char** argv) {
  HarnessFlags flags;
  if (!HarnessFlags::Parse(
          figure + ": accuracy at 2% termination vs avg transaction size (" +
              family_name + ")",
          argc, argv, &flags)) {
    return 0;
  }
  auto family = MakeSimilarityFamily(family_name);
  const uint64_t size = kPaperDbSize / static_cast<uint64_t>(flags.scale);
  PrintBanner(figure,
              "accuracy at 2% termination vs avg transaction size, "
              "similarity = " +
                  family_name,
              "Tx.I6.D" + std::to_string(size), flags);

  Stopwatch timer;
  TablePrinter table({"avg_tx_size", "K=13", "K=14", "K=15"});
  for (double avg_size : kTransactionSizes) {
    QuestGenerator generator(PaperGeneratorConfig(
        avg_size, 6.0, static_cast<uint64_t>(flags.seed)));
    TransactionDatabase db = generator.GenerateDatabase(size);
    std::vector<Transaction> targets =
        generator.GenerateQueries(static_cast<uint64_t>(flags.queries));
    std::vector<std::string> row = {TablePrinter::Format(avg_size, 0)};
    for (uint32_t k : kPaperCardinalities) {
      SignatureTable sig_table = BuildTable(db, k);
      BranchAndBoundEngine engine(&db, &sig_table);
      row.push_back(TablePrinter::Format(
          AccuracyAtTermination(engine, targets, *family, 0.02), 1));
    }
    table.AddRow(std::move(row));
  }
  std::printf("accuracy (%% of queries where the true NN was found):\n");
  flags.csv ? table.PrintCsv(stdout) : table.Print(stdout);
  std::printf("\ntotal %.1fs\n", timer.ElapsedSeconds());
  return 0;
}

}  // namespace mbi::bench
