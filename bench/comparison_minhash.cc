// Signature table vs MinHash/LSH — the paper's method against the technique
// that later superseded it for set-similarity search. Both answer Jaccard
// top-1 queries (Jaccard x/(x+y) is admissible under the paper's §2
// constraints, so the *same* signature table serves it unchanged, while the
// MinHash index is purpose-built for Jaccard and nothing else).
//
// Reported per method: recall of the true nearest neighbour (vs an exact
// scan), fraction of the database touched, and index memory. The signature
// table at full completion is exact by construction; its 2%-termination mode
// and several LSH banding configurations populate the recall/work trade-off.

#include <cstdio>

#include "baseline/minhash.h"
#include "baseline/sequential_scan.h"
#include "common/harness.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  mbi::bench::HarnessFlags flags;
  if (!mbi::bench::HarnessFlags::Parse(
          "Comparison: signature table vs MinHash/LSH under Jaccard", argc,
          argv, &flags)) {
    return 0;
  }
  const uint64_t size = 200'000 / static_cast<uint64_t>(flags.scale);
  mbi::bench::PrintBanner("Comparison",
                          "signature table vs MinHash/LSH, Jaccard top-1",
                          "T10.I6.D" + std::to_string(size), flags);

  mbi::QuestGenerator generator(mbi::bench::PaperGeneratorConfig(
      10.0, 6.0, static_cast<uint64_t>(flags.seed)));
  mbi::TransactionDatabase db = generator.GenerateDatabase(size);
  std::vector<mbi::Transaction> targets =
      generator.GenerateQueries(static_cast<uint64_t>(flags.queries));
  mbi::JaccardFamily family;
  mbi::SequentialScanner scanner(&db);

  // Ground truth once per query.
  std::vector<double> truth(targets.size());
  for (size_t q = 0; q < targets.size(); ++q) {
    truth[q] = scanner.FindKNearest(targets[q], family, 1)[0].similarity;
  }

  mbi::TablePrinter table(
      {"method", "recall@1_%", "%tx_accessed", "memory_KiB"});
  const double n = static_cast<double>(targets.size());

  // Signature table: exact and 2%-terminated.
  mbi::SignatureTable sig_table = mbi::bench::BuildTable(db, 15);
  mbi::BranchAndBoundEngine engine(&db, &sig_table);
  for (double termination : {1.0, 0.02}) {
    int found = 0;
    double accessed = 0.0;
    mbi::SearchOptions options;
    options.max_access_fraction = termination;
    for (size_t q = 0; q < targets.size(); ++q) {
      auto result = engine.FindKNearest(targets[q], family, 1, options);
      found += result.neighbors[0].similarity == truth[q];
      accessed += result.stats.AccessedFraction();
    }
    char name[64];
    std::snprintf(name, sizeof(name), "signature_table (%s)",
                  termination >= 1.0 ? "exact" : "2% term.");
    table.AddRow({name, mbi::TablePrinter::Format(100.0 * found / n, 1),
                  mbi::TablePrinter::Format(100.0 * accessed / n, 2),
                  mbi::TablePrinter::Format(static_cast<int64_t>(
                      sig_table.MemoryFootprintBytes() / 1024))});
  }

  // MinHash/LSH at three banding operating points.
  struct Banding {
    uint32_t bands, rows;
  };
  for (Banding banding : {Banding{32, 2}, Banding{16, 4}, Banding{8, 8}}) {
    mbi::MinHashConfig config;
    config.num_bands = banding.bands;
    config.rows_per_band = banding.rows;
    mbi::MinHashIndex index(&db, config);
    int found = 0;
    double accessed = 0.0;
    for (size_t q = 0; q < targets.size(); ++q) {
      auto result = index.FindKNearestJaccard(targets[q], 1);
      found += !result.neighbors.empty() &&
               result.neighbors[0].similarity == truth[q];
      accessed += result.accessed_fraction;
    }
    char name[64];
    std::snprintf(name, sizeof(name), "minhash_lsh (b=%u, r=%u)",
                  banding.bands, banding.rows);
    table.AddRow({name, mbi::TablePrinter::Format(100.0 * found / n, 1),
                  mbi::TablePrinter::Format(100.0 * accessed / n, 2),
                  mbi::TablePrinter::Format(
                      static_cast<int64_t>(index.MemoryBytes() / 1024))});
  }
  flags.csv ? table.PrintCsv(stdout) : table.Print(stdout);
  std::printf(
      "\nnote: the signature table answers *any* admissible f(x,y) from one "
      "build and certifies exactness; MinHash/LSH is Jaccard-only and "
      "approximate.\n");
  return 0;
}
