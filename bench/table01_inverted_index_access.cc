// Reproduces paper Table 1: the minimum percentage of transactions an
// inverted index must access (the phase-1 candidate set, no page scattering)
// as the average transaction size grows — and, beyond the paper's table, the
// percentage of *pages* those candidates touch on a sequential layout (the
// page-scattering effect §5.1 argues about) next to the signature table's
// access percentage on the same data.

#include <cstdio>

#include "baseline/inverted_index.h"
#include "common/harness.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  mbi::bench::HarnessFlags flags;
  if (!mbi::bench::HarnessFlags::Parse(
          "Table 1: inverted-index access percentage vs avg transaction size",
          argc, argv, &flags)) {
    return 0;
  }
  const uint64_t size = 800'000 / static_cast<uint64_t>(flags.scale);
  mbi::bench::PrintBanner("Table 1",
                          "minimum % of transactions accessed by an inverted "
                          "index (no scattering)",
                          "Tx.I6.D" + std::to_string(size), flags);

  mbi::MatchRatioFamily family;
  mbi::TablePrinter table({"avg_tx_size", "inverted_%tx", "inverted_%pages",
                           "sigtable_%tx (K=15)"});
  for (double avg_size : {5.0, 7.0, 10.0, 12.0, 15.0}) {
    mbi::QuestGenerator generator(mbi::bench::PaperGeneratorConfig(
        avg_size, 6.0, static_cast<uint64_t>(flags.seed)));
    mbi::TransactionDatabase db = generator.GenerateDatabase(size);
    std::vector<mbi::Transaction> targets =
        generator.GenerateQueries(static_cast<uint64_t>(flags.queries));

    mbi::InvertedIndex inverted(&db);
    mbi::SignatureTable sig_table = mbi::bench::BuildTable(db, 15);
    mbi::BranchAndBoundEngine engine(&db, &sig_table);

    double tx_fraction = 0.0, page_fraction = 0.0, sig_fraction = 0.0;
    for (const mbi::Transaction& target : targets) {
      mbi::InvertedIndex::Result result =
          inverted.FindKNearest(target, family, 1);
      tx_fraction += result.accessed_fraction;
      page_fraction += static_cast<double>(result.pages_touched) /
                       static_cast<double>(result.pages_total);
      sig_fraction +=
          engine.FindKNearest(target, family, 1).stats.AccessedFraction();
    }
    double n = static_cast<double>(targets.size());
    table.AddRow({mbi::TablePrinter::Format(avg_size, 0),
                  mbi::TablePrinter::Format(100.0 * tx_fraction / n, 2),
                  mbi::TablePrinter::Format(100.0 * page_fraction / n, 2),
                  mbi::TablePrinter::Format(100.0 * sig_fraction / n, 2)});
  }
  std::printf("access volume per nearest-neighbour query:\n");
  flags.csv ? table.PrintCsv(stdout) : table.Print(stdout);
  return 0;
}
