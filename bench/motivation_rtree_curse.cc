// Motivation experiment (paper §1): why spatial indexes are ruled out for
// market-basket data. Sweeps the dimensionality (universe size) at fixed
// database size and compares the fraction of the database an R-tree
// (Guttman, searched with Roussopoulos et al. MINDIST branch and bound —
// the paper's ref [17]) must access for an exact Hamming nearest neighbour,
// against the signature table on the same data — "as a rule of thumb, when
// the dimensionality is more than 10, none of the above methods work well".

#include <cstdio>

#include "baseline/rtree.h"
#include "common/harness.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  mbi::bench::HarnessFlags flags;
  if (!mbi::bench::HarnessFlags::Parse(
          "Motivation: R-tree dimensionality curse on basket data", argc,
          argv, &flags)) {
    return 0;
  }
  const uint64_t size = 50'000 / static_cast<uint64_t>(flags.scale);
  mbi::bench::PrintBanner(
      "Motivation", "R-tree vs signature table as dimensionality grows",
      "T10.Ix.D" + std::to_string(size), flags);

  mbi::InverseHammingFamily family;
  mbi::TablePrinter table({"universe_dims", "rtree_%tx", "rtree_free_dims_%",
                           "sigtable_%tx (K=13)"});
  for (uint32_t universe : {50u, 100u, 250u, 500u, 1000u}) {
    mbi::QuestGeneratorConfig gen_config = mbi::bench::PaperGeneratorConfig(
        10.0, 6.0, static_cast<uint64_t>(flags.seed));
    gen_config.universe_size = universe;
    gen_config.num_large_itemsets = std::max(50u, universe / 2);
    mbi::QuestGenerator generator(gen_config);
    mbi::TransactionDatabase db = generator.GenerateDatabase(size);
    std::vector<mbi::Transaction> targets =
        generator.GenerateQueries(static_cast<uint64_t>(flags.queries));

    mbi::BinaryRTree rtree(&db, mbi::RTreeConfig{});
    mbi::SignatureTable sig_table = mbi::bench::BuildTable(db, 13);
    mbi::BranchAndBoundEngine engine(&db, &sig_table);

    double rtree_access = 0.0, table_access = 0.0;
    for (const mbi::Transaction& target : targets) {
      rtree_access +=
          rtree.FindKNearestHamming(target, 1).stats.AccessedFraction();
      table_access +=
          engine.FindKNearest(target, family, 1).stats.AccessedFraction();
    }
    double n = static_cast<double>(targets.size());
    auto tree_stats = rtree.ComputeTreeStats();
    table.AddRow(
        {mbi::TablePrinter::Format(static_cast<int64_t>(universe)),
         mbi::TablePrinter::Format(100.0 * rtree_access / n, 2),
         mbi::TablePrinter::Format(
             100.0 * tree_stats.root_child_free_dim_fraction, 1),
         mbi::TablePrinter::Format(100.0 * table_access / n, 2)});
  }
  std::printf("database fraction accessed per exact NN query:\n");
  flags.csv ? table.PrintCsv(stdout) : table.Print(stdout);
  return 0;
}
