#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/table_io.h"
#include "gen/quest_generator.h"
#include "mining/support_counter.h"
#include "storage/env.h"
#include "tools/cli_command.h"
#include "tools/metrics_io.h"
#include "txn/database_io.h"
#include "util/flags.h"
#include "util/metrics.h"

namespace mbi::cli {

int RunStats(int argc, char** argv) {
  FlagParser flags("mbi stats: database and index statistics.");
  std::string db_path, index_path;
  int64_t top_items;
  flags.AddString("db", "data.mbid", "database file", &db_path);
  flags.AddString("index", "", "optional index file", &index_path);
  flags.AddInt64("top_items", 10, "number of most frequent items to list",
                 &top_items);
  bool dump_metrics;
  flags.AddBool("metrics", false,
                "instrument this invocation and dump the live mbi.metrics.v1 "
                "registry as JSON to stdout after the report",
                &dump_metrics);
  if (!flags.Parse(argc, argv)) return 0;

  MetricsRegistry* metrics =
      dump_metrics ? MetricsRegistry::Global() : nullptr;
  if (metrics != nullptr) Env::Default()->set_metrics(metrics);

  auto db = LoadDatabase(db_path);
  if (!db.ok()) {
    std::fprintf(stderr, "error: %s\n", db.status().ToString().c_str());
    return 1;
  }

  CorpusStats stats = ComputeCorpusStats(*db);
  std::printf("database %s\n", db_path.c_str());
  std::printf("  transactions:        %llu\n",
              static_cast<unsigned long long>(stats.num_transactions));
  std::printf("  universe size:       %u\n", db->universe_size());
  std::printf("  distinct items used: %u\n", stats.distinct_items);
  std::printf("  avg transaction:     %.2f items\n",
              stats.avg_transaction_size);
  std::printf("  max transaction:     %zu items\n",
              stats.max_transaction_size);
  std::printf("  density:             %.5f\n", stats.density);

  SupportCounter supports(*db);
  std::vector<ItemId> order(db->universe_size());
  for (ItemId item = 0; item < db->universe_size(); ++item) order[item] = item;
  std::sort(order.begin(), order.end(), [&](ItemId a, ItemId b) {
    return supports.ItemCount(a) > supports.ItemCount(b);
  });
  std::printf("  top items by support:\n");
  const size_t top_limit = top_items > 0 ? static_cast<size_t>(top_items) : 0;
  for (size_t i = 0; i < top_limit && i < order.size(); ++i) {
    std::printf("    item %-6u support %.4f\n", order[i],
                supports.ItemSupport(order[i]));
  }

  if (!index_path.empty()) {
    auto table = LoadSignatureTable(index_path, *db);
    if (!table.ok()) {
      std::fprintf(stderr, "error: %s\n", table.status().ToString().c_str());
      return 1;
    }
    table->set_metrics(metrics);
    SignatureTable::Stats index_stats = table->ComputeStats();
    std::printf("index %s\n", index_path.c_str());
    std::printf("  signature cardinality K: %u\n", index_stats.cardinality);
    std::printf("  activation threshold r:  %d\n",
                table->activation_threshold());
    std::printf("  directory entries:       %llu (2^K)\n",
                static_cast<unsigned long long>(index_stats.directory_entries));
    std::printf("  occupied entries:        %llu\n",
                static_cast<unsigned long long>(index_stats.occupied_entries));
    std::printf("  avg bucket size:         %.2f transactions\n",
                index_stats.avg_bucket_size);
    std::printf("  max bucket size:         %llu transactions\n",
                static_cast<unsigned long long>(index_stats.max_bucket_size));
    std::printf("  disk pages:              %llu (%u B each)\n",
                static_cast<unsigned long long>(index_stats.disk_pages),
                table->page_size_bytes());
    std::printf("  directory memory:        %llu KiB\n",
                static_cast<unsigned long long>(
                    index_stats.directory_bytes / 1024));
    std::printf("  entry summaries:         %llu KiB ((2K+1) B per entry)\n",
                static_cast<unsigned long long>(
                    index_stats.summary_bytes / 1024));
    std::printf("  signature sizes:");
    for (uint32_t s = 0; s < table->cardinality(); ++s) {
      std::printf(" %zu", table->partition().ItemsOf(s).size());
    }
    std::printf("\n");
  }
  if (metrics != nullptr) {
    std::printf("metrics:\n");
    if (!WriteMetricsJson("-", *metrics)) return 1;
  }
  return 0;
}

}  // namespace mbi::cli
