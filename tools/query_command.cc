#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/branch_and_bound.h"
#include "core/query_context.h"
#include "engine/engine.h"
#include "storage/env.h"
#include "tools/cli_command.h"
#include "tools/metrics_io.h"
#include "txn/database_io.h"
#include "util/flags.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace mbi::cli {
namespace {

/// Parses "3,17,204" into item ids; returns false on malformed input.
bool ParseItems(const std::string& text, std::vector<ItemId>* items) {
  items->clear();
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    std::string token = text.substr(pos, comma - pos);
    if (token.empty()) return false;
    char* end = nullptr;
    unsigned long value = std::strtoul(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0') return false;
    items->push_back(static_cast<ItemId>(value));
    pos = comma + 1;
  }
  return !items->empty();
}

}  // namespace

int RunQuery(int argc, char** argv) {
  FlagParser flags(
      "mbi query: k-NN or range similarity query against an index.");
  std::string db_path, index_path, items_text, similarity;
  int64_t k, random_target_seed;
  double termination, range_threshold;
  flags.AddString("db", "data.mbid", "database file", &db_path);
  flags.AddString("index", "index.mbst", "index file", &index_path);
  flags.AddString("items", "",
                  "target basket as comma-separated item ids; empty draws a "
                  "random database transaction as the target",
                  &items_text);
  flags.AddString("similarity", "match_ratio",
                  "hamming | match_ratio | cosine", &similarity);
  flags.AddInt64("k", 5, "neighbours to retrieve", &k);
  flags.AddDouble("termination", 1.0,
                  "early-termination access fraction in (0,1]", &termination);
  flags.AddDouble("range", -1.0,
                  "if >= 0, run a range query with this threshold instead of "
                  "k-NN",
                  &range_threshold);
  double deadline_ms;
  flags.AddDouble("deadline_ms", 0.0,
                  "per-query deadline in milliseconds; on expiry the engine "
                  "returns a certified degraded answer instead of running to "
                  "completion (0 = no deadline)",
                  &deadline_ms);
  flags.AddInt64("target_seed", 1,
                 "seed for picking a random target when --items is empty",
                 &random_target_seed);
  int64_t repeat;
  flags.AddInt64("repeat", 1,
                 "answer the k-NN query this many times through one reused "
                 "QueryContext and report per-query latency (steady-state "
                 "hot-path measurement)",
                 &repeat);
  bool explain;
  flags.AddBool("explain", false,
                "print the branch-and-bound's per-entry decisions", &explain);
  bool check_invariants;
  flags.AddBool("check_invariants", false,
                "verify the loaded index's structural invariants and the "
                "bound dominance (Lemma 2.1) for this target before querying "
                "(debug; O(N) extra work)",
                &check_invariants);
  std::string metrics_json;
  flags.AddString("metrics_json", "",
                  "write an mbi.metrics.v1 JSON snapshot of every metric to "
                  "this path after the query ('-' for stdout)",
                  &metrics_json);
  bool collect_spans;
  flags.AddBool("trace", false,
                "print the per-phase trace spans (load, open, query) of this "
                "invocation",
                &collect_spans);
  if (!flags.Parse(argc, argv)) return 0;

  // Instrumentation is opt-in: resolving handles only when a sink was asked
  // for keeps the default invocation on the uninstrumented fast path.
  MetricsRegistry* metrics =
      metrics_json.empty() ? nullptr : MetricsRegistry::Global();
  if (metrics != nullptr) Env::Default()->set_metrics(metrics);
  QueryTrace trace;
  QueryTrace* trace_sink = collect_spans ? &trace : nullptr;
  auto finish = [&](int code) {
    if (collect_spans) {
      std::printf("\ntrace:\n%s", trace.ToString().c_str());
    }
    if (metrics != nullptr && !WriteMetricsJson(metrics_json, *metrics)) {
      return 1;
    }
    return code;
  };

  StatusOr<TransactionDatabase> db = [&] {
    ScopedTimer span(nullptr, trace_sink, "load_db");
    return LoadDatabase(db_path);
  }();
  if (!db.ok()) {
    std::fprintf(stderr, "error: %s\n", db.status().ToString().c_str());
    return 1;
  }
  SignatureTableEngine engine(&*db);
  engine.set_metrics(metrics);
  {
    ScopedTimer span(nullptr, trace_sink, "open_index");
    if (Status opened = engine.OpenIndex(index_path); !opened.ok()) {
      if (!engine.quarantined()) {
        std::fprintf(stderr, "error: %s\n", opened.ToString().c_str());
        return 1;
      }
      // Corrupt index: quarantine and keep serving (exact answers via
      // sequential scan). `mbi build` rebuilds the index from the database.
      std::fprintf(stderr,
                   "warning: index quarantined (%s); serving queries via "
                   "sequential scan\n",
                   engine.quarantine_reason().ToString().c_str());
    }
  }

  Transaction target;
  if (items_text.empty()) {
    Rng rng(static_cast<uint64_t>(random_target_seed));
    target = db->Get(static_cast<TransactionId>(rng.UniformUint64(db->size())));
  } else {
    std::vector<ItemId> items;
    if (!ParseItems(items_text, &items)) {
      std::fprintf(stderr, "error: cannot parse --items '%s'\n",
                   items_text.c_str());
      return 1;
    }
    for (ItemId item : items) {
      if (item >= db->universe_size()) {
        std::fprintf(stderr, "error: item %u outside the universe [0, %u)\n",
                     item, db->universe_size());
        return 1;
      }
    }
    target = Transaction(std::move(items));
  }

  auto family = MakeSimilarityFamily(similarity);
  std::printf("target: %s\n", target.ToString().c_str());

  if (check_invariants && engine.table() != nullptr) {
    engine.table()->CheckInvariants(&*db);
    BranchAndBoundEngine(&*db, engine.table())
        .CheckBoundDominance(target, *family);
    std::printf("index invariants and bound dominance verified\n");
  }

  // One set of options for both query kinds (a range query ignores the
  // trace).
  SearchOptions options;
  options.max_access_fraction = termination;
  options.collect_trace = explain;
  Stopwatch timer;
  if (range_threshold >= 0.0) {
    RangeQueryResult result = [&] {
      ScopedTimer span(nullptr, trace_sink, "range_query");
      if (deadline_ms > 0.0) {
        options.budget = QueryBudget::WithDeadlineAfterMs(deadline_ms);
      }
      return engine.FindInRange(target, *family, range_threshold, options);
    }();
    std::printf(
        "range query %s >= %.4g: %zu matches in %.1f ms "
        "(accessed %.2f%%, pruned %llu/%llu entries%s)\n",
        similarity.c_str(), range_threshold, result.matches.size(),
        timer.ElapsedMillis(), 100.0 * result.stats.AccessedFraction(),
        static_cast<unsigned long long>(result.stats.entries_pruned),
        static_cast<unsigned long long>(result.stats.entries_total),
        result.stats.sequential_fallbacks > 0 ? ", sequential fallback" : "");
    for (size_t i = 0; i < result.matches.size() && i < 20; ++i) {
      std::printf("  tx %-10u %-10.4g %s\n", result.matches[i].id,
                  result.matches[i].similarity,
                  db->Get(result.matches[i].id).ToString().c_str());
    }
    if (!result.stats.is_exact) {
      std::printf("degraded answer (%s): unexplored entries could reach %.4g\n",
                  QueryTerminationName(result.stats.termination),
                  result.stats.certificate_bound);
    }
    return finish(0);
  }

  if (repeat < 1) repeat = 1;
  QueryContext context;
  NearestNeighborResult result;
  {
    ScopedTimer span(nullptr, trace_sink, "knn_query");
    for (int64_t run = 0; run < repeat; ++run) {
      // A fresh absolute deadline per repetition: --repeat measures the
      // steady state, not a budget shared across repetitions.
      if (deadline_ms > 0.0) {
        options.budget = QueryBudget::WithDeadlineAfterMs(deadline_ms);
      }
      engine.FindKNearest(target, *family, static_cast<size_t>(k), options,
                          &context, &result);
    }
  }
  double per_query_ms = timer.ElapsedMillis() / static_cast<double>(repeat);
  std::printf(
      "top-%lld by %s in %.3f ms%s (accessed %.2f%% of %zu transactions, "
      "%llu page reads%s%s)\n",
      static_cast<long long>(k), similarity.c_str(), per_query_ms,
      repeat > 1 ? " per query" : "", 100.0 * result.stats.AccessedFraction(),
      db->size(), static_cast<unsigned long long>(result.stats.io.pages_read),
      result.stats.is_exact ? ", provably exact" : "",
      result.stats.sequential_fallbacks > 0 ? ", sequential fallback" : "");
  for (const Neighbor& neighbor : result.neighbors) {
    std::printf("  tx %-10u %-10.4g %s\n", neighbor.id, neighbor.similarity,
                db->Get(neighbor.id).ToString().c_str());
  }
  if (!result.stats.is_exact) {
    std::printf("degraded answer (%s): unexplored entries could reach %.4g\n",
                QueryTerminationName(result.stats.termination),
                result.stats.certificate_bound);
  }
  if (explain && engine.table() != nullptr) {
    std::printf("\nbranch-and-bound trace (first 20 entries in visit order,"
                " K=%u):\n", engine.table()->cardinality());
    size_t shown = 0;
    size_t pruned = 0, scanned = 0;
    for (const EntryTrace& entry : result.trace) {
      const char* action = entry.action == EntryTrace::Action::kScanned
                               ? "scan "
                               : entry.action == EntryTrace::Action::kPruned
                                     ? "prune"
                                     : "skip ";
      scanned += entry.action == EntryTrace::Action::kScanned;
      pruned += entry.action == EntryTrace::Action::kPruned;
      if (shown < 20) {
        std::printf("  %s %s  opt=%-9.4g pess=%-9.4g txs=%u\n", action,
                    SupercoordinateToString(entry.coordinate,
                                            engine.table()->cardinality())
                        .c_str(),
                    entry.optimistic_bound, entry.pessimistic_bound,
                    entry.transaction_count);
        ++shown;
      }
    }
    std::printf("  ... %zu entries total: %zu scanned, %zu pruned\n",
                result.trace.size(), scanned, pruned);
  }
  return finish(0);
}

}  // namespace mbi::cli
