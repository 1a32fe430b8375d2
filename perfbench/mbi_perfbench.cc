// End-to-end benchmark driver for the signature-table index.
//
//   mbi_perfbench --workload <static_paper|ingest_window>
//                 --seed <n> --seconds <s> --trace <0|1>
//
// Generates its inputs from --seed (the library only ever sees the generated
// rows and targets), builds the index, runs the workload for about --seconds,
// checks every timed answer against a SequentialScanner oracle, and prints a
// human-readable report followed by one JSON line:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics (tracing and metrics off).
// --trace 1 is a separate run that splits the same work into its layers by
// calling the library's public phase functions from outside, and reports
// the per-layer metrics. perfbench/README.md explains every number.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "baseline/sequential_scan.h"
#include "common/bench_env.h"
#include "common/harness.h"
#include "core/bounds.h"
#include "core/clustering.h"
#include "core/index_builder.h"
#include "core/query_context.h"
#include "core/signature_table.h"
#include "core/similarity.h"
#include "dyn/dynamic_index.h"
#include "engine/admission.h"
#include "engine/engine.h"
#include "gen/quest_generator.h"
#include "kernel/dispatch.h"
#include "mining/support_counter.h"
#include "txn/candidate_layout.h"
#include "txn/packed_target.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace mbi::perfbench {
namespace {

// --- Workload shape (paper §5: T10.I6, |U| = 1000, L = 2000, K = 15, r = 1,
// k = 10). ---
constexpr uint32_t kUniverse = 1000;
constexpr uint32_t kCardinality = 15;
constexpr int kActivation = 1;
constexpr size_t kK = 10;
constexpr size_t kStaticRows = 200'000;
constexpr size_t kIngestRows = 100'000;
constexpr size_t kIngestBuffer = 1024;
constexpr size_t kIngestFanout = 4;
// Insert + delete pairs per second. Low enough that one closed-loop reader
// gets over 1000 queries (ten beyond p99) while the writer runs, and high
// enough for spills and a level-0 merge at --seconds 45.
constexpr double kWriteRate = 125.0;
constexpr size_t kBatchWorkers = 3;
constexpr size_t kBatchSize = 48;
// Set-ups per run; setup_s is their median. A static set-up takes about
// 0.1 s, so many fit: 31 before the traced run's layer table, and in the
// untraced run three after each closed-loop pass (about 12 passes). An
// ingest set-up (paced bulk load) takes about 1 s, and the index it builds
// is the one the run measures, so its set-ups all come first.
constexpr int kStaticSetupRepeats = 31;
constexpr int kStaticSetupsPerPass = 3;
constexpr int kIngestSetupRepeats = 5;
// Distinct (target, family) pairs per run. The static loops cycle through
// them in whole passes. The ingest reader cycles through its targets about
// five times at the rate it gets, so every run samples each of them at a
// range of tombstone counts; a reader that walked more targets than it had
// time for answered a different mix on a faster or slower host. Only a
// prefix is checked against an oracle.
constexpr size_t kPaperTargets = 1000;
constexpr size_t kIngestTargets = 300;
constexpr size_t kIngestCheckedTargets = 100;
// The corpus and the targets are one fixed draw of the paper's generator,
// so every run searches the same data for the same targets, and runs differ
// only in what --seed draws: the order of the static queries and the
// written rows. Index quality, and with it every latency, moves by tens of
// percent from one generated corpus to the next. A fresh set of 1000
// targets per seed moved p99 (about ten targets decide it) and batch
// throughput by about 20%.
constexpr uint64_t kCorpusSeed = 42;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && args->seconds > 0.0;
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
      have_trace = args->trace || std::strcmp(value, "0") == 0;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace &&
         argc % 2 == 1;
}

// --- Sample statistics. ---

/// Nearest-rank quantile of an ascending vector.
double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, 0.5);
}

/// Median of the set-up times, after printing their range.
double SetupMedian(std::vector<double> seconds) {
  std::sort(seconds.begin(), seconds.end());
  const double median = QuantileSorted(seconds, 0.5);
  std::printf("  set-ups: n=%zu min=%.4fs median=%.4fs max=%.4fs\n",
              seconds.size(), seconds.front(), median, seconds.back());
  return median;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

struct Latency {
  size_t samples = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  size_t beyond_p99 = 0;  // Samples strictly above the reported p99.
};

Latency Summarize(std::vector<double> samples) {
  Latency out;
  std::sort(samples.begin(), samples.end());
  out.samples = samples.size();
  out.p50 = QuantileSorted(samples, 0.50);
  out.p99 = QuantileSorted(samples, 0.99);
  out.mean = Mean(samples);
  out.beyond_p99 = static_cast<size_t>(
      samples.end() - std::upper_bound(samples.begin(), samples.end(), out.p99));
  return out;
}

// --- Report: human-readable lines as the run goes, one JSON line at the
// end. ---

class Report {
 public:
  void Metric(const std::string& name, const std::string& unit, double value) {
    metrics_.push_back({name, unit, value});
    std::printf("  %-32s %16.4f %s\n", name.c_str(), value, unit.c_str());
  }
  /// A number printed for the reader but not part of the JSON result.
  void Info(const std::string& name, const std::string& unit, double value) {
    std::printf("  %-32s %16.4f %s   (info)\n", name.c_str(), value,
                unit.c_str());
  }
  /// A count that depends only on the inputs, so it must repeat exactly for
  /// a seed. Printed on the `exact counts:` line, which run.py compares
  /// across runs.
  void Exact(const std::string& name, double value) {
    exact_.push_back({name, "", value});
  }
  void Section(const char* title) {
    std::printf("\n== %s (t=%.2fs) ==\n", title, clock_.ElapsedSeconds());
  }

  void Attempt(uint64_t n) { attempted_ += n; }
  void Fail(uint64_t n, const char* why) {
    if (n == 0) return;
    failed_ += n;
    std::printf("  FAILED %llu operation(s): %s\n",
                static_cast<unsigned long long>(n), why);
  }
  /// A broken invariant of the benchmark itself (wrong answer shape,
  /// irreconcilable layer table): the run is reported as incorrect.
  void Incorrect(const std::string& why) {
    correct_ = false;
    std::printf("  INCORRECT: %s\n", why.c_str());
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// The `exact counts:` line, then the JSON result line.
  void PrintResult() const {
    std::string exact;
    for (const Entry& e : exact_) {
      exact += (exact.empty() ? "" : ", ") + ("\"" + e.name + "\": ") +
               Number(e.value);
    }
    std::printf("exact counts: {%s}\n", exact.c_str());
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": ";
      out += Number(metrics_[i].value);
      out += ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value;
  };
  static std::string Number(double value) {
    char out[64];
    std::snprintf(out, sizeof(out), "%.17g", value);
    return out;
  }
  const Stopwatch clock_;
  std::vector<Entry> metrics_;
  std::vector<Entry> exact_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// --- Provenance: build stamp, ISA, CPU count, and where each thread may
// run. ---

std::string AffinityOfCallingThread() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return "unknown";
  std::string out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &mask)) continue;
    int last = c;
    while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &mask)) ++last;
    if (!out.empty()) out += ",";
    out += std::to_string(c);
    if (last > c) out += "-" + std::to_string(last);
    c = last;
  }
  return out;
}

/// Affinity of every worker of `pool`: one task per worker, held at a
/// barrier so no worker can pick up two of them.
std::vector<std::string> WorkerAffinities(ThreadPool* pool) {
  const size_t n = pool->num_threads();
  std::vector<std::string> out(n);
  std::mutex mu;
  std::condition_variable cv;
  size_t arrived = 0;
  for (size_t i = 0; i < n; ++i) {
    pool->Submit([&, i] {
      std::unique_lock<std::mutex> lock(mu);
      out[i] = AffinityOfCallingThread();
      if (++arrived == n) cv.notify_all();
      cv.wait(lock, [&] { return arrived == n; });
    });
  }
  pool->Wait();
  return out;
}

/// Pins the calling (client) thread to the last CPU it may run on: the
/// first CPU tends to take more interrupts and neighbours' work, which
/// showed as ~15% slower, noisier passes. Returns the CPU, or -1.
int PinClient() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    CPU_SET(c, &mask);
    return sched_setaffinity(0, sizeof(mask), &mask) == 0 ? c : -1;
  }
  return -1;
}

void PrintProvenance(const Args& args, int pinned_cpu,
                     const std::vector<ThreadPool*>& pools,
                     const std::vector<const char*>& pool_names) {
  std::printf("mbi_perfbench workload=%s seed=%llu seconds=%.3f trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("build: type=%s flags=\"%s\" compiler=%s assertions=%s\n",
              MBI_BENCH_BUILD_TYPE, MBI_BENCH_CXX_FLAGS,
#if defined(__clang__)
              "clang " __clang_version__,
#elif defined(__GNUC__)
              "gcc " __VERSION__,
#else
              "unknown",
#endif
#ifdef NDEBUG
              "off"
#else
              "on"
#endif
  );
  std::printf("cpu: isa=%s widest=%s nproc=%ld\n",
              kernel::IsaName(kernel::ActiveIsa()),
              kernel::IsaName(kernel::WidestSupportedIsa()),
              sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("affinity: client=%s (pinned cpu %d)\n",
              AffinityOfCallingThread().c_str(), pinned_cpu);
  for (size_t p = 0; p < pools.size(); ++p) {
    const std::vector<std::string> workers = WorkerAffinities(pools[p]);
    for (size_t w = 0; w < workers.size(); ++w) {
      std::printf("affinity: %s worker %zu=%s\n", pool_names[p], w,
                  workers[w].c_str());
    }
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// --- Inputs. ---

/// SplitMix64 finalizer: decorrelates derived seeds.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

QuestGeneratorConfig PaperConfig(uint64_t seed) {
  QuestGeneratorConfig config;
  config.universe_size = kUniverse;
  config.num_large_itemsets = 2000;
  config.avg_itemset_size = 6.0;
  config.avg_transaction_size = 10.0;
  config.seed = seed;
  return config;
}

/// `count` baskets from the corpus generator's own stream (the paper's
/// setting: new baskets of the same population). --seed picks where in the
/// stream they start.
std::vector<Transaction> CorpusDraw(QuestGenerator* generator, uint64_t seed,
                                    size_t count) {
  const uint64_t skip = (Mix(seed) % 128) * count;
  for (uint64_t i = 0; i < skip; ++i) generator->NextTransaction();
  return generator->GenerateQueries(count);
}

/// The order in which the closed loop visits targets [0, n): identity when
/// `seed` is empty, else a permutation drawn from it.
std::vector<size_t> VisitOrder(size_t n, std::optional<uint64_t> seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  if (seed) {
    std::mt19937_64 rng(Mix(*seed));
    std::shuffle(order.begin(), order.end(), rng);
  }
  return order;
}

IndexBuildConfig BuildConfig() {
  IndexBuildConfig config;
  config.clustering.target_cardinality = kCardinality;
  config.table.activation_threshold = kActivation;
  return config;
}

/// Queries cycle through the paper's three functions on one table.
const SimilarityFamily& FamilyOf(size_t target_index) {
  static const InverseHammingFamily hamming;
  static const MatchRatioFamily match_ratio;
  static const CosineFamily cosine;
  static const SimilarityFamily* const kFamilies[] = {&hamming, &match_ratio,
                                                      &cosine};
  return *kFamilies[target_index % 3];
}

/// Top-k similarity values of every target under its family, by a full
/// scan. Values, not ids: which id represents a tie group at the k-th value
/// is unspecified (NearestNeighborResult). The scanner gets no candidate
/// layout, so it scores with the per-candidate probe and shares no kernel
/// with the index under test. Untimed, so it fans out over `pool`.
std::vector<std::vector<double>> OracleValues(
    const TransactionDatabase& db, const std::vector<Transaction>& targets,
    ThreadPool* pool) {
  const SequentialScanner scanner(&db);
  std::vector<std::vector<double>> out(targets.size());
  pool->ParallelFor(targets.size(), [&](size_t i) {
    for (const Neighbor& n : scanner.FindKNearest(targets[i], FamilyOf(i), kK)) {
      out[i].push_back(n.similarity);
    }
  });
  return out;
}

bool SameValues(const std::vector<Neighbor>& got,
                const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].similarity != want[i]) return false;
  }
  return true;
}

// --- Per-layer probes (trace runs only). ---

struct BuildPhases {
  double support_ms = 0.0;
  double cluster_ms = 0.0;
  double table_ms = 0.0;
  double layout_ms = 0.0;
  double Sum() const { return support_ms + cluster_ms + table_ms + layout_ms; }
};

/// BuildIndex's phases called one by one (index_builder.cc), plus the
/// candidate layout the engine builds; leaves the results in the outputs.
BuildPhases TimeBuildPhases(const TransactionDatabase& db,
                            std::optional<SignatureTable>* table,
                            CandidateLayout* layout) {
  const IndexBuildConfig config = BuildConfig();
  BuildPhases phases;
  Stopwatch timer;
  const SupportCounter supports(db);
  phases.support_ms = timer.ElapsedMillis();
  timer.Reset();
  SignaturePartition partition =
      BuildSignaturesSingleLinkage(supports, config.clustering);
  phases.cluster_ms = timer.ElapsedMillis();
  timer.Reset();
  table->reset();
  table->emplace(SignatureTable::Build(db, std::move(partition), config.table));
  phases.table_ms = timer.ElapsedMillis();
  timer.Reset();
  *layout = CandidateLayout::Build(db);
  phases.layout_ms = timer.ElapsedMillis();
  return phases;
}

/// Median of each phase over `repeats` builds, printed and reported.
/// Returns the median phase sum in seconds.
double ReportBuildPhases(const TransactionDatabase& db, int repeats,
                         std::optional<SignatureTable>* table,
                         CandidateLayout* layout, Report* report) {
  std::vector<double> support, cluster, build, lay, sum;
  for (int r = 0; r < repeats; ++r) {
    const BuildPhases p = TimeBuildPhases(db, table, layout);
    support.push_back(p.support_ms);
    cluster.push_back(p.cluster_ms);
    build.push_back(p.table_ms);
    lay.push_back(p.layout_ms);
    sum.push_back(p.Sum());
  }
  report->Metric("mining.support_ms", "ms", Median(support));
  report->Metric("core.cluster_ms", "ms", Median(cluster));
  report->Metric("core.table_build_ms", "ms", Median(build));
  report->Metric("txn.layout_build_ms", "ms", Median(lay));
  const SignatureTable::Stats stats = (*table)->ComputeStats();
  const auto occupied = static_cast<double>(stats.occupied_entries);
  const auto pages = static_cast<double>(stats.disk_pages);
  report->Metric("core.occupied_entries", "count", occupied);
  report->Metric("storage.disk_pages", "count", pages);
  report->Exact("core.occupied_entries", occupied);
  report->Exact("storage.disk_pages", pages);
  return Median(sum) / 1000.0;
}

/// Time spent per replayed phase, summed over the replayed queries.
struct ReplayTotals {
  double bounds_us = 0.0;
  double bound_eval_us = 0.0;
  double fetch_us = 0.0;
  double match_us = 0.0;
  double score_us = 0.0;
  double Sum() const {
    return bounds_us + bound_eval_us + fetch_us + match_us + score_us;
  }
};

/// Scratch reused across replayed queries.
struct ReplayScratch {
  std::vector<int> counts;
  BoundCalculator calculator;
  std::vector<int32_t> match_bound, dist_bound;
  std::vector<TransactionId> ids;
  std::vector<size_t> offsets;
  std::vector<TransactionId> entry_ids;
  std::vector<uint32_t> match, hamming;
  PackedTarget packed;
  double sink = 0.0;  // Keeps the scored values observable.
};

/// Indices into table.entries() of the entries a traced query scanned, in
/// visit order.
std::vector<uint32_t> ScannedEntries(const SignatureTable& table,
                                     const std::vector<EntryTrace>& trace) {
  const std::vector<Supercoordinate>& coords = table.coordinates();
  std::vector<uint32_t> out;
  for (const EntryTrace& e : trace) {
    if (e.action != EntryTrace::Action::kScanned) continue;
    const auto it = std::lower_bound(coords.begin(), coords.end(), e.coordinate);
    out.push_back(static_cast<uint32_t>(it - coords.begin()));
  }
  return out;
}

/// Replays one query's work through the public calls the branch and bound
/// makes, phase by phase: bounds for every occupied entry, then the fetch,
/// match kernel and scoring of exactly the entries the real query scanned.
void ReplayQuery(const SignatureTable& table, const CandidateLayout& layout,
                 const Transaction& target, const SimilarityFamily& family,
                 const std::vector<uint32_t>& scanned, ReplayScratch* s,
                 ReplayTotals* totals) {
  const std::vector<Supercoordinate>& coords = table.coordinates();
  const size_t n = coords.size();
  s->match_bound.resize(n);
  s->dist_bound.resize(n);

  Stopwatch timer;
  table.partition().CountsPerSignature(target, &s->counts);
  s->calculator.Reset(s->counts, table.activation_threshold());
  s->calculator.ComputeBatch(coords.data(), n, s->match_bound.data(),
                             s->dist_bound.data());
  totals->bounds_us += timer.ElapsedMillis() * 1000.0;

  const std::unique_ptr<SimilarityFunction> f = family.ForTarget(target);
  timer.Reset();
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += f->Evaluate(s->match_bound[i], s->dist_bound[i]);
  }
  totals->bound_eval_us += timer.ElapsedMillis() * 1000.0;

  IoStats io;
  s->ids.clear();
  s->offsets.assign(1, 0);
  timer.Reset();
  for (uint32_t entry : scanned) {
    table.FetchEntryTransactions(entry, &io, &s->entry_ids);
    s->ids.insert(s->ids.end(), s->entry_ids.begin(), s->entry_ids.end());
    s->offsets.push_back(s->ids.size());
  }
  totals->fetch_us += timer.ElapsedMillis() * 1000.0;

  s->match.resize(s->ids.size());
  s->hamming.resize(s->ids.size());
  timer.Reset();
  s->packed.Assign(target, layout.universe_size(), &layout);
  for (size_t e = 0; e + 1 < s->offsets.size(); ++e) {
    const size_t begin = s->offsets[e];
    s->packed.MatchAndHammingBatch(s->ids.data() + begin,
                                   s->offsets[e + 1] - begin,
                                   s->match.data() + begin,
                                   s->hamming.data() + begin);
  }
  totals->match_us += timer.ElapsedMillis() * 1000.0;

  timer.Reset();
  for (size_t i = 0; i < s->ids.size(); ++i) {
    acc += f->Evaluate(static_cast<int>(s->match[i]),
                       static_cast<int>(s->hamming[i]));
  }
  totals->score_us += timer.ElapsedMillis() * 1000.0;
  s->sink += acc;
}

/// Mean per-query counts over one pass of the targets. These repeat exactly
/// for a seed; a difference between two runs of one seed is a bug.
struct QueryCounts {
  double entries_scanned = 0.0;
  double entries_pruned = 0.0;
  double transactions_evaluated = 0.0;
  double accessed_fraction = 0.0;
  double database_size = 0.0;
  double pages_read = 0.0;
  double bytes_read = 0.0;

  void Add(const QueryStats& stats) {
    entries_scanned += static_cast<double>(stats.entries_scanned);
    entries_pruned += static_cast<double>(stats.entries_pruned);
    transactions_evaluated += static_cast<double>(stats.transactions_evaluated);
    accessed_fraction += stats.AccessedFraction();
    database_size += static_cast<double>(stats.database_size);
    pages_read += static_cast<double>(stats.io.pages_read);
    bytes_read += static_cast<double>(stats.io.bytes_read);
  }
  void Report(size_t queries, mbi::perfbench::Report* report) const {
    const double n = static_cast<double>(queries);
    const struct {
      const char* name;
      const char* unit;
      double value;
    } counts[] = {
        {"core.entries_scanned", "count", entries_scanned / n},
        {"core.entries_pruned", "count", entries_pruned / n},
        {"core.transactions_evaluated", "count", transactions_evaluated / n},
        {"core.accessed_fraction", "ratio", accessed_fraction / n},
        {"core.database_size", "count", database_size / n},
        {"storage.pages_read", "count", pages_read / n},
        {"storage.bytes_read", "bytes", bytes_read / n}};
    for (const auto& c : counts) {
      report->Metric(c.name, c.unit, c.value);
      report->Exact(c.name, c.value);
    }
  }
};

/// The query layer table: untraced mean, traced (collect_trace) mean, the
/// replayed phases, and the counts. `query` runs one query on the index
/// `table` belongs to (collect_trace as asked) and returns its result.
///
/// On a static workload that index is the one under test. On ingest_window
/// the query under test goes through the dynamic index (`dyn_query`, not
/// null), whose components the replay cannot reach from outside; `query`
/// then runs on one table built over the same live rows. The untraced mean
/// and the counts come from `dyn_query`, the parts from the replay of the
/// single table, so core.search_other_us also holds the fan-out over the
/// components and the k + |tombstones| over-fetch.
///
/// Untraced answers are checked against `oracle`. Fills `per_target_us`
/// with each target's mean untraced latency on the static index.
template <typename QueryFn>
void ReportQueryLayers(
    const SignatureTable& table, const CandidateLayout& layout,
    const std::vector<Transaction>& targets,
    const std::vector<std::vector<double>>& oracle, double seconds,
    QueryFn query,
    const std::function<const NearestNeighborResult&(size_t)>* dyn_query,
    Report* report, std::vector<double>* per_target_us) {
  // Rounds of whole passes: untraced (dynamic index, then the single
  // table), traced, replayed. Each pass runs its kind of work back to back,
  // so caches are in the same state as in the untraced closed loop; rounds
  // go on while another fits the time.
  const size_t n = targets.size();
  per_target_us->assign(n, 0.0);
  std::vector<std::vector<uint32_t>> scanned(n);
  uint64_t mismatches = 0;
  std::vector<double> dyn_us, plain_us, traced_us;
  ReplayTotals totals;
  ReplayScratch scratch;
  QueryCounts counts;
  const Stopwatch clock;
  size_t rounds = 0;
  double round_s = 0.0;
  do {
    const Stopwatch round_clock;
    for (size_t i = 0; dyn_query != nullptr && i < n; ++i) {
      const Stopwatch timer;
      const NearestNeighborResult& got = (*dyn_query)(i);
      dyn_us.push_back(timer.ElapsedMillis() * 1000.0);
      if (!SameValues(got.neighbors, oracle[i])) ++mismatches;
      if (rounds == 0) counts.Add(got.stats);
    }
    for (size_t i = 0; i < n; ++i) {
      const Stopwatch timer;
      const NearestNeighborResult& plain = query(i, /*collect_trace=*/false);
      const double us = timer.ElapsedMillis() * 1000.0;
      plain_us.push_back(us);
      (*per_target_us)[i] += us;
      if (!SameValues(plain.neighbors, oracle[i])) ++mismatches;
      if (rounds == 0 && dyn_query == nullptr) counts.Add(plain.stats);
    }
    for (size_t i = 0; i < n; ++i) {
      const Stopwatch timer;
      const NearestNeighborResult& traced = query(i, /*collect_trace=*/true);
      traced_us.push_back(timer.ElapsedMillis() * 1000.0);
      if (rounds == 0) scanned[i] = ScannedEntries(table, traced.trace);
    }
    for (size_t i = 0; i < n; ++i) {
      ReplayQuery(table, layout, targets[i], FamilyOf(i), scanned[i],
                  &scratch, &totals);
    }
    ++rounds;
    round_s = round_clock.ElapsedSeconds();
  } while (clock.ElapsedSeconds() + round_s <= seconds);
  for (double& us : *per_target_us) us /= static_cast<double>(rounds);
  report->Attempt(dyn_us.size() + plain_us.size());
  report->Fail(mismatches, "top-k values differ from the oracle");
  const double plain_mean = Mean(plain_us);
  const double query_mean = dyn_query != nullptr ? Mean(dyn_us) : plain_mean;
  const double replayed = static_cast<double>(plain_us.size());
  const double parts = totals.Sum() / replayed;
  const double other = query_mean - parts;
  report->Metric("query.replay_mean_us", "us", query_mean);
  report->Metric("core.bounds_us", "us", totals.bounds_us / replayed);
  report->Metric("core.bound_eval_us", "us", totals.bound_eval_us / replayed);
  report->Metric("storage.fetch_us", "us", totals.fetch_us / replayed);
  report->Metric("kernel.match_us", "us", totals.match_us / replayed);
  report->Metric("core.score_us", "us", totals.score_us / replayed);
  report->Metric("core.search_other_us", "us", other);
  report->Metric("trace.overhead_pct", "%",
                 100.0 * (Mean(traced_us) / plain_mean - 1.0));
  std::printf("  reconcile: parts %.2f + other %.2f = %.2f us = untraced "
              "query mean (%zu targets x %zu rounds; checksum %.6g)\n",
              parts, other, parts + other, n, rounds, scratch.sink);
  if (dyn_query != nullptr) {
    report->Info("dyn.single_table_mean_us", "us", plain_mean);
    report->Info("dyn.fanout_overfetch_us", "us", query_mean - plain_mean);
    std::printf("  reconcile: single table %.2f (parts %.2f + entry "
                "ordering, top-k %.2f) + fan-out and over-fetch %.2f = %.2f "
                "us = dynamic index mean\n",
                plain_mean, parts, plain_mean - parts, query_mean - plain_mean,
                query_mean);
  }
  if (other < 0.0) {
    report->Incorrect("replayed parts exceed the query mean they split");
  }
  counts.Report(n, report);
}

// --- Timed loops shared by the workloads. ---

/// Untimed warm-up over the first targets of `order` (context buffers,
/// caches).
template <typename QueryFn>
void WarmUp(const std::vector<size_t>& order, QueryFn query) {
  for (size_t j = 0; j < std::min<size_t>(order.size(), 100); ++j) {
    query(order[j]);
  }
}

/// What a closed loop measured: every query, and per target its mean
/// latency over the passes.
struct LoopResult {
  std::vector<double> samples_us;  // Pass-major.
  std::vector<double> mean_us;
};

/// One client's closed loop: whole passes over the targets, so every run
/// weighs every target equally. Each pass visits the targets in `order`.
/// Times every query; `query(t)` answers target t and returns its
/// neighbors, which are checked against `oracle`.
template <typename QueryFn>
class ClosedLoop {
 public:
  ClosedLoop(std::vector<size_t> order,
             const std::vector<std::vector<double>>* oracle, QueryFn query)
      : order_(std::move(order)), oracle_(oracle), query_(query) {
    out_.mean_us.assign(order_.size(), 0.0);
    WarmUp(order_, query_);
  }

  /// Runs one pass; returns its length in seconds.
  double Pass() {
    double pass_us = 0.0;
    for (const size_t t : order_) {
      const Stopwatch timer;
      const std::vector<Neighbor>& got = query_(t);
      const double us = timer.ElapsedMillis() * 1000.0;
      out_.samples_us.push_back(us);
      out_.mean_us[t] += us;
      pass_us += us;
      if (!SameValues(got, (*oracle_)[t])) ++mismatches_;
    }
    ++passes_;
    pass_means_ += " " + std::to_string(std::lround(
                             pass_us / static_cast<double>(order_.size())));
    return pass_us / 1e6;
  }

  /// Reports the queries and their failures.
  LoopResult Finish(Report* report) {
    for (double& us : out_.mean_us) us /= static_cast<double>(passes_);
    std::printf("  pass means (us):%s\n", pass_means_.c_str());
    report->Attempt(out_.samples_us.size());
    report->Fail(mismatches_, "top-k values differ from the oracle");
    return std::move(out_);
  }

 private:
  const std::vector<size_t> order_;
  const std::vector<std::vector<double>>* const oracle_;
  QueryFn query_;
  LoopResult out_;
  size_t passes_ = 0;
  uint64_t mismatches_ = 0;
  std::string pass_means_;
};

/// Calls `step` (which returns the seconds it took) while another step
/// fits in about `seconds`, at least once.
template <typename StepFn>
void RunFor(double seconds, StepFn step) {
  double spent = 0.0, last = 0.0;
  do {
    last = step();
    spent += last;
  } while (spent + last <= seconds);
}

/// Interleaves steps of `a` and `b` for about `seconds`, so both sample the
/// whole span: after each step of `a`, steps of `b` until `b` has had
/// `b_share` of the time so far. The host's speed drifts over tens of
/// seconds; a metric measured in one contiguous window picks up that drift
/// whole.
template <typename StepA, typename StepB>
void Interleave(double seconds, double b_share, StepA a, StepB b) {
  double a_s = 0.0, b_s = 0.0;
  RunFor(seconds, [&] {
    const double before = a_s + b_s;
    a_s += a();
    do {
      b_s += b();
    } while (b_s < b_share / (1.0 - b_share) * a_s);
    return a_s + b_s - before;
  });
}

void PrintLatency(const char* what, const Latency& l) {
  std::printf("  %s: n=%zu p50=%.1fus p99=%.1fus mean=%.1fus "
              "(%zu samples beyond p99)\n",
              what, l.samples, l.p50, l.p99, l.mean, l.beyond_p99);
}

/// The targets [0, num_targets) in batches of up to kBatchSize targets of
/// one family (FamilyOf): a batch runs one similarity function.
std::vector<std::vector<size_t>> FamilyBatches(size_t num_targets) {
  std::vector<std::vector<size_t>> batches;
  for (size_t f = 0; f < 3; ++f) {
    std::vector<size_t> batch;
    for (size_t i = f; i < num_targets; i += 3) {
      batch.push_back(i);
      if (batch.size() == kBatchSize) {
        batches.push_back(batch);
        batch.clear();
      }
    }
    if (!batch.empty()) batches.push_back(std::move(batch));
  }
  return batches;
}

/// Rounds of batches. A round answers every target once, in
/// FamilyBatches; every round has the same contents. `run_batch(controller,
/// family, ids, results)` answers one batch through `controller` and
/// returns false when it was shed. One submitter, so admission never queues
/// here. With `serial_us` (per-target single-client latency, read in
/// Finish) Finish also reports engine.batch_efficiency.
template <typename BatchFn>
class BatchRounds {
 public:
  BatchRounds(size_t num_targets,
              const std::vector<std::vector<double>>* oracle,
              const std::vector<double>* serial_us, BatchFn run_batch)
      : num_targets_(num_targets),
        batches_(FamilyBatches(num_targets)),
        oracle_(oracle),
        serial_us_(serial_us),
        run_batch_(run_batch),
        admitted_(num_targets, 0) {}

  /// Runs one round; returns its length in seconds.
  double Round() {
    double round_s = 0.0;
    for (const std::vector<size_t>& ids : batches_) {
      const Stopwatch timer;
      const bool admitted =
          run_batch_(&controller_, ids.front() % 3, ids, &results_);
      round_s += timer.ElapsedSeconds();
      queries_ += ids.size();
      if (!admitted) {
        shed_ += ids.size();
        continue;
      }
      for (size_t j = 0; j < ids.size(); ++j) {
        if (!SameValues(results_[j].neighbors, (*oracle_)[ids[j]])) {
          ++mismatches_;
        }
        ++admitted_[ids[j]];
      }
    }
    wall_s_ += round_s;
    round_rates_.push_back(static_cast<double>(num_targets_) / round_s);
    return round_s;
  }

  /// Reports the queries and their failures. Returns the upper quartile of
  /// the per-round throughput (queries/s), which a burst of load from
  /// outside the process during a minority of rounds does not move.
  double Finish(Report* report) {
    report->Attempt(queries_);
    report->Fail(mismatches_, "batch top-k values differ from the oracle");
    report->Fail(shed_, "batch shed by admission control");
    if (serial_us_ != nullptr) {
      double serial_sum_us = 0.0;
      for (size_t t = 0; t < num_targets_; ++t) {
        serial_sum_us += static_cast<double>(admitted_[t]) * (*serial_us_)[t];
      }
      report->Metric("engine.batch_efficiency", "ratio",
                     serial_sum_us /
                         (static_cast<double>(kBatchWorkers) * wall_s_ * 1e6));
    }
    std::sort(round_rates_.begin(), round_rates_.end());
    std::printf("  batches: %zu rounds of %zu queries in %.3fs on %zu "
                "workers, %.1f queries/s overall; per round min %.1f, "
                "median %.1f, max %.1f\n",
                round_rates_.size(), num_targets_, wall_s_, kBatchWorkers,
                static_cast<double>(queries_) / wall_s_, round_rates_.front(),
                QuantileSorted(round_rates_, 0.5), round_rates_.back());
    return QuantileSorted(round_rates_, 0.75);
  }

 private:
  const size_t num_targets_;
  const std::vector<std::vector<size_t>> batches_;
  const std::vector<std::vector<double>>* const oracle_;
  const std::vector<double>* const serial_us_;
  BatchFn run_batch_;
  AdmissionController controller_;
  std::vector<NearestNeighborResult> results_;
  std::vector<uint64_t> admitted_;  // Per target: answered in a batch.
  std::vector<double> round_rates_;
  uint64_t queries_ = 0, mismatches_ = 0, shed_ = 0;
  double wall_s_ = 0.0;
};

/// Admission under contention, for about `seconds`: two submitters send
/// the same FamilyBatches through one controller that has a single
/// execution token, so a batch usually waits while the other submitter's
/// batch runs. The patience is long enough that nothing should be shed; a
/// shed batch fails all its queries. Reports engine.admission_wait_us, the
/// mean of mbi.admission.queue_wait. The second submitter only waits or
/// submits, so at most kBatchWorkers + 1 threads carry load.
template <typename BatchFn>
void ContendedAdmission(size_t num_targets, double seconds,
                        const std::vector<std::vector<double>>& oracle,
                        BatchFn run_batch, Report* report) {
  const std::vector<std::vector<size_t>> batches = FamilyBatches(num_targets);
  MetricsRegistry registry;
  AdmissionOptions options;
  options.max_in_flight = 1;
  options.max_queue_depth = 2;
  options.max_queue_wait_ms = 10'000.0;
  AdmissionController controller(options);
  controller.set_metrics(&registry);
  std::atomic<uint64_t> queries{0}, mismatches{0}, shed{0};
  std::string other_affinity;
  auto submit = [&](std::string* affinity) {
    if (affinity != nullptr) *affinity = AffinityOfCallingThread();
    std::vector<NearestNeighborResult> results;
    const Stopwatch clock;
    do {
      for (const std::vector<size_t>& ids : batches) {
        queries += ids.size();
        if (!run_batch(&controller, ids.front() % 3, ids, &results)) {
          shed += ids.size();
          continue;
        }
        for (size_t j = 0; j < ids.size(); ++j) {
          if (!SameValues(results[j].neighbors, oracle[ids[j]])) ++mismatches;
        }
      }
    } while (clock.ElapsedSeconds() < seconds);
  };
  std::thread other(submit, &other_affinity);
  submit(nullptr);
  other.join();
  std::printf("affinity: second submitter=%s\n", other_affinity.c_str());
  report->Attempt(queries);
  report->Fail(mismatches, "batch top-k values differ from the oracle");
  report->Fail(shed, "batch shed by admission control");
  const LatencyHistogram::Snapshot wait =
      registry.FindHistogram("mbi.admission.queue_wait")->GetSnapshot();
  std::printf("  contended admission: %llu batches admitted, %llu shed, "
              "queue wait p50<=%.0fus max=%.0fus\n",
              static_cast<unsigned long long>(controller.admitted()),
              static_cast<unsigned long long>(controller.shed()),
              wait.Quantile(0.5), wait.max);
  report->Metric("engine.admission_wait_us", "us",
                 wait.count == 0 ? 0.0
                                 : wait.sum / static_cast<double>(wait.count));
}

// --- static_paper. ---

void RunStatic(const Args& args, Report* report) {
  QuestGenerator generator(PaperConfig(kCorpusSeed));
  const TransactionDatabase db = generator.GenerateDatabase(kStaticRows);
  const std::vector<Transaction> targets =
      generator.GenerateQueries(kPaperTargets);

  // Worker pool first, then pin the client, so the workers keep the full
  // CPU mask.
  ThreadPool pool(kBatchWorkers);
  const int cpu = PinClient();
  PrintProvenance(args, cpu, {&pool}, {"batch"});
  std::printf("inputs: %zu rows, %zu targets, checksum %llu\n", db.size(),
              targets.size(),
              static_cast<unsigned long long>(bench::WarmDatabase(db)));

  report->Section("setup");
  std::unique_ptr<SignatureTableEngine> engine;
  std::vector<double> setup_s;
  auto set_up = [&] {
    engine.reset();
    const Stopwatch timer;
    engine = std::make_unique<SignatureTableEngine>(&db);
    engine->AdoptTable(BuildIndex(db, BuildConfig()));
    setup_s.push_back(timer.ElapsedSeconds());
    return setup_s.back();
  };
  // The traced run needs setup_s before its layer table. The untraced run
  // spreads its set-ups over the run instead (below).
  for (int r = 0; r < (args.trace ? kStaticSetupRepeats : 1); ++r) set_up();

  report->Section("oracle");
  const std::vector<std::vector<double>> oracle = OracleValues(db, targets, &pool);

  QueryContext context;
  NearestNeighborResult result;
  auto query = [&](size_t i) -> const std::vector<Neighbor>& {
    result = engine->FindKNearest(targets[i], FamilyOf(i), kK, {}, &context);
    return result.neighbors;
  };
  auto batch = [&](AdmissionController* controller, size_t f,
                   const std::vector<size_t>& ids,
                   std::vector<NearestNeighborResult>* results) {
    std::vector<Transaction> batch_targets;
    for (size_t id : ids) batch_targets.push_back(targets[id]);
    StatusOr<std::vector<NearestNeighborResult>> out =
        engine->FindKNearestBatchAdmitted(controller, batch_targets,
                                          FamilyOf(f), kK, {}, 0, &pool);
    if (!out.ok()) return false;
    *results = std::move(out).value();
    return true;
  };

  if (!args.trace) {
    report->Section("closed loop, 1 client, interleaved with batches");
    ClosedLoop loop(VisitOrder(targets.size(), args.seed), &oracle, query);
    BatchRounds rounds(targets.size(), &oracle, nullptr, batch);
    // Set-ups after each pass, so setup_s too samples the whole run.
    Interleave(
        args.seconds, 0.3,
        [&] {
          double s = loop.Pass();
          for (int r = 0; r < kStaticSetupsPerPass; ++r) s += set_up();
          return s;
        },
        [&] { return rounds.Round(); });
    report->Metric("setup_s", "s", SetupMedian(setup_s));
    const Latency lat = Summarize(loop.Finish(report).samples_us);
    PrintLatency("k-NN, every query", lat);
    report->Metric("query_p50_us", "us", lat.p50);
    report->Metric("query_p99_us", "us", lat.p99);
    report->Metric("batch_qps", "1/s", rounds.Finish(report));
    report->Metric("peak_rss_mb", "MB", PeakRssMb());
    return;
  }

  const double setup_median = SetupMedian(setup_s);
  report->Section("build layers");
  std::optional<SignatureTable> table;
  CandidateLayout layout;
  const double phase_sum_s =
      ReportBuildPhases(db, kStaticSetupRepeats, &table, &layout, report);
  report->Metric("build.phase_share", "ratio", phase_sum_s / setup_median);
  std::printf("  reconcile: phases %.3fs vs setup_s %.3fs\n", phase_sum_s,
              setup_median);

  report->Section("query layers");
  // The replay reads the engine's own table so the scanned entries match.
  const SignatureTable& live_table = *engine->table();
  NearestNeighborResult traced_result;
  std::vector<double> serial_us;
  ReportQueryLayers(
      live_table, layout, targets, oracle, args.seconds * 0.45,
      [&](size_t i, bool collect) -> const NearestNeighborResult& {
        SearchOptions options;
        options.collect_trace = collect;
        traced_result =
            engine->FindKNearest(targets[i], FamilyOf(i), kK, options, &context);
        return traced_result;
      },
      nullptr, report, &serial_us);

  report->Section("engine layers");
  BatchRounds rounds(targets.size(), &oracle, &serial_us, batch);
  RunFor(args.seconds * 0.25, [&] { return rounds.Round(); });
  rounds.Finish(report);
  ContendedAdmission(targets.size(), args.seconds * 0.2, oracle, batch,
                     report);
}

// --- ingest_window: bulk load, then an open-loop writer beside one
// closed-loop reader. ---

struct WriterLog {
  std::vector<double> late_us;    // Call time minus due time.
  std::vector<double> insert_us;
  std::vector<double> delete_us;
  std::vector<double> write_us;   // Insert + Delete, from the call.
  uint64_t rejected = 0;
  uint64_t delete_failed = 0;
};

/// Writes `count` insert + delete-oldest pairs at kWriteRate, each due at a
/// fixed time from `start_us`. Tracks the live rows in `live_gid_row`
/// (gid -> row index, or SIZE_MAX once deleted).
void WriteSchedule(DynamicIndex* index, const std::vector<Transaction>& rows,
                   size_t first_row, size_t count, double start_us,
                   std::vector<size_t>* live_gid_row, WriterLog* log) {
  size_t oldest = 0;  // Smallest gid that may still be live.
  for (size_t i = 0; i < count; ++i) {
    const double due_us =
        start_us + static_cast<double>(i) * (1e6 / kWriteRate);
    while (SteadyNowUs() < due_us) {
      const double left_us = due_us - SteadyNowUs();
      if (left_us > 200.0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<int64_t>(left_us - 100.0)));
      }
    }
    const double call_us = SteadyNowUs();
    log->late_us.push_back(call_us - due_us);
    const StatusOr<TransactionId> gid = index->Insert(rows[first_row + i]);
    const double inserted_us = SteadyNowUs();
    while (oldest < live_gid_row->size() &&
           (*live_gid_row)[oldest] == SIZE_MAX) {
      ++oldest;
    }
    const Status deleted = index->Delete(static_cast<TransactionId>(oldest));
    const double done_us = SteadyNowUs();
    if (gid.ok()) {
      if (live_gid_row->size() <= *gid) live_gid_row->resize(*gid + 1, SIZE_MAX);
      (*live_gid_row)[*gid] = first_row + i;
    } else {
      ++log->rejected;
    }
    if (deleted.ok()) {
      (*live_gid_row)[oldest] = SIZE_MAX;
    } else {
      ++log->delete_failed;
    }
    log->insert_us.push_back(inserted_us - call_us);
    log->delete_us.push_back(done_us - inserted_us);
    log->write_us.push_back(done_us - call_us);
  }
}

void RunIngest(const Args& args, Report* report) {
  // Phase lengths as shares of --seconds.
  const double quiet_s = args.seconds * 0.05;
  const double ingest_s = args.seconds * 0.65;
  const double after_s = args.seconds * 0.1;
  const double batch_s = args.seconds * 0.2;
  const auto num_writes = static_cast<size_t>(std::llround(ingest_s * kWriteRate));
  const size_t num_targets = kIngestTargets;

  // Initial rows, then the targets, then the writer's rows, all from the
  // corpus generator, so targets are in distribution as on static_paper.
  // Here --seed draws only the written rows: which targets the reader
  // happens to get moved its latency under ingest by up to 40% between
  // seeds.
  QuestGenerator generator(PaperConfig(kCorpusSeed));
  std::vector<Transaction> rows;
  rows.reserve(kIngestRows + num_writes);
  for (size_t i = 0; i < kIngestRows; ++i) {
    rows.push_back(generator.NextTransaction());
  }
  const std::vector<Transaction> targets =
      generator.GenerateQueries(num_targets);
  const std::vector<Transaction> written =
      CorpusDraw(&generator, args.seed, num_writes);
  rows.insert(rows.end(), written.begin(), written.end());
  // The prefix of the targets whose answers are checked (quiescent, after,
  // batch and layer phases); the reader under ingest walks all of them.
  const std::vector<Transaction> checked(
      targets.begin(), targets.begin() + kIngestCheckedTargets);

  ThreadPool merge_pool(1);
  ThreadPool batch_pool(kBatchWorkers);
  // Writer thread exists before the client is pinned and waits for go.
  std::mutex go_mu;
  std::condition_variable go_cv;
  bool go = false;
  std::atomic<bool> writer_done{false};
  std::function<void()> writer_job;
  std::thread writer([&] {
    {
      std::unique_lock<std::mutex> lock(go_mu);
      go_cv.wait(lock, [&] { return go; });
    }
    if (writer_job) writer_job();
    writer_done.store(true);
  });
  const int cpu = PinClient();
  PrintProvenance(args, cpu, {&merge_pool, &batch_pool}, {"merge", "batch"});
  std::printf("inputs: %zu initial rows, %zu writes at %.0f/s, %zu targets\n",
              kIngestRows, num_writes, kWriteRate, targets.size());

  std::optional<MetricsRegistry> registry;
  if (args.trace) registry.emplace();
  DynamicIndexOptions options;
  options.buffer_capacity = kIngestBuffer;
  options.level_fanout = kIngestFanout;
  options.build = BuildConfig();
  options.pool = &merge_pool;
  options.metrics = args.trace ? &*registry : nullptr;

  report->Section("setup");
  std::unique_ptr<DynamicIndex> index;
  std::vector<double> setup_s;
  uint64_t bulk_retries = 0;
  for (int r = 0; r < kIngestSetupRepeats; ++r) {
    index.reset();
    if (registry) registry->Reset();
    const Stopwatch timer;
    index = std::make_unique<DynamicIndex>(kUniverse, options);
    for (size_t i = 0; i < kIngestRows; ++i) {
      while (!index->Insert(rows[i]).ok()) {
        ++bulk_retries;
        std::this_thread::yield();
      }
      // Let each buffer's worth of merges finish before the next spill, so
      // the component shape is the same on every run (an unpaced load
      // leaves it to thread timing which overflows get merged).
      if ((i + 1) % kIngestBuffer == 0) index->WaitForMaintenance();
    }
    index->WaitForMaintenance();
    setup_s.push_back(timer.ElapsedSeconds());
  }
  if (registry) registry->Reset();
  std::printf("  bulk load: %zu components, %llu backpressure retries\n",
              index->num_components(),
              static_cast<unsigned long long>(bulk_retries));
  const double setup_median = SetupMedian(setup_s);
  if (!args.trace) report->Metric("setup_s", "s", setup_median);

  // Oracle before writes: the initial rows.
  TransactionDatabase initial(kUniverse);
  for (size_t i = 0; i < kIngestRows; ++i) initial.Add(rows[i]);
  const std::vector<std::vector<double>> oracle_before =
      OracleValues(initial, checked, &batch_pool);

  DynQueryContext dctx;
  NearestNeighborResult result;
  auto query = [&](size_t i) -> const std::vector<Neighbor>& {
    index->FindKNearest(targets[i], FamilyOf(i), kK, SearchOptions{}, &dctx,
                        &result);
    return result.neighbors;
  };
  report->Section("quiescent (before writes)");
  ClosedLoop quiet_loop(VisitOrder(checked.size(), std::nullopt),
                        &oracle_before, query);
  RunFor(quiet_s, [&] { return quiet_loop.Pass(); });
  const Latency quiet = Summarize(quiet_loop.Finish(report).samples_us);
  PrintLatency("k-NN quiescent", quiet);

  report->Section("under ingest");
  std::vector<size_t> live_gid_row(kIngestRows);
  for (size_t i = 0; i < kIngestRows; ++i) live_gid_row[i] = i;
  WriterLog log;
  const double start_us = SteadyNowUs() + 1000.0;
  writer_job = [&] {
    std::printf("affinity: writer=%s\n", AffinityOfCallingThread().c_str());
    WriteSchedule(index.get(), rows, kIngestRows, num_writes, start_us,
                  &live_gid_row, &log);
  };
  {
    std::lock_guard<std::mutex> lock(go_mu);
    go = true;
  }
  go_cv.notify_all();
  std::vector<double> ingest_us;
  double tomb_sum = 0.0, comp_sum = 0.0, buf_sum = 0.0, evaluated_sum = 0.0;
  size_t i = 0;
  while (!writer_done.load()) {
    const size_t t = i++ % targets.size();
    tomb_sum += static_cast<double>(index->tombstone_count());
    comp_sum += static_cast<double>(index->num_components());
    buf_sum += static_cast<double>(index->buffered_rows());
    const Stopwatch timer;
    index->FindKNearest(targets[t], FamilyOf(t), kK, SearchOptions{}, &dctx,
                        &result);
    ingest_us.push_back(timer.ElapsedMillis() * 1000.0);
    evaluated_sum += static_cast<double>(result.stats.transactions_evaluated);
  }
  writer.join();
  // Reader answers under a changing live set are not checked; the after
  // phase checks against the final live rows.
  report->Attempt(ingest_us.size() + log.write_us.size());
  report->Fail(log.rejected, "insert rejected (backpressure)");
  report->Fail(log.delete_failed, "delete of the oldest live row failed");
  const Latency under = Summarize(ingest_us);
  PrintLatency("k-NN under ingest", under);
  const Latency write = Summarize(log.write_us);
  PrintLatency("insert+delete", write);
  report->Info("write_p99_us", "us", write.p99);
  report->Info("gen.write_late_p99_us", "us", Summarize(log.late_us).p99);
  report->Info("dyn.insert_p50_us", "us", Summarize(log.insert_us).p50);
  report->Info("dyn.insert_p99_us", "us", Summarize(log.insert_us).p99);
  report->Info("dyn.delete_p50_us", "us", Summarize(log.delete_us).p50);
  report->Info("dyn.delete_p99_us", "us", Summarize(log.delete_us).p99);
  // Sampled before each reader query.
  const double n = static_cast<double>(std::max<size_t>(ingest_us.size(), 1));
  report->Info("dyn.components", "count", comp_sum / n);
  report->Info("dyn.tombstones", "count", tomb_sum / n);
  report->Info("dyn.buffered_rows", "count", buf_sum / n);
  report->Info("dyn.transactions_evaluated", "count", evaluated_sum / n);
  if (!args.trace) {
    report->Metric("query_p50_us", "us", under.p50);
    report->Metric("query_p99_us", "us", under.p99);
  }

  index->WaitForMaintenance();
  report->Section("after writes (maintenance done, tombstones kept)");
  const auto tombstones_end = static_cast<double>(index->tombstone_count());
  const auto components_end = static_cast<double>(index->num_components());
  report->Info("dyn.tombstones_end", "count", tombstones_end);
  report->Info("dyn.components_end", "count", components_end);
  report->Exact("dyn.tombstones_end", tombstones_end);
  report->Exact("dyn.components_end", components_end);
  TransactionDatabase live(kUniverse);
  for (size_t row : live_gid_row) {
    if (row != SIZE_MAX) live.Add(rows[row]);
  }
  if (live.size() != index->live_size()) {
    report->Incorrect("live row count differs from the index");
  }
  const std::vector<std::vector<double>> oracle_after =
      OracleValues(live, checked, &batch_pool);
  DynBatchWorkspace workspace;
  std::vector<Transaction> batch_targets;
  auto batch = [&](AdmissionController* controller, size_t f,
                   const std::vector<size_t>& ids,
                   std::vector<NearestNeighborResult>* results) {
    SearchOptions search;
    AdmissionSlot slot(controller, &search.budget);
    if (!slot.ok()) return false;
    // The workspace and target buffer are shared by the submitters; the
    // slot's single token (ContendedAdmission) serializes their use.
    batch_targets.clear();
    for (size_t id : ids) batch_targets.push_back(targets[id]);
    index->FindKNearestBatch(batch_targets, FamilyOf(f), kK, search, 0,
                             &batch_pool, &workspace, results);
    return true;
  };
  // Closed-loop passes interleaved with batch rounds. With every tombstone
  // still present these queries are the slowest of the run.
  ClosedLoop after_loop(VisitOrder(checked.size(), std::nullopt),
                        &oracle_after, query);
  LoopResult after_result;
  BatchRounds rounds(checked.size(), &oracle_after,
                     args.trace ? &after_result.mean_us : nullptr, batch);
  Interleave(
      after_s + batch_s, batch_s / (after_s + batch_s),
      [&] { return after_loop.Pass(); }, [&] { return rounds.Round(); });
  after_result = after_loop.Finish(report);
  const Latency after = Summarize(after_result.samples_us);
  PrintLatency("k-NN after", after);
  report->Info("dyn.query_quiescent_p50_us", "us", quiet.p50);
  report->Info("dyn.query_after_p50_us", "us", after.p50);
  const double qps = rounds.Finish(report);

  const double failed_fraction =
      static_cast<double>(report->failed()) /
      static_cast<double>(std::max<uint64_t>(report->attempted(), 1));
  report->Info("failed_fraction", "ratio", failed_fraction);

  if (!args.trace) {
    report->Metric("batch_qps", "1/s", qps);
    report->Metric("peak_rss_mb", "MB", PeakRssMb());
    return;
  }
  ContendedAdmission(checked.size(), args.seconds * 0.1, oracle_after, batch,
                     report);

  report->Section("dyn layers");
  auto counter = [&](const char* name) {
    const Counter* c = registry->FindCounter(name);
    return c == nullptr ? 0.0 : static_cast<double>(c->value());
  };
  for (const char* name : {"merges", "spills", "backpressure"}) {
    const double value = counter(("mbi.dyn." + std::string(name)).c_str());
    report->Info("dyn." + std::string(name), "count", value);
    report->Exact("dyn." + std::string(name), value);
  }
  const LatencyHistogram::Snapshot merge =
      registry->FindHistogram("mbi.dyn.merge_latency")->GetSnapshot();
  report->Info("dyn.merge_ms", "ms",
               merge.count == 0 ? 0.0
                                : merge.sum / static_cast<double>(merge.count) /
                                      1000.0);

  // One static table over the final live rows: what a full merge of the
  // index would build, split into its phases.
  report->Section("build layers (final live rows)");
  std::optional<SignatureTable> table;
  CandidateLayout layout;
  std::vector<double> whole_s;
  for (int r = 0; r < kIngestSetupRepeats; ++r) {
    const Stopwatch timer;
    SignatureTableEngine whole(&live);
    whole.AdoptTable(BuildIndex(live, BuildConfig()));
    whole_s.push_back(timer.ElapsedSeconds());
  }
  const double phase_sum_s =
      ReportBuildPhases(live, kIngestSetupRepeats, &table, &layout, report);
  report->Metric("build.phase_share", "ratio", phase_sum_s / Median(whole_s));

  report->Section("query layers (dynamic index after writes)");
  const BranchAndBoundEngine single(&live, &*table, &layout);
  QueryContext context;
  NearestNeighborResult single_result;
  const std::function<const NearestNeighborResult&(size_t)> dyn_query =
      [&](size_t t) -> const NearestNeighborResult& {
    index->FindKNearest(targets[t], FamilyOf(t), kK, SearchOptions{}, &dctx,
                        &result);
    return result;
  };
  std::vector<double> single_us;
  ReportQueryLayers(
      *table, layout, checked, oracle_after, args.seconds * 0.25,
      [&](size_t t, bool collect) -> const NearestNeighborResult& {
        SearchOptions search;
        search.collect_trace = collect;
        single.FindKNearest(targets[t], FamilyOf(t), kK, search, &context,
                            &single_result);
        return single_result;
      },
      &dyn_query, report, &single_us);
  std::printf("  reader under ingest: mean %.2f us at %.0f tombstones on "
              "average; after writes: %.0f tombstones\n",
              under.mean, tomb_sum / n, tombstones_end);
}

}  // namespace
}  // namespace mbi::perfbench

int main(int argc, char** argv) {
  using namespace mbi::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args) ||
      (args.workload != "static_paper" && args.workload != "ingest_window")) {
    std::fprintf(stderr,
                 "usage: mbi_perfbench --workload "
                 "<static_paper|ingest_window> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  if (!mbi::bench::IsReleaseBuild()) {
    std::fprintf(stderr, "mbi_perfbench: refusing a non-Release build (%s)\n",
                 MBI_BENCH_BUILD_TYPE);
    return 3;
  }
  Report report;
  if (args.workload == "ingest_window") {
    RunIngest(args, &report);
  } else {
    RunStatic(args, &report);
  }
  report.Section("done");
  std::printf("attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  std::fflush(stdout);
  report.PrintResult();
  return 0;
}
