#ifndef MBI_DYN_DYNAMIC_INDEX_H_
#define MBI_DYN_DYNAMIC_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "baseline/sequential_scan.h"
#include "core/branch_and_bound.h"
#include "core/index_builder.h"
#include "core/query_context.h"
#include "core/row_scorer.h"
#include "core/signature_table.h"
#include "dyn/knn_merger.h"
#include "dyn/mutable_buffer.h"
#include "dyn/scheduler.h"
#include "txn/candidate_layout.h"
#include "txn/database.h"
#include "txn/delete_mask.h"
#include "txn/transaction.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mbi {

/// One immutable run of the dynamized index: a static signature table over a
/// frozen set of rows, plus the local→global id map. Published as
/// shared_ptr<const DynComponent>; queries pin a component with a snapshot
/// and never observe it change, so level reconstructions need no read locks.
/// The one exception is `deleted`, whose atomic marks a delete sets in place
/// (DESIGN.md §13.1); the engine and scanner skip marked rows.
///
/// A component whose persisted table failed verification on load is
/// *quarantined*: its rows (the source of truth) are intact and it answers
/// queries exactly via SequentialScanner, just without pruning — durability
/// damage degrades one level, not the engine (DESIGN.md §13.5). The next
/// merge that consumes the component rebuilds its table and clears the
/// quarantine naturally.
struct DynComponent {
  /// TransactionDatabase has no default state; Create/CreateFromLoaded are
  /// the real constructors.
  explicit DynComponent(TransactionDatabase r)
      : rows(std::move(r)), deleted(rows.size()) {}

  /// Bentley–Saxe level. Level 0 holds fresh buffer spills; a merge of
  /// level-L components publishes at level L+1.
  int level = 0;

  /// Global transaction ids, ascending. Local row i of `rows` is global row
  /// gids[i]; components partition the live gid space (plus deleted rows
  /// not yet purged by a merge).
  std::vector<TransactionId> gids;

  /// The component's rows under *local* ids [0, rows.size()).
  TransactionDatabase rows;

  /// Delete marks over local rows. Set under DynamicIndex's mutex by Delete
  /// (and by a merge publish re-marking rows deleted mid-merge); read
  /// lock-free by queries through the engine and scanner bound to it.
  mutable DeleteMask deleted;

  CandidateLayout layout;
  std::optional<SignatureTable> table;

  /// True when `table` could not be built/loaded soundly; queries fall back
  /// to `scanner` (exact, unpruned) for this component only.
  bool quarantined = false;

  /// Engines borrow rows/table/layout, so they are emplaced last and the
  /// component must never be moved after Create() — hence shared_ptr<const>.
  std::optional<BranchAndBoundEngine> engine;
  std::optional<SequentialScanner> scanner;

  /// Builds a component from `(gid, row)` pairs sorted by gid: runs the full
  /// mining/clustering pass (BuildIndex) so signatures track the merged
  /// rows' correlation structure, then wires layout/engine/scanner. With
  /// `quarantine` set, skips the table build (load path for damaged tables).
  static std::shared_ptr<const DynComponent> Create(
      int level, std::vector<TransactionId> gids, TransactionDatabase rows,
      const IndexBuildConfig& build, bool quarantine = false);

  /// Load path: adopts an already-persisted table instead of re-mining;
  /// nullopt means the table shard was damaged → quarantined component.
  static std::shared_ptr<const DynComponent> CreateFromLoaded(
      int level, std::vector<TransactionId> gids, TransactionDatabase rows,
      std::optional<SignatureTable> table);

  /// Merge-window hand-off from a merge victim to the component built from
  /// it: re-marks on `merged` (null when the merge kept no row) every row
  /// marked here that `merged` also holds — a delete that landed after the
  /// merge gathered this component. Returns how many marks name rows the
  /// merge dropped: the tombstones it purges.
  size_t CarryDeletesInto(const DynComponent* merged) const;

  size_t size() const { return rows.size(); }
};

/// Reusable per-query workspace for DynamicIndex::FindKNearest — the dyn
/// analogue of QueryContext (one per concurrent query; steady state
/// allocates nothing beyond result growth).
struct DynQueryContext {
  QueryContext context;
  NearestNeighborResult component_result;
  KnnMerger merger;
  RowScorer scorer;  // The buffer scan's target binding.
};

/// Per-batch workspace: per-shard contexts and results live here so repeated
/// batches through a warm workspace reuse every buffer (deque: growth never
/// moves an in-use context).
struct DynBatchWorkspace {
  std::deque<DynQueryContext> contexts;
};

struct DynamicIndexOptions {
  /// Rows the mutable buffer absorbs before spilling into a level-0
  /// component.
  size_t buffer_capacity = 256;

  /// Components a level may hold before they all merge one level up.
  /// Geometric by count: level L holds runs of roughly
  /// buffer_capacity * fanout^L rows.
  size_t level_fanout = 4;

  /// Admission control: when the buffer is full, a merge is already in
  /// flight, and level 0 holds this many components, Insert returns
  /// kUnavailable with a retry_after_ms hint instead of letting level 0 grow
  /// without bound.
  size_t max_l0_components = 8;

  /// Mining/clustering/table configuration re-run on every spill and merge.
  IndexBuildConfig build;

  /// Hint attached to backpressure kUnavailable statuses (util/retry parses
  /// it; the clamped-to-deadline sleep is tested in status_test.cc).
  double admission_retry_after_ms = 5.0;

  /// Budget for one background reconstruction; on expiry the merge is
  /// abandoned (victims stay queryable) and counted, never half-published.
  double merge_deadline_ms = std::numeric_limits<double>::infinity();

  /// Pool for background merges; null runs every reconstruction inline on
  /// the inserting thread (deterministic, still correct).
  ThreadPool* pool = nullptr;

  /// Optional sink for mbi.dyn.* metrics.
  MetricsRegistry* metrics = nullptr;
};

/// Bentley–Saxe dynamization of the paper's static signature-table index
/// (DESIGN.md §13).
///
/// Writes land in a MutableBuffer (exact scan path); a full buffer spills
/// into a level-0 static component built by the same mining/clustering pass
/// as the offline index. When a level accumulates `level_fanout` components
/// they merge — re-mining the union so signatures track correlation drift —
/// into one component a level up, on a background Scheduler off the query
/// path. A delete marks the row where it lives (the buffer's or its
/// component's DeleteMask); every part skips marked rows before its top-k,
/// and the first spill or merge that consumes the row purges it.
///
/// Queries scan the buffer, then visit the components largest-first, each
/// pruned against the k-th best merged so far (KnnMerger::Threshold), so
/// the whole fan-out shares one pruning threshold; components whose rows
/// are all deleted are skipped. Values and cutoff-tie behaviour are
/// bit-identical to one SequentialScanner over the live union
/// (dyn_differential_test gates this), the union carries one §4.2
/// certificate, and a budget that expires mid-fanout skips remaining
/// components with their rows certified unexplored.
///
/// Thread safety: any number of concurrent readers (each with its own
/// DynQueryContext) against one writer; Insert/Delete/Compact serialize on
/// the internal mutex. Reads copy a snapshot under the mutex and run
/// lock-free afterwards. Every returned row was live when the query took its
/// snapshot; a delete racing the query may or may not be seen.
class DynamicIndex {
 public:
  explicit DynamicIndex(size_t universe_size,
                        const DynamicIndexOptions& options = {});
  ~DynamicIndex();

  DynamicIndex(const DynamicIndex&) = delete;
  DynamicIndex& operator=(const DynamicIndex&) = delete;

  /// Absorbs one row; returns its global id. Fails kUnavailable (with a
  /// retry_after_ms hint) under backpressure — see
  /// DynamicIndexOptions::max_l0_components.
  StatusOr<TransactionId> Insert(const Transaction& txn);

  /// Marks a live row deleted, in O(components · log rows + buffer). kNotFound
  /// when `gid` was never assigned, is already deleted, or was purged by a
  /// merge after deletion.
  Status Delete(TransactionId gid);

  /// Top-k across buffer + all components, deletes applied. `k >= 1`.
  /// Budget semantics: SearchOptions::budget (merged tightest-wins with the
  /// context's session budget) spans the *whole* fan-out — max_entries is
  /// charged across components in each path's scan unit (DESIGN.md §13.4)
  /// and the first probe always runs (min-one rule); components skipped on
  /// an exhausted budget are folded into the certificate as unexplored.
  void FindKNearest(const Transaction& target, const SimilarityFamily& family,
                    size_t k, const SearchOptions& options,
                    DynQueryContext* context,
                    NearestNeighborResult* result) const;

  /// Convenience allocating form.
  NearestNeighborResult FindKNearest(const Transaction& target,
                                     const SimilarityFamily& family, size_t k,
                                     const SearchOptions& options = {}) const;

  /// Batch fan-out on mbi::FindKNearestBatch's sharded runner and shard
  /// policy (core/batch_query.h RunSharded): with `pool`, its workers capped
  /// by `num_threads` (0 = every worker); without, `num_threads` workers of
  /// a call-local pool (0 = hardware concurrency). Results and stats are
  /// identical to the serial loop for any sharding.
  void FindKNearestBatch(const std::vector<Transaction>& targets,
                         const SimilarityFamily& family, size_t k,
                         const SearchOptions& options, size_t num_threads,
                         ThreadPool* pool, DynBatchWorkspace* workspace,
                         std::vector<NearestNeighborResult>* results) const;

  /// Merges everything (buffer + all levels) into a single component on the
  /// calling thread and purges every deleted row. Concurrent queries
  /// keep answering throughout; concurrent inserts are admitted.
  Status Compact();

  /// Blocks until no background reconstruction is running.
  void WaitForMaintenance() const;

  /// Structural self-check (gid partition, sorted invariants, live-row
  /// accounting against the delete marks). For tests and `mbi compact`.
  Status CheckInvariants() const;

  size_t universe_size() const { return universe_size_; }
  const DynamicIndexOptions& options() const { return options_; }

  /// Rows inserted and not deleted. (Deleted rows still occupy space in
  /// their component until a merge purges them.)
  size_t live_size() const;

  /// Published components, buffer fill, and tombstone count (deleted rows
  /// not yet purged) — for tests, tools, and metrics.
  size_t num_components() const;
  size_t buffered_rows() const;
  size_t tombstone_count() const;
  TransactionId next_gid() const;

  struct LevelInfo {
    int level = 0;
    size_t components = 0;
    size_t rows = 0;
  };
  std::vector<LevelInfo> LevelBreakdown() const;

 private:
  friend struct DynIo;  // Persistence (dyn/dyn_io.h) rebuilds state directly.

  /// The queryable state, swapped atomically under mu_. Queries copy the
  /// shared_ptrs and drop the lock; old buffers/components stay alive for as
  /// long as any in-flight query pins them.
  struct State {
    /// Non-const only for the Append and delete-mark paths (serialized under
    /// mu_); query snapshots touch const methods exclusively.
    std::shared_ptr<MutableBuffer> buffer;
    /// In fan-out order (InsertInFanOutOrder).
    std::vector<std::shared_ptr<const DynComponent>> components;
  };

  /// A planned reconstruction: consume `victims`, publish one component at
  /// `out_level`. Victim rows marked deleted at gather time are dropped;
  /// rows marked later are re-marked on the merged component at publish.
  struct MergePlan {
    std::vector<std::shared_ptr<const DynComponent>> victims;
    int out_level = 0;
  };

  Status AppendRowLocked(TransactionId gid, const Transaction& txn)
      MBI_REQUIRES(mu_);
  /// Marks `gid` deleted in whichever part holds it and counts the
  /// tombstone. kNotFound when it is already marked or no part holds it.
  Status MarkDeletedLocked(TransactionId gid) MBI_REQUIRES(mu_);
  /// Freezes the buffer into a level-0 component (dropping and purging
  /// deleted rows) and installs a fresh buffer.
  void SpillLocked() MBI_REQUIRES(mu_);
  /// Claims the lowest overflowing level's merge (setting merge_in_flight_)
  /// and returns its plan, or nullopt when nothing overflows or a merge is
  /// already running. The caller MUST release mu_ and pass the plan to
  /// SubmitMerge — submitting under mu_ deadlocks the inline (null-pool)
  /// scheduler, whose job re-acquires mu_ to publish.
  std::optional<MergePlan> MaybeStartMergeLocked() MBI_REQUIRES(mu_);
  /// Hands a claimed plan to the scheduler; unwinds merge_in_flight_ if the
  /// scheduler is stopping. Must be called WITHOUT mu_ held.
  void SubmitMerge(MergePlan plan);
  size_t CountAtLevelLocked(int level) const
      MBI_REQUIRES(mu_);
  /// The three-phase background job: gather (drop victims' deleted rows),
  /// build (re-mine the union), publish (carry later deletes over, swap).
  /// Polls `budget` between phases and abandons — leaving victims
  /// queryable — on expiry or cancellation.
  void RunMerge(const MergePlan& plan, const QueryBudget& budget);
  /// Swaps victims for the merged run (whose marks RunMerge has already
  /// carried over), retires the `purged` tombstones the merge dropped, and
  /// returns the cascade plan when the destination level now overflows.
  std::optional<MergePlan> PublishMergeLocked(
      const MergePlan& plan, std::shared_ptr<const DynComponent> merged,
      size_t purged) MBI_REQUIRES(mu_);
  void AbandonMergeLocked() MBI_REQUIRES(mu_);
  void UpdateGaugesLocked() MBI_REQUIRES(mu_);

  /// Inserts `component` at its place in the fan-out order: largest first,
  /// equal sizes by smallest gid. Every publish (spill, merge, load) goes
  /// through here, so queries visit components in that order unsorted.
  static void InsertInFanOutOrder(
      std::shared_ptr<const DynComponent> component,
      std::vector<std::shared_ptr<const DynComponent>>* components);

  /// One component's contribution to the fan-out, pruned against `floor`
  /// (the merger's running k-th best; the quarantined scan path ignores
  /// it). Returns entries charged (in the component path's unit) so the
  /// caller can split max_entries.
  uint64_t QueryComponent(const DynComponent& component,
                          const Transaction& target,
                          const SimilarityFamily& family, size_t k_component,
                          const SearchOptions& options, double floor,
                          DynQueryContext* context) const;

  const size_t universe_size_;
  const DynamicIndexOptions options_;

  mutable Mutex mu_;
  State state_ MBI_GUARDED_BY(mu_);
  TransactionId next_gid_ MBI_GUARDED_BY(mu_) = 0;
  size_t live_rows_ MBI_GUARDED_BY(mu_) = 0;
  /// Delete marks across the buffer and components (deleted rows not yet
  /// purged); CheckInvariants recounts it from the masks.
  size_t tombstones_ MBI_GUARDED_BY(mu_) = 0;
  bool merge_in_flight_ MBI_GUARDED_BY(mu_) = false;

  mutable Scheduler scheduler_;

  struct Metrics {
    Counter* inserts = nullptr;
    Counter* deletes = nullptr;
    Counter* spills = nullptr;
    Counter* merges = nullptr;
    Counter* merges_abandoned = nullptr;
    Counter* backpressure = nullptr;
    Counter* queries = nullptr;
    Gauge* components = nullptr;
    Gauge* tombstones = nullptr;
    Gauge* buffer_fill = nullptr;
    Gauge* live_rows = nullptr;
    LatencyHistogram* merge_latency = nullptr;
  };
  static Metrics MakeMetrics(MetricsRegistry* registry);

  // Immutable after construction; the Counter/Gauge/Histogram objects it
  // points at are internally synchronized, so no mu_ annotation is needed.
  const Metrics metrics_;
};

}  // namespace mbi

#endif  // MBI_DYN_DYNAMIC_INDEX_H_
