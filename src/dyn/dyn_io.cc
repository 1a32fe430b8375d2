#include "dyn/dyn_io.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "core/table_io.h"
#include "storage/format.h"
#include "txn/database_io.h"
#include "util/macros.h"

namespace mbi {

namespace {

// Manifest section ids. One kSectionComponent per component, in the same
// order as the .c<i> shard files; kSectionBuffer last.
constexpr uint32_t kSectionMeta = 1;
constexpr uint32_t kSectionTombstones = 2;
constexpr uint32_t kSectionComponent = 3;
constexpr uint32_t kSectionBuffer = 4;

// A manifest claiming more components/rows than this is corrupt, not big.
constexpr uint64_t kMaxComponents = 1u << 20;
constexpr uint64_t kMaxRows = 1u << 28;

/// Removes `.c<i>` shards at indices >= `first` left over from a previous,
/// wider save. Best-effort: failures leave garbage files, never a bad index
/// (the manifest no longer names them).
void RemoveOrphanShards(Env* env, const std::string& prefix, size_t first) {
  for (size_t i = first;; ++i) {
    bool any = false;
    const std::string rows = DynIo::RowsPath(prefix, i);
    const std::string table = DynIo::TablePath(prefix, i);
    if (env->FileExists(rows)) {
      env->RemoveFile(rows).IgnoreError();
      any = true;
    }
    if (env->FileExists(table)) {
      env->RemoveFile(table).IgnoreError();
      any = true;
    }
    if (!any) return;
  }
}

}  // namespace

std::string DynIo::RowsPath(const std::string& prefix, size_t i) {
  return prefix + ".c" + std::to_string(i) + ".rows";
}

std::string DynIo::TablePath(const std::string& prefix, size_t i) {
  return prefix + ".c" + std::to_string(i) + ".table";
}

Status DynIo::Save(const DynamicIndex& index, const std::string& prefix,
                   Env* env) {
  // One consistent snapshot; everything below works off immutable state.
  // The tombstone section is the sorted gids of the delete marks, read under
  // the mutex that serializes every delete.
  DynamicIndex::State snapshot;
  TransactionId next_gid;
  std::vector<TransactionId> tombstones;
  {
    MutexLock lock(&index.mu_);
    snapshot = index.state_;
    next_gid = index.next_gid_;
    for (const auto& component : snapshot.components) {
      component->deleted.ForEachMarked([&](size_t row) {
        tombstones.push_back(component->gids[row]);
      });
    }
    snapshot.buffer->deleted().ForEachMarked([&](size_t row) {
      tombstones.push_back(snapshot.buffer->row(row).gid);
    });
  }
  std::sort(tombstones.begin(), tombstones.end());

  // Shards first, manifest last: the manifest is the commit point.
  for (size_t i = 0; i < snapshot.components.size(); ++i) {
    const DynComponent& component = *snapshot.components[i];
    MBI_RETURN_IF_ERROR(SaveDatabase(component.rows, RowsPath(prefix, i), env));
    if (!component.quarantined) {
      MBI_RETURN_IF_ERROR(
          SaveSignatureTable(*component.table, TablePath(prefix, i), env));
    } else if (env->FileExists(TablePath(prefix, i))) {
      // A stale table from an older family must not be re-adopted for this
      // component's rows on load.
      env->RemoveFile(TablePath(prefix, i)).IgnoreError();
    }
  }

  ArtifactWriter writer(env, prefix, kDynIndexMagic);
  MBI_RETURN_IF_ERROR(writer.Open());

  writer.BeginSection(kSectionMeta);
  writer.PutU32(static_cast<uint32_t>(index.universe_size()));
  writer.PutU64(next_gid);
  writer.PutU64(snapshot.components.size());
  MBI_RETURN_IF_ERROR(writer.EndSection());

  writer.BeginSection(kSectionTombstones);
  writer.PutU32Span(tombstones.data(), tombstones.size());
  MBI_RETURN_IF_ERROR(writer.EndSection());

  for (const auto& component : snapshot.components) {
    writer.BeginSection(kSectionComponent);
    writer.PutU32(static_cast<uint32_t>(component->level));
    writer.PutU32Span(component->gids.data(), component->gids.size());
    MBI_RETURN_IF_ERROR(writer.EndSection());
  }

  // Buffered rows ride in the manifest verbatim: the buffer is small by
  // construction and gets no derived artifacts.
  const MutableBuffer& buffer = *snapshot.buffer;
  const size_t buffered = buffer.size();
  writer.BeginSection(kSectionBuffer);
  writer.PutU64(buffered);
  for (size_t i = 0; i < buffered; ++i) {
    const BufferedRow& row = buffer.row(i);
    writer.PutU32(row.gid);
    writer.PutU32Span(row.txn.items().data(), row.txn.items().size());
  }
  MBI_RETURN_IF_ERROR(writer.EndSection());

  MBI_RETURN_IF_ERROR(writer.Commit());
  RemoveOrphanShards(env, prefix, snapshot.components.size());
  return Status::Ok();
}

StatusOr<std::unique_ptr<DynamicIndex>> DynIo::Load(
    const std::string& prefix, const DynamicIndexOptions& options, Env* env) {
  MBI_ASSIGN_OR_RETURN(ArtifactReader reader,
                       ArtifactReader::Open(env, prefix, kDynIndexMagic));

  MBI_ASSIGN_OR_RETURN(std::vector<uint8_t> meta,
                       reader.ReadSection(kSectionMeta, "dyn meta"));
  uint32_t universe = 0;
  uint64_t next_gid = 0;
  uint64_t num_components = 0;
  {
    SectionParser parser(meta, prefix + " dyn meta");
    MBI_RETURN_IF_ERROR(parser.ReadU32(&universe));
    MBI_RETURN_IF_ERROR(parser.ReadU64(&next_gid));
    MBI_RETURN_IF_ERROR(parser.ReadU64(&num_components));
    MBI_RETURN_IF_ERROR(parser.ExpectConsumed());
  }
  if (universe == 0 || num_components > kMaxComponents) {
    return Status::Corruption(prefix + ": implausible dyn meta");
  }

  MBI_ASSIGN_OR_RETURN(std::vector<uint8_t> tombstone_payload,
                       reader.ReadSection(kSectionTombstones, "tombstones"));
  std::vector<TransactionId> tombstones;
  {
    SectionParser parser(tombstone_payload, prefix + " tombstones");
    MBI_RETURN_IF_ERROR(parser.ReadU32Vector(kMaxRows, &tombstones));
    MBI_RETURN_IF_ERROR(parser.ExpectConsumed());
  }

  auto index = std::make_unique<DynamicIndex>(universe, options);

  struct LoadedComponent {
    int level = 0;
    std::vector<TransactionId> gids;
  };
  std::vector<LoadedComponent> manifests;
  manifests.reserve(num_components);
  for (uint64_t i = 0; i < num_components; ++i) {
    MBI_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                         reader.ReadSection(kSectionComponent, "component"));
    SectionParser parser(payload, prefix + " component");
    uint32_t level = 0;
    LoadedComponent loaded;
    MBI_RETURN_IF_ERROR(parser.ReadU32(&level));
    MBI_RETURN_IF_ERROR(parser.ReadU32Vector(kMaxRows, &loaded.gids));
    MBI_RETURN_IF_ERROR(parser.ExpectConsumed());
    loaded.level = static_cast<int>(level);
    manifests.push_back(std::move(loaded));
  }

  MBI_ASSIGN_OR_RETURN(std::vector<uint8_t> buffer_payload,
                       reader.ReadSection(kSectionBuffer, "buffer"));
  MBI_RETURN_IF_ERROR(reader.ExpectEnd());

  // Shards. Rows are the source of truth: any rows failure fails the load.
  // A table failure quarantines that one component (exact scan, no pruning).
  for (size_t i = 0; i < manifests.size(); ++i) {
    MBI_ASSIGN_OR_RETURN(TransactionDatabase rows,
                         LoadDatabase(RowsPath(prefix, i), env));
    LoadedComponent& manifest = manifests[i];
    if (rows.size() != manifest.gids.size() ||
        rows.universe_size() != universe ||
        !std::is_sorted(manifest.gids.begin(), manifest.gids.end())) {
      return Status::Corruption(RowsPath(prefix, i) +
                                ": rows disagree with the dyn manifest");
    }
    std::optional<SignatureTable> table;
    StatusOr<SignatureTable> loaded_table =
        LoadSignatureTable(TablePath(prefix, i), rows, env);
    if (loaded_table.ok()) table.emplace(std::move(loaded_table).value());
    MutexLock lock(&index->mu_);
    index->state_.components.push_back(DynComponent::CreateFromLoaded(
        manifest.level, std::move(manifest.gids), std::move(rows),
        std::move(table)));
  }

  std::optional<DynamicIndex::MergePlan> plan;
  {
    MutexLock lock(&index->mu_);
    index->next_gid_ = static_cast<TransactionId>(next_gid);

    // Replay buffered rows under their original gids; a smaller configured
    // buffer capacity spills the overflow into fresh level-0 components.
    SectionParser parser(buffer_payload, prefix + " buffer");
    uint64_t buffered = 0;
    MBI_RETURN_IF_ERROR(parser.ReadU64(&buffered));
    if (buffered > kMaxRows) {
      return Status::Corruption(prefix + ": implausible buffer row count");
    }
    std::vector<uint32_t> items;
    for (uint64_t i = 0; i < buffered; ++i) {
      uint32_t gid = 0;
      MBI_RETURN_IF_ERROR(parser.ReadU32(&gid));
      MBI_RETURN_IF_ERROR(parser.ReadU32Vector(universe, &items));
      MBI_RETURN_IF_ERROR(
          index->AppendRowLocked(gid, Transaction(std::move(items))));
      items.clear();
    }
    MBI_RETURN_IF_ERROR(parser.ExpectConsumed());

    // Re-apply the tombstones as delete marks wherever their rows now live
    // (a replayed buffer row may have spilled into a component).
    for (const TransactionId gid : tombstones) {
      if (!index->MarkDeletedLocked(gid).ok()) {
        return Status::Corruption(prefix + ": tombstone names no live row");
      }
    }

    // live_rows_ was bumped per buffer replay only; rebuild it from scratch.
    size_t total = index->state_.buffer->size();
    for (const auto& component : index->state_.components) {
      total += component->size();
    }
    index->live_rows_ = total - index->tombstones_;
    index->UpdateGaugesLocked();
    plan = index->MaybeStartMergeLocked();
  }
  if (plan.has_value()) index->SubmitMerge(std::move(*plan));

  MBI_RETURN_IF_ERROR(index->CheckInvariants());
  return index;
}

}  // namespace mbi
