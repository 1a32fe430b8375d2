#include "core/table_io.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "storage/format.h"

namespace mbi {
namespace {

// v2 section ids, in file order.
constexpr uint32_t kSectionMeta = 1;       // cardinality, universe, activation,
                                           // page_size (u32 each), num_tx u64
constexpr uint32_t kSectionPartition = 2;  // u32 span: signature per item
constexpr uint32_t kSectionCoordinates = 3;  // u32 span: coordinate per tx
constexpr uint32_t kSectionDirectory = 4;  // u64 count, then 3 u32 per entry
constexpr uint32_t kSectionBuckets = 5;    // u64 count, then a u32 span each
constexpr uint32_t kSectionPages = 6;      // u64 count, then used u32 + span
constexpr uint32_t kSectionPageMap = 7;    // u32 span: page per tx

// Hard caps against corrupt headers allocating absurd buffers.
constexpr uint64_t kMaxReasonableCount = 1ULL << 33;

/// Everything LoadSignatureTable reads off disk before assembly.
struct TableParts {
  uint32_t cardinality = 0;
  uint32_t universe = 0;
  uint32_t activation_threshold = 0;
  uint32_t page_size = 0;
  uint64_t num_transactions = 0;
  std::vector<uint32_t> signature_of_item;
  std::vector<Supercoordinate> coordinates;
  std::vector<SignatureTable::Entry> entries;
  std::vector<std::vector<PageId>> buckets;
  std::vector<Page> pages;  // Views into page_ids, in page order.
  std::vector<TransactionId> page_ids;
  std::vector<PageId> page_of_transaction;
};

Status ParseDirectory(SectionParser* parser, uint64_t max_entries,
                      std::vector<SignatureTable::Entry>* entries) {
  uint64_t num_entries = 0;
  MBI_RETURN_IF_ERROR(parser->ReadU64(&num_entries));
  if (num_entries > max_entries) {
    return Status::Corruption("directory declares " +
                              std::to_string(num_entries) +
                              " entries for " + std::to_string(max_entries) +
                              " transactions");
  }
  entries->resize(static_cast<size_t>(num_entries));
  for (auto& entry : *entries) {
    MBI_RETURN_IF_ERROR(parser->ReadU32(&entry.coordinate));
    MBI_RETURN_IF_ERROR(parser->ReadU32(&entry.transaction_count));
    MBI_RETURN_IF_ERROR(parser->ReadU32(&entry.bucket));
  }
  return Status::Ok();
}

Status ParseBuckets(SectionParser* parser, uint64_t max_buckets,
                    std::vector<std::vector<PageId>>* buckets) {
  uint64_t num_buckets = 0;
  MBI_RETURN_IF_ERROR(parser->ReadU64(&num_buckets));
  if (num_buckets > max_buckets) {
    return Status::Corruption("bucket count " + std::to_string(num_buckets) +
                              " exceeds the transaction count");
  }
  buckets->resize(static_cast<size_t>(num_buckets));
  for (auto& bucket : *buckets) {
    MBI_RETURN_IF_ERROR(parser->ReadU32Vector(kMaxReasonableCount, &bucket));
  }
  return Status::Ok();
}

/// Reads the pages into one id array, page after page; `expected_ids` (the
/// declared transaction count) sizes the array up front.
Status ParsePages(SectionParser* parser, uint64_t expected_ids,
                  std::vector<Page>* pages, std::vector<TransactionId>* ids) {
  uint64_t num_pages = 0;
  MBI_RETURN_IF_ERROR(parser->ReadU64(&num_pages));
  if (num_pages > kMaxReasonableCount) {
    return Status::Corruption("implausible page count " +
                              std::to_string(num_pages));
  }
  pages->resize(static_cast<size_t>(num_pages));
  ids->clear();
  ids->reserve(static_cast<size_t>(
      std::min<uint64_t>(expected_ids, parser->remaining() / 4)));
  std::vector<TransactionId> page_ids;
  for (auto& page : *pages) {
    MBI_RETURN_IF_ERROR(parser->ReadU32(&page.used_bytes));
    MBI_RETURN_IF_ERROR(parser->ReadU32Vector(
        std::numeric_limits<uint32_t>::max(), &page_ids));
    page.first = ids->size();
    page.count = static_cast<uint32_t>(page_ids.size());
    ids->insert(ids->end(), page_ids.begin(), page_ids.end());
  }
  return Status::Ok();
}

/// The full cross-section invariant walk. Rejects, as kCorruption, every
/// condition that SignatureTable::Assemble, TransactionStore::FromParts, or
/// PageStore::FromPages would abort on (a page backing two buckets among
/// them), plus the referential checks (page membership, id ranges) that
/// would otherwise crash a later query, and bucket membership (each id in
/// exactly one bucket, each entry's count and coordinate matching its
/// bucket's ids) without which an entry's bounds would not cover its rows.
/// When `database` is non-null the table must index exactly that database;
/// a sound file over different data is kInvalidArgument, not corruption.
Status ValidateParts(const std::string& path, const TableParts& parts,
                     const TransactionDatabase* database) {
  if (parts.cardinality == 0 ||
      parts.cardinality > SignaturePartition::kMaxCardinality) {
    return Status::Corruption(
        path + ": cardinality " + std::to_string(parts.cardinality) +
        " outside [1, " + std::to_string(SignaturePartition::kMaxCardinality) +
        "]");
  }
  if (parts.universe == 0) {
    return Status::Corruption(path + ": zero universe size");
  }
  if (parts.activation_threshold == 0) {
    return Status::Corruption(path + ": zero activation threshold");
  }
  if (parts.page_size < 64) {
    return Status::Corruption(path + ": page size " +
                              std::to_string(parts.page_size) +
                              " below the 64-byte minimum");
  }
  if (parts.num_transactions > kMaxReasonableCount) {
    return Status::Corruption(path + ": implausible transaction count");
  }
  if (database != nullptr && (parts.universe != database->universe_size() ||
                              parts.num_transactions != database->size())) {
    return Status::InvalidArgument(
        path + ": index is over " + std::to_string(parts.num_transactions) +
        " transactions / universe " + std::to_string(parts.universe) +
        ", database has " + std::to_string(database->size()) +
        " / universe " + std::to_string(database->universe_size()));
  }

  if (parts.signature_of_item.size() != parts.universe) {
    return Status::Corruption(path + ": partition covers " +
                              std::to_string(parts.signature_of_item.size()) +
                              " items, header declares " +
                              std::to_string(parts.universe));
  }
  for (uint32_t signature : parts.signature_of_item) {
    if (signature >= parts.cardinality) {
      return Status::Corruption(path + ": item assigned to signature " +
                                std::to_string(signature) +
                                " >= cardinality");
    }
  }

  const Supercoordinate coordinate_limit = Supercoordinate{1}
                                           << parts.cardinality;
  if (parts.coordinates.size() != parts.num_transactions) {
    return Status::Corruption(path + ": coordinate list covers " +
                              std::to_string(parts.coordinates.size()) +
                              " transactions, header declares " +
                              std::to_string(parts.num_transactions));
  }
  for (Supercoordinate coordinate : parts.coordinates) {
    if (coordinate >= coordinate_limit) {
      return Status::Corruption(path +
                                ": transaction coordinate outside [0, 2^K)");
    }
  }

  const uint64_t num_buckets = parts.buckets.size();
  const uint64_t num_pages = parts.pages.size();
  uint64_t entry_total = 0;
  for (size_t i = 0; i < parts.entries.size(); ++i) {
    const SignatureTable::Entry& entry = parts.entries[i];
    if (entry.coordinate >= coordinate_limit) {
      return Status::Corruption(path + ": directory coordinate outside "
                                       "[0, 2^K)");
    }
    if (i > 0 && parts.entries[i - 1].coordinate >= entry.coordinate) {
      return Status::Corruption(path + ": directory entries not strictly "
                                       "sorted by coordinate");
    }
    if (entry.bucket >= num_buckets) {
      return Status::Corruption(path + ": directory entry references bucket " +
                                std::to_string(entry.bucket) + " of " +
                                std::to_string(num_buckets));
    }
    entry_total += entry.transaction_count;
  }
  if (entry_total != parts.num_transactions) {
    return Status::Corruption(path + ": directory counts sum to " +
                              std::to_string(entry_total) + ", expected " +
                              std::to_string(parts.num_transactions));
  }

  for (const Page& page : parts.pages) {
    if (page.used_bytes > parts.page_size) {
      return Status::Corruption(path + ": page claims " +
                                std::to_string(page.used_bytes) +
                                " used bytes of a " +
                                std::to_string(parts.page_size) +
                                "-byte page");
    }
  }
  for (TransactionId id : parts.page_ids) {
    if (id >= parts.num_transactions) {
      return Status::Corruption(path + ": page lists transaction " +
                                std::to_string(id) + " beyond the " +
                                std::to_string(parts.num_transactions) +
                                " indexed");
    }
  }
  std::vector<bool> backs_a_bucket(static_cast<size_t>(num_pages), false);
  for (const auto& bucket : parts.buckets) {
    for (PageId page : bucket) {
      if (page >= num_pages) {
        return Status::Corruption(path + ": bucket references page " +
                                  std::to_string(page) + " of " +
                                  std::to_string(num_pages));
      }
      if (backs_a_bucket[page]) {
        return Status::Corruption(path + ": page " + std::to_string(page) +
                                  " backs two buckets");
      }
      backs_a_bucket[page] = true;
    }
  }
  // Bucket membership, which the bounds rely on: each directory entry has a
  // bucket of its own holding exactly its transaction_count ids, no id sits
  // in two buckets (or twice in one), and every id's coordinate is its
  // entry's. With the counts summing to the transaction count, each id then
  // sits in exactly one entry's bucket.
  constexpr uint32_t kNoEntry = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> entry_of_bucket(static_cast<size_t>(num_buckets),
                                        kNoEntry);
  for (size_t i = 0; i < parts.entries.size(); ++i) {
    const uint32_t bucket = parts.entries[i].bucket;
    if (entry_of_bucket[bucket] != kNoEntry) {
      return Status::Corruption(path + ": bucket " + std::to_string(bucket) +
                                " backs two directory entries");
    }
    entry_of_bucket[bucket] = static_cast<uint32_t>(i);
  }
  std::vector<bool> in_a_bucket(static_cast<size_t>(parts.num_transactions),
                                false);
  for (size_t bucket = 0; bucket < num_buckets; ++bucket) {
    const uint32_t entry = entry_of_bucket[bucket];
    uint64_t held = 0;
    for (PageId page : parts.buckets[bucket]) {
      const Page& view = parts.pages[page];
      for (uint32_t slot = 0; slot < view.count; ++slot) {
        const TransactionId id = parts.page_ids[view.first + slot];
        if (in_a_bucket[id]) {
          return Status::Corruption(path + ": transaction " +
                                    std::to_string(id) +
                                    " sits in two buckets");
        }
        in_a_bucket[id] = true;
        ++held;
        if (entry != kNoEntry &&
            parts.coordinates[id] != parts.entries[entry].coordinate) {
          return Status::Corruption(
              path + ": transaction " + std::to_string(id) +
              " has coordinate " + std::to_string(parts.coordinates[id]) +
              " but sits in the bucket of entry " +
              std::to_string(parts.entries[entry].coordinate));
        }
      }
    }
    if (entry != kNoEntry && held != parts.entries[entry].transaction_count) {
      return Status::Corruption(
          path + ": directory entry " +
          std::to_string(parts.entries[entry].coordinate) + " counts " +
          std::to_string(parts.entries[entry].transaction_count) +
          " transactions but its bucket holds " + std::to_string(held));
    }
  }

  if (parts.page_of_transaction.size() != parts.num_transactions) {
    return Status::Corruption(path + ": page map covers " +
                              std::to_string(parts.page_of_transaction.size()) +
                              " transactions, header declares " +
                              std::to_string(parts.num_transactions));
  }
  for (TransactionId id = 0; id < parts.num_transactions; ++id) {
    const PageId page = parts.page_of_transaction[id];
    if (page >= num_pages) {
      return Status::Corruption(path + ": page map references page " +
                                std::to_string(page) + " of " +
                                std::to_string(num_pages));
    }
    // FromParts aborts unless every transaction really is on its mapped
    // page; replicate that membership check gracefully here.
    const Page& view = parts.pages[page];
    const auto residents =
        parts.page_ids.begin() + static_cast<ptrdiff_t>(view.first);
    const auto residents_end = residents + view.count;
    const bool found = std::find(residents, residents_end, id) != residents_end;
    if (!found) {
      return Status::Corruption(path + ": transaction " + std::to_string(id) +
                                " is mapped to page " + std::to_string(page) +
                                " but the page does not hold it");
    }
  }
  return Status::Ok();
}

/// Reads and validates `path`, against `database` when non-null. The core of
/// both LoadSignatureTable and VerifySignatureTableFile: parts that pass are
/// safe to assemble.
StatusOr<TableParts> ReadTableParts(const std::string& path,
                                    const TransactionDatabase* database,
                                    Env* env) {
  MBI_ASSIGN_OR_RETURN(ArtifactReader reader,
                       ArtifactReader::Open(env, path, kTableMagic));
  TableParts parts;

  if (reader.version() == kFormatVersionDurable) {
    MBI_ASSIGN_OR_RETURN(std::vector<uint8_t> meta,
                         reader.ReadSection(kSectionMeta, "meta"));
    SectionParser meta_parser(meta, path + ": section 'meta'");
    MBI_RETURN_IF_ERROR(meta_parser.ReadU32(&parts.cardinality));
    MBI_RETURN_IF_ERROR(meta_parser.ReadU32(&parts.universe));
    MBI_RETURN_IF_ERROR(meta_parser.ReadU32(&parts.activation_threshold));
    MBI_RETURN_IF_ERROR(meta_parser.ReadU32(&parts.page_size));
    MBI_RETURN_IF_ERROR(meta_parser.ReadU64(&parts.num_transactions));
    MBI_RETURN_IF_ERROR(meta_parser.ExpectConsumed());

    MBI_ASSIGN_OR_RETURN(std::vector<uint8_t> partition,
                         reader.ReadSection(kSectionPartition, "partition"));
    SectionParser partition_parser(partition, path + ": section 'partition'");
    MBI_RETURN_IF_ERROR(partition_parser.ReadU32Vector(
        parts.universe, &parts.signature_of_item));
    MBI_RETURN_IF_ERROR(partition_parser.ExpectConsumed());

    MBI_ASSIGN_OR_RETURN(
        std::vector<uint8_t> coordinates,
        reader.ReadSection(kSectionCoordinates, "coordinates"));
    SectionParser coordinate_parser(coordinates,
                                    path + ": section 'coordinates'");
    MBI_RETURN_IF_ERROR(coordinate_parser.ReadU32Vector(kMaxReasonableCount,
                                                        &parts.coordinates));
    MBI_RETURN_IF_ERROR(coordinate_parser.ExpectConsumed());

    MBI_ASSIGN_OR_RETURN(std::vector<uint8_t> directory,
                         reader.ReadSection(kSectionDirectory, "directory"));
    SectionParser directory_parser(directory, path + ": section 'directory'");
    MBI_RETURN_IF_ERROR(ParseDirectory(&directory_parser,
                                       parts.num_transactions, &parts.entries));
    MBI_RETURN_IF_ERROR(directory_parser.ExpectConsumed());

    MBI_ASSIGN_OR_RETURN(std::vector<uint8_t> buckets,
                         reader.ReadSection(kSectionBuckets, "buckets"));
    SectionParser bucket_parser(buckets, path + ": section 'buckets'");
    MBI_RETURN_IF_ERROR(
        ParseBuckets(&bucket_parser, parts.num_transactions, &parts.buckets));
    MBI_RETURN_IF_ERROR(bucket_parser.ExpectConsumed());

    MBI_ASSIGN_OR_RETURN(std::vector<uint8_t> pages,
                         reader.ReadSection(kSectionPages, "pages"));
    SectionParser page_parser(pages, path + ": section 'pages'");
    MBI_RETURN_IF_ERROR(ParsePages(&page_parser, parts.num_transactions,
                                   &parts.pages, &parts.page_ids));
    MBI_RETURN_IF_ERROR(page_parser.ExpectConsumed());

    MBI_ASSIGN_OR_RETURN(std::vector<uint8_t> page_map,
                         reader.ReadSection(kSectionPageMap, "page_map"));
    SectionParser page_map_parser(page_map, path + ": section 'page_map'");
    MBI_RETURN_IF_ERROR(page_map_parser.ReadU32Vector(
        kMaxReasonableCount, &parts.page_of_transaction));
    MBI_RETURN_IF_ERROR(page_map_parser.ExpectConsumed());
    MBI_RETURN_IF_ERROR(reader.ExpectEnd());
  } else {
    // Legacy v1: one unframed body, fields in the seed's order.
    MBI_ASSIGN_OR_RETURN(std::vector<uint8_t> body, reader.ReadRemainder());
    SectionParser parser(body, path);
    MBI_RETURN_IF_ERROR(parser.ReadU32(&parts.cardinality));
    MBI_RETURN_IF_ERROR(parser.ReadU32(&parts.universe));
    MBI_RETURN_IF_ERROR(parser.ReadU32(&parts.activation_threshold));
    MBI_RETURN_IF_ERROR(parser.ReadU32(&parts.page_size));
    MBI_RETURN_IF_ERROR(
        parser.ReadU32Vector(parts.universe, &parts.signature_of_item));
    MBI_RETURN_IF_ERROR(parser.ReadU64(&parts.num_transactions));
    if (parts.num_transactions > kMaxReasonableCount) {
      return Status::Corruption(path + ": implausible transaction count");
    }
    if (parser.remaining() <
        parts.num_transactions * sizeof(Supercoordinate)) {
      return Status::Corruption(path + ": coordinate list truncated");
    }
    parts.coordinates.resize(static_cast<size_t>(parts.num_transactions));
    MBI_RETURN_IF_ERROR(
        parser.ReadBytes(parts.coordinates.data(),
                         parts.coordinates.size() * sizeof(Supercoordinate)));
    MBI_RETURN_IF_ERROR(
        ParseDirectory(&parser, parts.num_transactions, &parts.entries));
    MBI_RETURN_IF_ERROR(
        ParseBuckets(&parser, parts.num_transactions, &parts.buckets));
    MBI_RETURN_IF_ERROR(ParsePages(&parser, parts.num_transactions,
                                   &parts.pages, &parts.page_ids));
    MBI_RETURN_IF_ERROR(parser.ReadU32Vector(kMaxReasonableCount,
                                             &parts.page_of_transaction));
    MBI_RETURN_IF_ERROR(parser.ExpectConsumed());
  }

  MBI_RETURN_IF_ERROR(ValidateParts(path, parts, database));
  return parts;
}

}  // namespace

StatusOr<SignatureTable> LoadSignatureTable(
    const std::string& path, const TransactionDatabase& database, Env* env) {
  MBI_ASSIGN_OR_RETURN(TableParts parts, ReadTableParts(path, &database, env));
  SignatureTableConfig config;
  config.activation_threshold = static_cast<int>(parts.activation_threshold);
  config.page_size_bytes = parts.page_size;
  return SignatureTable::Assemble(
      database,
      SignaturePartition(parts.cardinality, std::move(parts.signature_of_item)),
      config, std::move(parts.entries), std::move(parts.coordinates),
      TransactionStore::FromParts(
          PageStore::FromPages(parts.page_size, std::move(parts.pages),
                               std::move(parts.page_ids)),
          std::move(parts.buckets), std::move(parts.page_of_transaction)));
}

Status SaveSignatureTable(const SignatureTable& table, const std::string& path,
                          Env* env) {
  ArtifactWriter writer(env, path, kTableMagic);
  MBI_RETURN_IF_ERROR(writer.Open());

  const SignaturePartition& partition = table.partition();
  const uint64_t num_transactions = table.num_indexed_transactions();

  writer.BeginSection(kSectionMeta);
  writer.PutU32(partition.cardinality());
  writer.PutU32(partition.universe_size());
  writer.PutU32(static_cast<uint32_t>(table.activation_threshold()));
  writer.PutU32(table.page_size_bytes());
  writer.PutU64(num_transactions);
  MBI_RETURN_IF_ERROR(writer.EndSection());

  std::vector<uint32_t> signature_of_item(partition.universe_size());
  for (ItemId item = 0; item < partition.universe_size(); ++item) {
    signature_of_item[item] = partition.SignatureOf(item);
  }
  writer.BeginSection(kSectionPartition);
  writer.PutU32Span(signature_of_item.data(), signature_of_item.size());
  MBI_RETURN_IF_ERROR(writer.EndSection());

  std::vector<Supercoordinate> coordinates(
      static_cast<size_t>(num_transactions));
  for (TransactionId id = 0; id < num_transactions; ++id) {
    coordinates[id] = table.CoordinateOfTransaction(id);
  }
  writer.BeginSection(kSectionCoordinates);
  writer.PutU32Span(coordinates.data(), coordinates.size());
  MBI_RETURN_IF_ERROR(writer.EndSection());

  writer.BeginSection(kSectionDirectory);
  writer.PutU64(table.entries().size());
  for (const SignatureTable::Entry& entry : table.entries()) {
    writer.PutU32(entry.coordinate);
    writer.PutU32(entry.transaction_count);
    writer.PutU32(entry.bucket);
  }
  MBI_RETURN_IF_ERROR(writer.EndSection());

  const TransactionStore& store = table.store();
  writer.BeginSection(kSectionBuckets);
  writer.PutU64(store.num_buckets());
  for (uint32_t bucket = 0; bucket < store.num_buckets(); ++bucket) {
    const std::span<const PageId> pages = store.PagesOfBucket(bucket);
    writer.PutU32Span(pages.data(), pages.size());
  }
  MBI_RETURN_IF_ERROR(writer.EndSection());

  const PageStore& pages = store.page_store();
  writer.BeginSection(kSectionPages);
  writer.PutU64(pages.size());
  for (PageId page = 0; page < pages.size(); ++page) {
    const std::span<const TransactionId> ids = pages.IdsOnPage(page);
    writer.PutU32(pages.pages()[page].used_bytes);
    writer.PutU32Span(ids.data(), ids.size());
  }
  MBI_RETURN_IF_ERROR(writer.EndSection());

  std::vector<uint32_t> page_of_transaction(
      static_cast<size_t>(num_transactions));
  for (TransactionId id = 0; id < num_transactions; ++id) {
    page_of_transaction[id] = store.PageOfTransaction(id);
  }
  writer.BeginSection(kSectionPageMap);
  writer.PutU32Span(page_of_transaction.data(), page_of_transaction.size());
  MBI_RETURN_IF_ERROR(writer.EndSection());

  return writer.Commit();
}

Status VerifySignatureTableFile(const std::string& path, Env* env) {
  StatusOr<TableParts> parts = ReadTableParts(path, nullptr, env);
  return parts.ok() ? Status::Ok() : parts.status();
}

}  // namespace mbi
