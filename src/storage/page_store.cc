#include "storage/page_store.h"

#include <cstddef>
#include <limits>

#include "storage/format.h"
#include "util/macros.h"

namespace mbi {
namespace {

// Spill-artifact section ids.
constexpr uint32_t kSectionMeta = 1;   // page_size u32, num_pages u64
constexpr uint32_t kSectionPages = 2;  // per page: used u32 + u32 span of ids

constexpr uint64_t kMaxReasonablePages = 1ULL << 33;

}  // namespace

PageStore::PageStore(uint32_t page_size_bytes)
    : page_size_bytes_(page_size_bytes) {
  MBI_CHECK_MSG(page_size_bytes >= 64, "page size too small to be useful");
}

uint32_t PageStore::SerializedSize(const Transaction& transaction) {
  return 4 + 4 * static_cast<uint32_t>(transaction.size());
}

PageId PageStore::Append(TransactionId id, uint32_t serialized_size) {
  MBI_CHECK_MSG(serialized_size <= page_size_bytes_,
                "transaction larger than a page");
  if (pages_.empty() ||
      pages_.back().used_bytes + serialized_size > page_size_bytes_) {
    pages_.push_back({ids_.size(), 0, 0});
    if (pages_written_metric_ != nullptr) pages_written_metric_->Increment();
  }
  Page& tail = pages_.back();
  MBI_CHECK_MSG(tail.first + tail.count == ids_.size(),
                "appends need the tail page at the end of the id array");
  ids_.push_back(id);
  ++tail.count;
  tail.used_bytes += serialized_size;
  return static_cast<PageId>(pages_.size() - 1);
}

void PageStore::SealCurrentPage() {
  if (!pages_.empty() && pages_.back().count > 0) {
    pages_.back().used_bytes = page_size_bytes_;
  }
}

PageStore PageStore::FromPages(uint32_t page_size_bytes,
                               std::vector<Page> pages,
                               std::vector<TransactionId> ids) {
  PageStore store(page_size_bytes);
  uint64_t next = 0;
  for (Page& page : pages) {
    MBI_CHECK_MSG(page.used_bytes <= page_size_bytes,
                  "serialized page exceeds the page size");
    page.first = next;
    next += page.count;
  }
  MBI_CHECK_MSG(next == ids.size(), "page counts do not cover the id array");
  store.pages_ = std::move(pages);
  store.ids_ = std::move(ids);
  return store;
}

void PageStore::GroupPages(std::span<const PageId> order) {
  std::vector<bool> placed(pages_.size(), false);
  std::vector<TransactionId> ids;
  ids.reserve(ids_.size());
  auto place = [&](PageId page) {
    Page& view = pages_[page];
    const uint64_t first = ids.size();
    ids.insert(ids.end(), ids_.begin() + static_cast<ptrdiff_t>(view.first),
               ids_.begin() + static_cast<ptrdiff_t>(view.first + view.count));
    view.first = first;
    placed[page] = true;
  };
  for (PageId page : order) {
    MBI_CHECK_MSG(page < pages_.size(), "grouping names a missing page");
    MBI_CHECK_MSG(!placed[page], "grouping names a page twice");
    place(page);
  }
  for (PageId page = 0; page < pages_.size(); ++page) {
    if (!placed[page]) place(page);
  }
  ids_ = std::move(ids);
}

Status PageStore::SpillToFile(const std::string& path, Env* env) const {
  ArtifactWriter writer(env, path, kPageSpillMagic);
  MBI_RETURN_IF_ERROR(writer.Open());

  writer.BeginSection(kSectionMeta);
  writer.PutU32(page_size_bytes_);
  writer.PutU64(pages_.size());
  MBI_RETURN_IF_ERROR(writer.EndSection());

  writer.BeginSection(kSectionPages);
  for (PageId page = 0; page < pages_.size(); ++page) {
    const std::span<const TransactionId> ids = IdsOnPage(page);
    writer.PutU32(pages_[page].used_bytes);
    writer.PutU32Span(ids.data(), ids.size());
  }
  MBI_RETURN_IF_ERROR(writer.EndSection());

  return writer.Commit();
}

StatusOr<PageStore> PageStore::LoadSpillFile(const std::string& path,
                                             Env* env) {
  MBI_ASSIGN_OR_RETURN(ArtifactReader reader,
                       ArtifactReader::Open(env, path, kPageSpillMagic));
  if (reader.version() != kFormatVersionDurable) {
    // Spills never existed before the durable container; a v1 header here is
    // not a legacy artifact, it is damage.
    return Status::Corruption(path + ": page spills have no legacy format");
  }

  MBI_ASSIGN_OR_RETURN(std::vector<uint8_t> meta,
                       reader.ReadSection(kSectionMeta, "meta"));
  SectionParser meta_parser(meta, path + ": section 'meta'");
  uint32_t page_size = 0;
  uint64_t num_pages = 0;
  MBI_RETURN_IF_ERROR(meta_parser.ReadU32(&page_size));
  MBI_RETURN_IF_ERROR(meta_parser.ReadU64(&num_pages));
  MBI_RETURN_IF_ERROR(meta_parser.ExpectConsumed());
  if (page_size < 64) {
    return Status::Corruption(path + ": page size below the 64-byte minimum");
  }
  if (num_pages > kMaxReasonablePages) {
    return Status::Corruption(path + ": implausible page count");
  }

  MBI_ASSIGN_OR_RETURN(std::vector<uint8_t> body,
                       reader.ReadSection(kSectionPages, "pages"));
  MBI_RETURN_IF_ERROR(reader.ExpectEnd());
  SectionParser parser(body, path + ": section 'pages'");
  std::vector<Page> pages(static_cast<size_t>(num_pages));
  std::vector<TransactionId> ids;
  std::vector<TransactionId> page_ids;
  for (Page& page : pages) {
    MBI_RETURN_IF_ERROR(parser.ReadU32(&page.used_bytes));
    MBI_RETURN_IF_ERROR(parser.ReadU32Vector(
        std::numeric_limits<uint32_t>::max(), &page_ids));
    page.count = static_cast<uint32_t>(page_ids.size());
    ids.insert(ids.end(), page_ids.begin(), page_ids.end());
    if (page.used_bytes > page_size) {
      return Status::Corruption(path + ": page claims " +
                                std::to_string(page.used_bytes) +
                                " used bytes of a " +
                                std::to_string(page_size) + "-byte page");
    }
  }
  MBI_RETURN_IF_ERROR(parser.ExpectConsumed());
  return FromPages(page_size, std::move(pages), std::move(ids));
}

std::span<const TransactionId> PageStore::Read(PageId page,
                                               IoStats* stats) const {
  const std::span<const TransactionId> ids = IdsOnPage(page);
  ChargeReads(1, stats);
  return ids;
}

std::span<const TransactionId> PageStore::IdsOnPage(PageId page) const {
  MBI_CHECK(page < pages_.size());
  return Slice(pages_[page].first, pages_[page].count);
}

void PageStore::set_metrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    pages_read_metric_ = nullptr;
    pages_written_metric_ = nullptr;
    return;
  }
  pages_read_metric_ = registry->GetCounter(
      "mbi.pagestore.pages_read", "pages", "physical page reads");
  pages_written_metric_ = registry->GetCounter(
      "mbi.pagestore.pages_written", "pages", "pages opened for writing");
}

}  // namespace mbi
