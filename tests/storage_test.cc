#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "storage/transaction_store.h"
#include "txn/database.h"
#include "util/metrics.h"

namespace mbi {
namespace {

std::vector<TransactionId> ToVector(std::span<const TransactionId> ids) {
  return {ids.begin(), ids.end()};
}

// --- PageStore ---

TEST(PageStoreTest, SerializedSizeIsLengthPrefixPlusItems) {
  EXPECT_EQ(PageStore::SerializedSize(Transaction({1, 2, 3})), 16u);
  EXPECT_EQ(PageStore::SerializedSize(Transaction{}), 4u);
}

TEST(PageStoreTest, AppendsFillPagesThenOverflow) {
  PageStore store(64);  // Room for ~4 three-item transactions (16B each).
  for (TransactionId id = 0; id < 5; ++id) {
    store.Append(id, 16);
  }
  EXPECT_EQ(store.size(), 2u);
  IoStats stats;
  EXPECT_EQ(store.Read(0, &stats).size(), 4u);
  EXPECT_EQ(store.Read(1, &stats).size(), 1u);
}

TEST(PageStoreTest, ReadChargesIo) {
  PageStore store(64);
  store.Append(0, 16);
  IoStats stats;
  store.Read(0, &stats);
  store.Read(0, &stats);
  EXPECT_EQ(stats.pages_read, 2u);
  EXPECT_EQ(stats.bytes_read, 128u);
  store.Read(0, nullptr);  // Null stats must be accepted.
  EXPECT_EQ(stats.pages_read, 2u);
}

TEST(PageStoreTest, SealForcesFreshPage) {
  PageStore store(64);
  store.Append(0, 16);
  store.SealCurrentPage();
  PageId page = store.Append(1, 16);
  EXPECT_EQ(page, 1u);
  EXPECT_EQ(store.size(), 2u);
}

TEST(PageStoreTest, RejectsOversizedTransaction) {
  PageStore store(64);
  EXPECT_DEATH(store.Append(0, 65), "larger than a page");
}

// --- BufferPool ---

TEST(BufferPoolTest, HitsAvoidPhysicalReads) {
  PageStore store(64);
  store.Append(0, 16);
  store.SealCurrentPage();
  store.Append(1, 16);
  BufferPool pool(&store, 2);
  IoStats stats;
  pool.Read(0, &stats);
  pool.Read(0, &stats);
  pool.Read(1, &stats);
  pool.Read(0, &stats);
  EXPECT_EQ(stats.pages_read, 2u);    // Two cold misses.
  EXPECT_EQ(stats.pages_cached, 2u);  // Two hits.
  EXPECT_EQ(pool.hits(), 2u);
  EXPECT_EQ(pool.misses(), 2u);
}

TEST(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  PageStore store(64);
  for (TransactionId id = 0; id < 3; ++id) {
    store.Append(id, 16);
    store.SealCurrentPage();
  }
  BufferPool pool(&store, 2);
  IoStats stats;
  pool.Read(0, &stats);  // Miss, cache {0}.
  pool.Read(1, &stats);  // Miss, cache {0,1}.
  pool.Read(0, &stats);  // Hit, 0 is now MRU.
  pool.Read(2, &stats);  // Miss, evicts 1.
  pool.Read(1, &stats);  // Miss again (was evicted).
  pool.Read(0, &stats);  // Page 0 evicted by the reload of 1? LRU: after
                         // reading 2, cache {0,2}; reading 1 evicts 0.
  EXPECT_EQ(stats.pages_read, 5u);
  EXPECT_EQ(stats.pages_cached, 1u);
  pool.CheckInvariants();
}

TEST(BufferPoolTest, ZeroCapacityDisablesCaching) {
  PageStore store(64);
  store.Append(0, 16);
  BufferPool pool(&store, 0);
  IoStats stats;
  pool.Read(0, &stats);
  pool.Read(0, &stats);
  EXPECT_EQ(stats.pages_read, 2u);
  EXPECT_EQ(stats.pages_cached, 0u);
  pool.CheckInvariants();
}

TEST(BufferPoolTest, ClearDropsCache) {
  PageStore store(64);
  store.Append(0, 16);
  BufferPool pool(&store, 4);
  IoStats stats;
  pool.Read(0, &stats);
  pool.Clear();
  pool.Read(0, &stats);
  EXPECT_EQ(stats.pages_read, 2u);
}

// --- TransactionStore ---

TransactionDatabase MakeDatabase(size_t count, size_t items_per_transaction) {
  TransactionDatabase db(1000);
  for (size_t t = 0; t < count; ++t) {
    std::vector<ItemId> items;
    for (size_t i = 0; i < items_per_transaction; ++i) {
      items.push_back(static_cast<ItemId>((t * items_per_transaction + i) %
                                          1000));
    }
    db.Add(Transaction(std::move(items)));
  }
  return db;
}

TEST(TransactionStoreTest, BucketedLayoutGroupsByBucket) {
  TransactionDatabase db = MakeDatabase(10, 3);
  std::vector<uint32_t> bucket_of = {0, 1, 0, 1, 0, 1, 0, 1, 0, 1};
  TransactionStore store =
      TransactionStore::BuildBucketed(db, bucket_of, 2, 4096);

  IoStats stats;
  auto bucket0 = ToVector(store.BucketTransactions(0, &stats));
  auto bucket1 = ToVector(store.BucketTransactions(1, &stats));
  EXPECT_EQ(bucket0, (std::vector<TransactionId>{0, 2, 4, 6, 8}));
  EXPECT_EQ(bucket1, (std::vector<TransactionId>{1, 3, 5, 7, 9}));
  EXPECT_EQ(stats.transactions_fetched, 10u);
  EXPECT_EQ(stats.pages_read, 2u);  // Each bucket fits one page.
}

TEST(TransactionStoreTest, BucketsNeverSharePages) {
  TransactionDatabase db = MakeDatabase(100, 5);
  std::vector<uint32_t> bucket_of(100);
  for (size_t i = 0; i < 100; ++i) bucket_of[i] = static_cast<uint32_t>(i % 7);
  TransactionStore store =
      TransactionStore::BuildBucketed(db, bucket_of, 7, 128);

  std::set<PageId> seen;
  for (uint32_t b = 0; b < 7; ++b) {
    for (PageId page : store.PagesOfBucket(b)) {
      EXPECT_TRUE(seen.insert(page).second)
          << "page " << page << " appears in two buckets";
    }
  }
}

TEST(TransactionStoreTest, EmptyBucketsAllowed) {
  TransactionDatabase db = MakeDatabase(4, 3);
  std::vector<uint32_t> bucket_of = {2, 2, 2, 2};
  TransactionStore store =
      TransactionStore::BuildBucketed(db, bucket_of, 5, 4096);
  IoStats stats;
  EXPECT_TRUE(store.BucketTransactions(0, &stats).empty());
  EXPECT_EQ(store.BucketTransactions(2, &stats).size(), 4u);
  EXPECT_EQ(stats.pages_read, 1u);  // Empty bucket costs nothing.
}

TEST(TransactionStoreTest, SequentialLayoutPreservesOrder) {
  TransactionDatabase db = MakeDatabase(50, 4);
  TransactionStore store = TransactionStore::BuildSequential(db, 256);
  IoStats stats;
  auto all = ToVector(store.BucketTransactions(0, &stats));
  ASSERT_EQ(all.size(), 50u);
  for (TransactionId id = 0; id < 50; ++id) EXPECT_EQ(all[id], id);
}

TEST(TransactionStoreTest, FetchTransactionChargesPointRead) {
  TransactionDatabase db = MakeDatabase(50, 4);
  TransactionStore store = TransactionStore::BuildSequential(db, 256);
  IoStats stats;
  store.FetchTransaction(10, nullptr, &stats);
  store.FetchTransaction(11, nullptr, &stats);
  EXPECT_EQ(stats.transactions_fetched, 2u);
  EXPECT_EQ(stats.pages_read, 2u);

  // Through a buffer pool, adjacent fetches on one page hit the cache.
  BufferPool pool(&store.page_store(), 8);
  IoStats cached;
  store.FetchTransaction(10, &pool, &cached);
  store.FetchTransaction(11, &pool, &cached);
  EXPECT_EQ(cached.transactions_fetched, 2u);
  EXPECT_EQ(cached.pages_read + cached.pages_cached, 2u);
  EXPECT_GE(cached.pages_cached, 1u);  // Same page: second is a hit.
}

TEST(TransactionStoreTest, PageOfTransactionConsistentWithBuckets) {
  TransactionDatabase db = MakeDatabase(30, 4);
  std::vector<uint32_t> bucket_of(30);
  for (size_t i = 0; i < 30; ++i) bucket_of[i] = static_cast<uint32_t>(i % 3);
  TransactionStore store =
      TransactionStore::BuildBucketed(db, bucket_of, 3, 128);
  for (TransactionId id = 0; id < 30; ++id) {
    PageId page = store.PageOfTransaction(id);
    const std::span<const PageId> pages = store.PagesOfBucket(bucket_of[id]);
    EXPECT_NE(std::find(pages.begin(), pages.end(), page), pages.end());
  }
}

// --- Contiguous bucket lists ---

/// Every bucket's slice is its pages' ids, page after page, and reading it
/// charges IoStats and the mbi.pagestore.pages_read counter exactly one page
/// read per page in PagesOfBucket, as the page-by-page walk did.
void ExpectBucketsReadAsTheirPages(TransactionStore* store) {
  MetricsRegistry registry;
  store->set_metrics(&registry);
  const Counter* counter = registry.FindCounter("mbi.pagestore.pages_read");
  ASSERT_NE(counter, nullptr);
  const PageStore& pages = store->page_store();
  uint64_t ids_seen = 0;
  for (uint32_t b = 0; b < store->num_buckets(); ++b) {
    std::vector<TransactionId> walked;
    for (PageId page : store->PagesOfBucket(b)) {
      const std::span<const TransactionId> on_page = pages.IdsOnPage(page);
      walked.insert(walked.end(), on_page.begin(), on_page.end());
    }
    const uint64_t counted_before = counter->value();
    IoStats stats;
    const std::span<const TransactionId> ids =
        store->BucketTransactions(b, &stats);
    EXPECT_EQ(ToVector(ids), walked) << "bucket " << b;
    const uint64_t num_pages = store->PagesOfBucket(b).size();
    EXPECT_EQ(stats.pages_read, num_pages) << "bucket " << b;
    EXPECT_EQ(stats.bytes_read, num_pages * pages.page_size_bytes());
    EXPECT_EQ(stats.transactions_fetched, walked.size());
    EXPECT_EQ(stats.pages_cached, 0u);
    EXPECT_EQ(counter->value() - counted_before, num_pages);
    EXPECT_EQ(store->ExtentOfBucket(b).count, walked.size());
    EXPECT_EQ(store->ExtentOfBucket(b).pages, num_pages);
    // A null ledger is accepted and still feeds the counter.
    store->BucketTransactions(b, nullptr);
    EXPECT_EQ(counter->value() - counted_before, 2 * num_pages);
    ids_seen += walked.size();
  }
  EXPECT_EQ(ids_seen, store->num_transactions());
  store->set_metrics(nullptr);
}

TEST(ContiguousBucketTest, BucketedStoreReadsEachBucketAsItsPages) {
  TransactionDatabase db = MakeDatabase(200, 5);
  std::vector<uint32_t> bucket_of(200);
  for (size_t i = 0; i < 200; ++i) {
    bucket_of[i] = static_cast<uint32_t>((i * 7) % 11);
  }
  // 128-byte pages hold five 24-byte rows, so most buckets span pages; two
  // of the 13 buckets stay empty.
  TransactionStore store =
      TransactionStore::BuildBucketed(db, bucket_of, 13, 128);
  EXPECT_TRUE(store.PagesOfBucket(11).empty());
  EXPECT_GT(store.PagesOfBucket(0).size(), 1u);
  ExpectBucketsReadAsTheirPages(&store);
}

TEST(ContiguousBucketTest, SequentialStoreReadsItsOneBucketAsItsPages) {
  TransactionDatabase db = MakeDatabase(50, 4);
  TransactionStore store = TransactionStore::BuildSequential(db, 128);
  ASSERT_EQ(store.num_buckets(), 1u);
  EXPECT_EQ(store.PagesOfBucket(0).size(), store.page_store().size());
  ExpectBucketsReadAsTheirPages(&store);
}

/// Pages 0..3 holding {0, 1}, {2}, {3, 4}, {5}: a fresh page per row group.
PageStore MakeFourPages() {
  PageStore pages(64);
  const std::vector<std::vector<TransactionId>> groups = {
      {0, 1}, {2}, {3, 4}, {5}};
  for (const auto& group : groups) {
    for (TransactionId id : group) pages.Append(id, 16);
    pages.SealCurrentPage();
  }
  return pages;
}

TEST(ContiguousBucketTest, ReassembledStoreReadsEachBucketAsItsPages) {
  PageStore pages = MakeFourPages();
  ASSERT_EQ(pages.size(), 4u);
  TransactionStore store = TransactionStore::FromParts(
      std::move(pages), {{0, 1}, {2, 3}}, {0, 0, 1, 2, 2, 3});
  EXPECT_EQ(ToVector(store.BucketTransactions(0, nullptr)),
            (std::vector<TransactionId>{0, 1, 2}));
  EXPECT_EQ(ToVector(store.BucketTransactions(1, nullptr)),
            (std::vector<TransactionId>{3, 4, 5}));
  ExpectBucketsReadAsTheirPages(&store);
}

TEST(ContiguousBucketTest, NonConsecutiveBucketPagesAreReLaid) {
  // Bucket 0 owns pages 0 and 2, bucket 1 pages 3 and 1 (in that order), as
  // a table whose buckets grew onto later pages would: neither bucket's
  // pages sit next to each other in the page store.
  PageStore pages = MakeFourPages();
  std::vector<std::vector<TransactionId>> before;
  for (PageId page = 0; page < pages.size(); ++page) {
    before.push_back(ToVector(pages.IdsOnPage(page)));
  }
  TransactionStore store = TransactionStore::FromParts(
      std::move(pages), {{0, 2}, {3, 1}}, {0, 0, 1, 2, 2, 3});

  // Same pages with the same ids and byte accounting, same page map.
  const PageStore& relaid = store.page_store();
  ASSERT_EQ(relaid.size(), before.size());
  for (PageId page = 0; page < relaid.size(); ++page) {
    EXPECT_EQ(ToVector(relaid.IdsOnPage(page)), before[page]);
    EXPECT_EQ(relaid.pages()[page].used_bytes, 64u);
  }
  for (TransactionId id = 0; id < 6; ++id) {
    const std::span<const TransactionId> on_page =
        relaid.IdsOnPage(store.PageOfTransaction(id));
    EXPECT_NE(std::find(on_page.begin(), on_page.end(), id), on_page.end());
  }
  // Each bucket is one slice holding its pages' ids in list order, and
  // still costs one read per page.
  EXPECT_EQ(ToVector(store.BucketTransactions(0, nullptr)),
            (std::vector<TransactionId>{0, 1, 3, 4}));
  EXPECT_EQ(ToVector(store.BucketTransactions(1, nullptr)),
            (std::vector<TransactionId>{5, 2}));
  EXPECT_EQ(store.PagesOfBucket(1)[0], 3u);
  EXPECT_EQ(store.PagesOfBucket(1)[1], 1u);
  ExpectBucketsReadAsTheirPages(&store);
}

TEST(ContiguousBucketTest, PageBackingTwoBucketsIsRejected) {
  EXPECT_DEATH(TransactionStore::FromParts(MakeFourPages(), {{0, 1}, {1, 2}},
                                           {0, 0, 1, 2, 2, 3}),
               "backs two buckets");
}

TEST(ContiguousBucketTest, GroupPagesKeepsEveryPagesIds) {
  PageStore pages = MakeFourPages();
  const PageId order[] = {3, 0};
  pages.GroupPages(order);
  EXPECT_EQ(ToVector(pages.IdsOnPage(0)), (std::vector<TransactionId>{0, 1}));
  EXPECT_EQ(ToVector(pages.IdsOnPage(1)), (std::vector<TransactionId>{2}));
  EXPECT_EQ(ToVector(pages.IdsOnPage(2)), (std::vector<TransactionId>{3, 4}));
  EXPECT_EQ(ToVector(pages.IdsOnPage(3)), (std::vector<TransactionId>{5}));
  // Grouped first and in the given order; the rest follow in page order.
  EXPECT_EQ(pages.pages()[3].first, 0u);
  EXPECT_EQ(pages.pages()[0].first, 1u);
  EXPECT_EQ(pages.pages()[1].first, 3u);
  EXPECT_EQ(pages.pages()[2].first, 4u);
}

}  // namespace
}  // namespace mbi
