// OrderByKeyDescending (core/entry_order.h) against its specification:
// std::stable_sort of the indices by key descending. Each case is an
// adversarial key array for the counting sort — one rank for everything,
// infinities, signed zeros, more distinct keys than the hash table starts
// with, a single entry — and one scratch is reused across all of them, so a
// stale count or slot from an earlier call would surface as a mismatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/entry_order.h"
#include "util/alloc_guard.h"

namespace mbi {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<uint32_t> StableSortedByKeyDescending(
    const std::vector<double>& keys) {
  std::vector<uint32_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(
      order.begin(), order.end(),
      [&keys](uint32_t a, uint32_t b) { return keys[a] > keys[b]; });
  return order;
}

class EntryOrderTest : public ::testing::Test {
 protected:
  void ExpectStableOrder(const std::vector<double>& keys,
                         const std::string& label) {
    OrderByKeyDescending(keys.data(), keys.size(), &scratch_, &order_);
    EXPECT_EQ(order_, StableSortedByKeyDescending(keys)) << label;
  }

  EntryOrderScratch scratch_;
  std::vector<uint32_t> order_;
};

TEST_F(EntryOrderTest, AllKeysEqualKeepIndexOrder) {
  ExpectStableOrder(std::vector<double>(5000, 0.25), "all 0.25");
  ExpectStableOrder(std::vector<double>(300, kInf), "all +inf");
}

TEST_F(EntryOrderTest, InfinityMixedWithFiniteKeys) {
  std::vector<double> keys;
  for (int i = 0; i < 2000; ++i) {
    keys.push_back(i % 3 == 0 ? kInf : 1.0 / static_cast<double>(1 + i % 11));
  }
  ExpectStableOrder(keys, "+inf and 1/h");
  keys.push_back(-kInf);
  keys.insert(keys.begin(), -kInf);
  ExpectStableOrder(keys, "+inf, -inf and 1/h");
}

TEST_F(EntryOrderTest, SignedZerosShareOneRank) {
  std::vector<double> keys;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back(i % 2 == 0 ? 0.0 : -0.0);
    if (i % 7 == 0) keys.push_back(0.5);
    if (i % 13 == 0) keys.push_back(-0.5);
  }
  ExpectStableOrder(keys, "0.0 / -0.0 interleaved");
}

TEST_F(EntryOrderTest, MoreDistinctKeysThanTheTableStartsWith) {
  // Every key distinct, shuffled, well past the initial table size, then a
  // run where each of many values repeats so the table grows mid-pass
  // after ids already carry counts.
  std::mt19937_64 rng(17);
  std::vector<double> keys(20000);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<double>(i) / 7.0;
  }
  std::shuffle(keys.begin(), keys.end(), rng);
  ExpectStableOrder(keys, "20000 distinct");

  std::vector<double> repeated(30000);
  for (double& key : repeated) key = static_cast<double>(rng() % 6000) / 3.0;
  ExpectStableOrder(repeated, "6000 distinct, repeated");
}

TEST_F(EntryOrderTest, SingleAndNoEntries) {
  ExpectStableOrder({0.75}, "one entry");
  ExpectStableOrder({-0.0}, "one negative zero");
  ExpectStableOrder({}, "no entries");
}

TEST_F(EntryOrderTest, ReusedScratchMatchesAcrossShapes) {
  // Large, then small, then large again through one scratch, with the
  // bounded value sets the engine's keys have (f over small integers).
  std::mt19937_64 rng(3);
  for (size_t n : {12000u, 7u, 900u, 15000u, 1u, 4096u}) {
    std::vector<double> keys(n);
    for (double& key : keys) {
      const int match = static_cast<int>(rng() % 12);
      const int dist = static_cast<int>(rng() % 20);
      key = dist == 0 ? kInf
                      : static_cast<double>(match) / static_cast<double>(dist);
    }
    ExpectStableOrder(keys, "n=" + std::to_string(n));
  }
}

TEST_F(EntryOrderTest, WarmScratchDoesNotAllocateForMoreDistinctKeys) {
  // Warm on keys with two values, then order as many keys that are all
  // distinct: the table must grow within what the first call reserved.
  std::vector<double> few(20000);
  std::vector<double> all_distinct(few.size());
  for (size_t i = 0; i < few.size(); ++i) {
    few[i] = static_cast<double>(i % 2);
    all_distinct[i] = static_cast<double>(i) / 3.0;
  }
  ExpectStableOrder(few, "two values");
  const uint64_t before = AllocGuardViolations();
  {
    ScopedAllocationBan ban("warm entry-order scratch");
    OrderByKeyDescending(all_distinct.data(), all_distinct.size(), &scratch_,
                         &order_);
  }
  EXPECT_EQ(AllocGuardViolations(), before)
      << "AllocGuardEnabled()=" << AllocGuardEnabled();
  EXPECT_EQ(order_, StableSortedByKeyDescending(all_distinct));
}

TEST_F(EntryOrderTest, CutoffLeavesOutKeysAtOrBelowIt) {
  // The order with a cutoff is the full order with the keys at or below the
  // cutoff removed; they are counted and their largest reported.
  std::mt19937_64 rng(29);
  std::vector<double> keys(5000);
  for (size_t i = 0; i < keys.size(); ++i) {
    const int match = static_cast<int>(rng() % 9);
    const int dist = static_cast<int>(rng() % 12);
    keys[i] = dist == 0 ? kInf
                        : static_cast<double>(match) / static_cast<double>(dist);
    if (i % 97 == 0) keys[i] = -0.0;
    if (i % 211 == 0) keys[i] = -kInf;
  }
  const std::vector<uint32_t> full = StableSortedByKeyDescending(keys);
  for (double cutoff : {-1.0, 0.0, 0.25, 1.0, 8.0, kInf}) {
    std::vector<uint32_t> expected;
    KeysLeftOut expected_left_out;
    for (uint32_t i : full) {
      if (keys[i] > cutoff) {
        expected.push_back(i);
      } else {
        ++expected_left_out.count;
        expected_left_out.max = std::max(expected_left_out.max, keys[i]);
      }
    }
    const KeysLeftOut left_out = OrderByKeyDescending(
        keys.data(), keys.size(), &scratch_, &order_, cutoff);
    EXPECT_EQ(order_, expected) << "cutoff " << cutoff;
    EXPECT_EQ(left_out.count, expected_left_out.count) << "cutoff " << cutoff;
    EXPECT_EQ(left_out.max, expected_left_out.max) << "cutoff " << cutoff;
  }
  // The default cutoff (-inf) leaves nothing out, -inf keys included.
  const KeysLeftOut none =
      OrderByKeyDescending(keys.data(), keys.size(), &scratch_, &order_);
  EXPECT_EQ(none.count, 0u);
  EXPECT_EQ(none.max, -kInf);
  EXPECT_EQ(order_, full);
}

}  // namespace
}  // namespace mbi
