#include "core/entry_order.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/macros.h"

namespace mbi {
namespace {

/// Starting hash-table size (a power of two). A query's keys hold a few
/// hundred distinct values, so the table seldom grows, and clearing it per
/// call costs its own size rather than the key count.
constexpr size_t kInitialSlots = 1024;

/// Fibonacci hashing multiplier (2^64 / golden ratio): the top bits of
/// bits * kHashMultiplier spread the low-entropy bit patterns of small
/// doubles over the table.
constexpr uint64_t kHashMultiplier = 0x9E3779B97F4A7C15ull;

/// key_ids value of a key left out by the cutoff (distinct ids are < n).
constexpr uint32_t kLeftOut = std::numeric_limits<uint32_t>::max();

/// Keys that compare equal get one bit pattern: -0.0 becomes 0.0 and every
/// NaN one quiet NaN.
double Canonical(double key) {
  if (std::isnan(key)) return std::numeric_limits<double>::quiet_NaN();
  return key + 0.0;
}

/// Descending value with NaN last: a strict total order over canonical
/// distinct values.
bool RanksBefore(double a, double b) {
  return a > b || (std::isnan(b) && !std::isnan(a));
}

/// Linear probe over a table of mask + 1 slots (a power of two, 2^(64 -
/// shift)): the slot holding `bits`, or the empty slot where it belongs.
size_t FindSlot(const uint32_t* slots, const double* values, size_t mask,
                int shift, uint64_t bits) {
  size_t slot = static_cast<size_t>((bits * kHashMultiplier) >> shift);
  while (slots[slot] != 0 &&
         std::bit_cast<uint64_t>(values[slots[slot] - 1]) != bits) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

}  // namespace

MBI_HOT KeysLeftOut OrderByKeyDescending(const double* keys, size_t n,
                                         EntryOrderScratch* scratch,
                                         std::vector<uint32_t>* order,
                                         double cutoff) {
  MBI_CHECK(n < std::numeric_limits<uint32_t>::max());
  EntryOrderScratch& s = *scratch;
  // Capacity for the worst case (every key distinct, the table at twice n so
  // its load stays at most one half) is reserved by n alone, so a warm
  // scratch never allocates, while a call touches only what its keys use.
  s.slots.reserve(std::max(kInitialSlots, std::bit_ceil(2 * n)));
  s.values.reserve(n);
  s.starts.reserve(n);
  s.key_ids.resize(n);
  order->resize(n);

  // Pass 1: give every key the id of its distinct value and count each id,
  // or mark it left out. Nothing below outgrows the reserved capacity, so
  // the raw pointers stay valid across the table's growth and the appends.
  const bool cut = cutoff > -std::numeric_limits<double>::infinity();
  KeysLeftOut left_out;
  s.slots.assign(kInitialSlots, 0u);
  s.values.clear();
  s.starts.clear();
  uint32_t* const slots = s.slots.data();
  const double* const values = s.values.data();
  uint32_t* const starts = s.starts.data();
  size_t mask = kInitialSlots - 1;
  int shift = 64 - std::countr_zero(kInitialSlots);
  for (size_t i = 0; i < n; ++i) {
    if (cut && keys[i] <= cutoff) {
      ++left_out.count;
      left_out.max = std::max(left_out.max, keys[i]);
      s.key_ids[i] = kLeftOut;
      continue;
    }
    const double key = Canonical(keys[i]);
    const uint64_t bits = std::bit_cast<uint64_t>(key);
    size_t slot = FindSlot(slots, values, mask, shift, bits);
    if (slots[slot] == 0) {
      const size_t distinct = s.values.size();
      if (2 * (distinct + 1) > mask + 1) {
        // Double the table and re-insert the values seen so far.
        s.slots.assign(2 * (mask + 1), 0u);
        mask = 2 * mask + 1;
        --shift;
        for (uint32_t id = 0; id < distinct; ++id) {
          slots[FindSlot(slots, values, mask, shift,
                         std::bit_cast<uint64_t>(values[id]))] = id + 1;
        }
        slot = FindSlot(slots, values, mask, shift, bits);
      }
      s.values.push_back(key);
      s.starts.push_back(0);
      slots[slot] = static_cast<uint32_t>(distinct + 1);
    }
    const uint32_t id = slots[slot] - 1;
    s.key_ids[i] = id;
    ++starts[id];
  }

  // Pass 2: sort only the distinct values and turn the counts into each
  // rank's first output position. The output holds the ranked ids until the
  // scatter overwrites it.
  const size_t distinct = s.values.size();
  uint32_t* const ranked = order->data();
  std::iota(ranked, ranked + distinct, 0u);
  std::sort(ranked, ranked + distinct, [values](uint32_t a, uint32_t b) {
    return RanksBefore(values[a], values[b]);
  });
  uint32_t next = 0;
  for (size_t r = 0; r < distinct; ++r) {
    const uint32_t count = starts[ranked[r]];
    starts[ranked[r]] = next;
    next += count;
  }

  // Pass 3: scatter in ascending index, so equal keys keep index order.
  for (size_t i = 0; i < n; ++i) {
    const uint32_t id = s.key_ids[i];
    if (id != kLeftOut) (*order)[starts[id]++] = static_cast<uint32_t>(i);
  }
  order->resize(n - left_out.count);
  return left_out;
}

}  // namespace mbi
