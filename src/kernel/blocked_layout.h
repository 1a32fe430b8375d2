#ifndef MBI_KERNEL_BLOCKED_LAYOUT_H_
#define MBI_KERNEL_BLOCKED_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "kernel/aligned_buffer.h"

// Blocked candidate bitmap layout with a frequent/infrequent item-band
// split ("Set Similarity Search for Skewed Data", PAPERS.md).
//
// Market-basket item frequencies are Zipfian: a small head of items
// appears in most transactions, a long tail almost never. A flat bitmap
// over the whole universe wastes bandwidth on tail words that are nearly
// always zero; a pure sparse representation gives up the AND+popcount
// kernel for the head. The band split takes both:
//
//   * the `dense_capacity` most frequent items get *slots* in a dense,
//     64-byte-aligned bitmap row per transaction — the SIMD match kernel
//     (kernel/kernels.h) runs over these rows;
//   * everything else lands in a per-row sorted tail list (CSR-style),
//     probed per item against the target's membership bitset.
//
// When the universe fits within the capacity, every item is dense and the
// tail lists are empty — the common case for the datasets in bench/.

namespace mbi::kernel {

/// Maps item ids to dense-band slots. Built once per database snapshot.
class ItemBandMap {
 public:
  /// Slot value for items outside the dense band.
  static constexpr uint32_t kNotDense = 0xffffffffu;

  ItemBandMap() = default;

  /// Chooses the dense band: the most frequent `max_dense_bits` items
  /// (rounded down to a multiple of 64; ties broken toward smaller item
  /// ids), assigned slots in ascending item-id order so dense rows keep a
  /// stable shape across rebuilds. `item_frequency[i]` is the number of
  /// transactions containing item i; its size is the universe size.
  static ItemBandMap Build(const std::vector<uint64_t>& item_frequency,
                           uint32_t max_dense_bits);

  /// Dense slot for `item`, or kNotDense when it is in the sparse tail.
  uint32_t DenseSlot(uint32_t item) const { return slots_[item]; }

  uint32_t universe_size() const { return static_cast<uint32_t>(slots_.size()); }
  /// Width of a dense row in bits (multiple of 64; 0 = everything sparse).
  uint32_t dense_bits() const { return dense_bits_; }
  size_t dense_words() const { return dense_bits_ / 64; }
  /// Number of items actually assigned dense slots.
  uint32_t dense_items() const { return dense_items_; }

 private:
  std::vector<uint32_t> slots_;
  uint32_t dense_bits_ = 0;
  uint32_t dense_items_ = 0;
};

/// The per-transaction blocked bitmap + sparse-tail store the match kernel
/// scans. Immutable after Build().
class BlockedLayout {
 public:
  class Builder {
   public:
    /// `reserve_rows`/`reserve_items` are capacity hints.
    Builder(ItemBandMap band_map, size_t reserve_rows, size_t reserve_items);

    /// Appends the next transaction (row ids are assigned 0,1,2,... in call
    /// order). `items` need not be sorted; duplicates are caller error.
    void AddRow(const uint32_t* items, size_t count);

    BlockedLayout Build() &&;

   private:
    ItemBandMap band_map_;
    std::vector<uint32_t> flat_items_;
    std::vector<size_t> row_offsets_;  // size rows+1
  };

  BlockedLayout() = default;

  size_t num_rows() const { return num_rows_; }
  /// Dense words that carry data (<= stride_words()).
  size_t words_per_row() const { return band_map_.dense_words(); }
  /// Row pitch in words — words_per_row() rounded up to a multiple of 8 so
  /// every row starts 64-byte aligned.
  size_t stride_words() const { return stride_words_; }
  const uint64_t* rows() const { return bits_.data(); }
  const uint64_t* row(size_t i) const { return bits_.data() + i * stride_words_; }
  /// Total item count of row i (dense + tail) — the |C| term of Hamming.
  uint32_t row_size(size_t i) const { return row_sizes_[i]; }

  /// Sparse-tail items of row i, sorted ascending.
  std::pair<const uint32_t*, size_t> tail(size_t i) const {
    const size_t begin = tail_offsets_[i];
    return {tail_items_.data() + begin, tail_offsets_[i + 1] - begin};
  }

  const ItemBandMap& band_map() const { return band_map_; }

 private:
  friend class Builder;

  ItemBandMap band_map_;
  AlignedWordBuffer bits_;
  size_t num_rows_ = 0;
  size_t stride_words_ = 0;
  std::vector<uint32_t> row_sizes_;
  std::vector<size_t> tail_offsets_;  // size num_rows_+1
  std::vector<uint32_t> tail_items_;
};

}  // namespace mbi::kernel

#endif  // MBI_KERNEL_BLOCKED_LAYOUT_H_
