#ifndef MBI_TXN_DELETE_MASK_H_
#define MBI_TXN_DELETE_MASK_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mbi {

/// Delete marks over one part's local rows (a dyn component or the write
/// buffer): one bit per row, set once by a delete and never cleared — a
/// marked row stays dead until a merge or spill drops it physically.
///
/// Writers are serialized externally (DynamicIndex's mutex); readers run
/// lock-free. The words are relaxed atomics: a query observes every mark
/// made before it took its snapshot (the snapshot mutex orders them) and
/// may or may not observe a mark racing it. Either way each row is read as
/// wholly live or wholly dead, so a racing delete can never corrupt an
/// answer — it only decides whether that one row is returned.
class DeleteMask {
 public:
  explicit DeleteMask(size_t num_rows) : words_((num_rows + 63) / 64) {}

  DeleteMask(const DeleteMask&) = delete;
  DeleteMask& operator=(const DeleteMask&) = delete;

  /// Marks `row` dead; false when it already was.
  bool Mark(size_t row) {
    const uint64_t bit = uint64_t{1} << (row % 64);
    return (words_[row / 64].fetch_or(bit, std::memory_order_relaxed) &
            bit) == 0;
  }

  bool IsMarked(size_t row) const {
    return ((words_[row / 64].load(std::memory_order_relaxed) >> (row % 64)) &
            1u) != 0;
  }

  /// Number of marked rows.
  size_t Count() const {
    size_t count = 0;
    for (const auto& word : words_) {
      count += static_cast<size_t>(
          std::popcount(word.load(std::memory_order_relaxed)));
    }
    return count;
  }

  /// Calls `fn(row)` for every marked row, ascending.
  template <typename Fn>
  void ForEachMarked(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t bits = words_[w].load(std::memory_order_relaxed);
           bits != 0; bits &= bits - 1) {
        fn(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
      }
    }
  }

 private:
  std::vector<std::atomic<uint64_t>> words_;
};

}  // namespace mbi

#endif  // MBI_TXN_DELETE_MASK_H_
