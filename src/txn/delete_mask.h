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
  explicit DeleteMask(size_t num_rows)
      : num_rows_(num_rows), words_((num_rows + 63) / 64) {}

  DeleteMask(const DeleteMask&) = delete;
  DeleteMask& operator=(const DeleteMask&) = delete;

  /// Marks `row` dead; false when it already was.
  bool Mark(size_t row) {
    const uint64_t bit = uint64_t{1} << (row % 64);
    const bool fresh =
        (words_[row / 64].fetch_or(bit, std::memory_order_relaxed) & bit) ==
        0;
    if (fresh) marked_.fetch_add(1, std::memory_order_relaxed);
    return fresh;
  }

  /// True when no row is live, in O(1). Read lock-free like the marks: a
  /// reader that sees the last mark's count treats every row as dead, which
  /// a delete racing the query is allowed to decide either way.
  bool AllMarked() const {
    return marked_.load(std::memory_order_relaxed) == num_rows_;
  }

  bool IsMarked(size_t row) const {
    return ((words_[row / 64].load(std::memory_order_relaxed) >> (row % 64)) &
            1u) != 0;
  }

  /// Number of marked rows, recounted from the bits.
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
  size_t num_rows_;
  std::vector<std::atomic<uint64_t>> words_;
  std::atomic<size_t> marked_{0};
};

}  // namespace mbi

#endif  // MBI_TXN_DELETE_MASK_H_
