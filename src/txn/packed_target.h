#ifndef MBI_TXN_PACKED_TARGET_H_
#define MBI_TXN_PACKED_TARGET_H_

#include <cstddef>
#include <cstdint>

#include "kernel/aligned_buffer.h"
#include "txn/candidate_layout.h"
#include "txn/transaction.h"
#include "util/bitset.h"
#include "util/hot_path.h"

namespace mbi {

/// Word-packed representation of a query target for the candidate-evaluation
/// hot path.
///
/// A similarity query evaluates one fixed target against many candidate
/// transactions. The merge-scan `MatchAndHamming` walks both sorted item
/// vectors (O(|target| + |candidate|) with a data-dependent branch per step);
/// packing the *target* once into a dense bitmap over the item universe turns
/// each candidate evaluation into a sparse probe: every candidate item costs
/// one word load, shift, and mask (O(|candidate|), branch-free). The Hamming
/// distance then falls out of the match count via
///
///     y = (|target| - x) + (|candidate| - x)
///
/// because both sides are sets. All quantities are exact integers, so the
/// result is bit-identical to the merge scan — the equivalence is verified
/// exhaustively in transaction_test.cc, and the merge scan remains the
/// reference implementation.
///
/// Two candidate-side forms coexist:
///
///   * the per-candidate sparse probe above (`MatchAndHamming`), used where
///     rows have no blocked layout (the dyn buffer scan and the layout-less
///     SequentialScanner oracle) — candidates stay in their sparse
///     sorted-vector form;
///   * the batch form (`MatchAndHammingBatch` / `MatchAndHammingRows`),
///     which runs the runtime-dispatched AND+popcount SIMD kernel
///     (kernel/dispatch.h) over a prebuilt `CandidateLayout`'s dense
///     frequent-item rows and finishes each candidate's infrequent tail
///     with the same sparse probe. Also bit-identical — all integer — and
///     proven so in kernel_test.cc across every ISA.
///
/// `Assign` reuses all allocations across queries, so a PackedTarget held in
/// a reusable QueryContext allocates nothing on the steady state.
class PackedTarget {
 public:
  PackedTarget() = default;

  /// Binds the target: (re)sizes the bitmap to `universe_size` bits, clears
  /// it, and sets the target's item bits. Items must be < universe_size.
  /// Reallocates only when the universe size changes. Drops any previously
  /// bound layout (probe-only form).
  MBI_HOT void Assign(const Transaction& target, size_t universe_size);

  /// Batch-capable form: additionally packs the target's frequent-item bits
  /// into a 64-byte-aligned dense row shaped like `layout`'s rows, enabling
  /// the Batch/Rows kernels below for candidate ids the layout covers.
  /// `layout` must outlive this binding. A null layout degrades to the
  /// two-argument form.
  MBI_HOT void Assign(const Transaction& target, size_t universe_size,
                      const CandidateLayout* layout);

  /// |target| of the bound target.
  size_t target_size() const { return target_size_; }

  /// True once Assign has been called (bitmap sized to some universe).
  bool bound() const { return bound_; }

  /// True when the batch kernels below may be used (layout-bound Assign).
  bool has_layout() const { return layout_ != nullptr; }
  const CandidateLayout* layout() const { return layout_; }

  /// Match count x = |target ∩ candidate| and Hamming distance
  /// y = |target △ candidate|, bit-identical to
  /// mbi::MatchAndHamming(target, candidate, ...).
  MBI_HOT void MatchAndHamming(const Transaction& candidate, size_t* match,
                               size_t* hamming) const {
    size_t x = 0;
    for (ItemId item : candidate.items()) {
      x += bits_.GetUnchecked(item) ? size_t{1} : size_t{0};
    }
    *match = x;
    *hamming = (target_size_ - x) + (candidate.size() - x);
  }

  /// Gather-form batch: match/Hamming against layout rows `ids[0..count)`.
  /// Every id must be < layout()->num_rows(). Requires has_layout().
  MBI_HOT void MatchAndHammingBatch(const TransactionId* ids, size_t count,
                                    uint32_t* match_out,
                                    uint32_t* hamming_out) const;

  /// Streaming-form batch: rows `first_row .. first_row+count`, in order.
  /// Requires has_layout().
  MBI_HOT void MatchAndHammingRows(TransactionId first_row, size_t count,
                                   uint32_t* match_out,
                                   uint32_t* hamming_out) const;

 private:
  /// Adds each row's sparse-tail matches to the dense kernel counts and
  /// derives Hamming. `row_of(i)` maps batch position to layout row.
  template <typename RowOf>
  MBI_HOT void FinishBatch(RowOf row_of, size_t count, uint32_t* match_out,
                           uint32_t* hamming_out) const;

  Bitset bits_;
  kernel::AlignedWordBuffer target_row_;
  const CandidateLayout* layout_ = nullptr;
  size_t target_size_ = 0;
  bool bound_ = false;
};

}  // namespace mbi

#endif  // MBI_TXN_PACKED_TARGET_H_
