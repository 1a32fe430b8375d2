#ifndef MBI_TXN_CANDIDATE_LAYOUT_H_
#define MBI_TXN_CANDIDATE_LAYOUT_H_

#include <cstddef>
#include <cstdint>

#include "kernel/blocked_layout.h"
#include "txn/database.h"

namespace mbi {

struct CandidateLayoutConfig {
  /// Upper bound on the dense (frequent-item) band width in bits; rounded
  /// down to a multiple of 64. Items beyond the `max_dense_bits` most
  /// frequent take the sparse-probe tail path. The default covers the whole
  /// universe for the datasets in bench/ (universe 1000), so the tail only
  /// activates on genuinely wide universes.
  uint32_t max_dense_bits = 1024;
};

/// Database-wide blocked candidate bitmap (kernel/blocked_layout.h) keyed by
/// TransactionId: row i is transaction i's dense frequent-item bits, tail i
/// its infrequent items. Immutable: whoever binds a layout checks once that
/// it covers every row it will be asked for (BranchAndBoundEngine at
/// construction, SequentialScanner per scan, since its database may grow).
class CandidateLayout {
 public:
  CandidateLayout() = default;

  static CandidateLayout Build(const TransactionDatabase& database,
                               const CandidateLayoutConfig& config = {});

  /// Number of transactions covered (ids [0, num_rows) are valid rows).
  size_t num_rows() const { return blocked_.num_rows(); }
  uint32_t universe_size() const { return universe_size_; }
  const kernel::BlockedLayout& blocked() const { return blocked_; }

 private:
  kernel::BlockedLayout blocked_;
  uint32_t universe_size_ = 0;
};

}  // namespace mbi

#endif  // MBI_TXN_CANDIDATE_LAYOUT_H_
