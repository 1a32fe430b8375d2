#ifndef MBI_DYN_MUTABLE_BUFFER_H_
#define MBI_DYN_MUTABLE_BUFFER_H_

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "txn/delete_mask.h"
#include "txn/transaction.h"
#include "util/macros.h"

namespace mbi {

/// One row absorbed by the write path before it reaches a static component:
/// the global id the row keeps for life, plus its items.
struct BufferedRow {
  TransactionId gid = kInvalidTransactionId;
  Transaction txn;
};

/// The Bentley–Saxe write buffer: a fixed-capacity append-only array of
/// rows, filled by the (externally serialized) write path and scanned
/// exactly by concurrent readers.
///
/// Concurrency contract — single writer, many readers, no locks on the read
/// side:
///
///  * `rows_` is sized to `capacity` at construction and NEVER reallocates,
///    so a reader's pointer into it stays valid for the buffer's lifetime.
///  * The writer fills slot `n` completely, then publishes it with
///    `size_.store(n + 1, release)`. Readers `acquire`-load `size()` once
///    and scan only that prefix: every row below the loaded size is fully
///    constructed (release/acquire pairing), rows at or above it are simply
///    not visible yet. There is no tearing window and nothing for TSan to
///    flag.
///  * Writers are serialized by the owning DynamicIndex's mutex; this class
///    does not defend against two concurrent Append calls.
///  * Deletes mark a published row in place (DeleteMask: atomic bits, see
///    txn/delete_mask.h); the scan skips marked rows and the spill drops
///    them.
///
/// A full buffer is never reset in place — DynamicIndex spills it into a
/// static component and swaps in a fresh buffer, while readers holding the
/// old snapshot keep scanning the (now immutable) old buffer.
class MutableBuffer {
 public:
  explicit MutableBuffer(size_t capacity)
      : rows_(capacity), deleted_(capacity) {
    MBI_CHECK(capacity >= 1);
  }

  MutableBuffer(const MutableBuffer&) = delete;
  MutableBuffer& operator=(const MutableBuffer&) = delete;

  /// Appends a row. Returns false (and stores nothing) when full — the
  /// caller spills and retries against the fresh buffer.
  bool Append(TransactionId gid, Transaction txn) {
    const size_t n = size_.load(std::memory_order_relaxed);  // single writer
    if (n >= rows_.size()) return false;
    rows_[n].gid = gid;
    rows_[n].txn = std::move(txn);
    size_.store(n + 1, std::memory_order_release);
    return true;
  }

  /// Published row count. Readers scan rows [0, size()).
  size_t size() const { return size_.load(std::memory_order_acquire); }

  size_t capacity() const { return rows_.size(); }
  bool full() const { return size() >= rows_.size(); }

  /// Row `i`, which must be below a previously loaded size().
  const BufferedRow& row(size_t i) const { return rows_[i]; }

  /// Delete marks over rows [0, size()); marked by the (serialized) writer.
  DeleteMask& deleted() { return deleted_; }
  const DeleteMask& deleted() const { return deleted_; }

 private:
  std::vector<BufferedRow> rows_;
  DeleteMask deleted_;
  std::atomic<size_t> size_{0};
};

}  // namespace mbi

#endif  // MBI_DYN_MUTABLE_BUFFER_H_
