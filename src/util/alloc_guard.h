// Debug-build allocation interposer: the dynamic half of the MBI_HOT
// zero-steady-state-allocation contract (util/hot_path.h holds the static
// half; DESIGN.md §10 describes how they cross-check).
//
// In debug builds (NDEBUG undefined — which includes the sanitizer CI
// configurations, whose cache flags force -UNDEBUG) the library replaces
// the global operator new/delete with counting versions. While a
// ScopedAllocationBan is live on a thread, every allocation on that thread
// increments a violation counter instead of aborting — tests assert the
// counter's delta is zero, which keeps the mechanism safe even if some
// library internal allocates lazily. In release builds the replacement
// operators are not compiled at all: zero overhead, AllocGuardEnabled()
// returns false, and the ban is an inert token.
//
// The ban is a thread-local depth counter, so bans nest (reentrancy-safe)
// and never observe other threads' allocations — a worker pool allocating
// on its own threads does not trip a ban on the caller's thread.
//
// Usage (see tests/alloc_guard_test.cc, tests/query_context_test.cc):
//
//   engine.FindKNearest(q, family, k, options, &ctx, &result);  // warm-up
//   uint64_t before = AllocGuardViolations();
//   {
//     ScopedAllocationBan ban("steady-state FindKNearest");
//     engine.FindKNearest(q, family, k, options, &ctx, &result);
//   }
//   EXPECT_EQ(AllocGuardViolations(), before);
//
// All functions are defined out-of-line in alloc_guard.cc on purpose: the
// active/inert decision is baked into the mbi_util library's own NDEBUG
// setting, so a test compiled with different flags cannot end up with a
// mixed (ODR-violating) view of the guard.

#ifndef MBI_UTIL_ALLOC_GUARD_H_
#define MBI_UTIL_ALLOC_GUARD_H_

#include <cstdint>

namespace mbi {

/// True when the counting operator new/delete replacements are compiled in
/// (debug builds of mbi_util). When false, bans are inert and
/// AllocGuardViolations() is permanently zero.
bool AllocGuardEnabled();

/// Number of allocations observed on the CALLING thread while a ban was
/// live on it. Monotonic per thread; assert on deltas, not absolutes.
uint64_t AllocGuardViolations();

/// While alive, heap allocations on this thread count as violations.
/// Nestable; the ban lifts when the outermost instance is destroyed.
class ScopedAllocationBan {
 public:
  /// `what` names the banned region in debug logging; it must outlive the
  /// ban (string literals only). The constructor itself must not allocate.
  explicit ScopedAllocationBan(const char* what);
  ~ScopedAllocationBan();

  ScopedAllocationBan(const ScopedAllocationBan&) = delete;
  ScopedAllocationBan& operator=(const ScopedAllocationBan&) = delete;

 private:
  const char* what_;
};

}  // namespace mbi

#endif  // MBI_UTIL_ALLOC_GUARD_H_
