// MBI_HOT: the query hot-path annotation.
//
// A function marked MBI_HOT is part of the steady-state-zero-allocation
// query path (DESIGN.md §6, §10). The contract:
//
//   * It may GROW caller-owned reusable buffers (QueryContext members,
//     caller scratch vectors) — growth amortizes to zero once the context
//     is warm, and the dynamic gate (util/alloc_guard.h) verifies exactly
//     that: after a warm-up query, repeat queries perform zero heap
//     allocations.
//   * It may NOT allocate per call: no new-expressions, no
//     make_unique/make_shared, no malloc, no std::to_string, and no local
//     owning containers (a local std::vector allocates every call the
//     moment it holds anything).
//
// Enforcement is two-sided and cross-checking:
//   * statically, tools/mbi_lint.py rule `no-unbounded-container-in-hot`
//     scans MBI_HOT function bodies (including lambdas defined inside
//     them), and the interprocedural hot-path check in tools/analyze/
//     follows their calls;
//   * dynamically, ScopedAllocationBan in query_context_test asserts the
//     warm steady state allocates nothing at all — catching allocations
//     the linter can't see (inside callees, inside libstdc++).
//
// The macro itself expands to the `hot` attribute so the annotation also
// feeds the optimizer (block placement / inlining heuristics); the lint
// engine keys on the literal token `MBI_HOT`, so the annotation must not
// be spelled through another macro.

#ifndef MBI_UTIL_HOT_PATH_H_
#define MBI_UTIL_HOT_PATH_H_

#if defined(__GNUC__) || defined(__clang__)
#define MBI_HOT __attribute__((hot))
#else
#define MBI_HOT
#endif

#endif  // MBI_UTIL_HOT_PATH_H_
