#ifndef MBI_TESTS_REFERENCE_KNN_H_
#define MBI_TESTS_REFERENCE_KNN_H_

#include <cstddef>
#include <vector>

#include "core/branch_and_bound.h"
#include "core/signature_table.h"
#include "core/similarity.h"
#include "txn/database.h"
#include "txn/transaction.h"

namespace mbi {

/// Frozen pre-overhaul k-NN search over a signature table (paper §4): a full
/// std::sort of all occupied entries, fresh allocations per query and the
/// merge-scan MatchAndHamming per candidate. It is the semantic oracle that
/// oracle_equivalence_test, kernel_test and query_context_test pin
/// BranchAndBoundEngine against bit for bit. It ignores SearchOptions::budget
/// and delete marks. Do not optimize.
NearestNeighborResult FindKNearestReference(const TransactionDatabase& database,
                                            const SignatureTable& table,
                                            const Transaction& target,
                                            const SimilarityFamily& family,
                                            size_t k,
                                            const SearchOptions& options = {});

/// Multi-target form (paper §4.3): maximizes the average similarity to
/// `targets`.
NearestNeighborResult FindKNearestMultiTargetReference(
    const TransactionDatabase& database, const SignatureTable& table,
    const std::vector<Transaction>& targets, const SimilarityFamily& family,
    size_t k, const SearchOptions& options = {});

}  // namespace mbi

#endif  // MBI_TESTS_REFERENCE_KNN_H_
