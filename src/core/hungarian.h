#ifndef AUJOIN_CORE_HUNGARIAN_H_
#define AUJOIN_CORE_HUNGARIAN_H_

#include <cstddef>
#include <vector>

namespace aujoin {

/// Maximum-weight bipartite matching (assignment) for a rectangular
/// non-negative weight matrix `w` (w[i][j] = weight of matching left i with
/// right j). Unmatched vertices are allowed and contribute 0, so with
/// non-negative weights the result equals the classic Hungarian optimum on
/// the zero-padded square matrix. Runs in O(n^3) for n = max(rows, cols).
///
/// This solves the numerator of Eq. (6): max sum of I_ij * msim(PS_i, PT_j)
/// with each segment matched at most once.
///
/// If `assignment` is non-null it receives, per left row, the matched right
/// column or -1 (only pairs with positive weight are reported as matched).
double MaxWeightBipartiteMatching(const std::vector<std::vector<double>>& w,
                                  std::vector<int>* assignment = nullptr);

/// The same matching over a flat row-major matrix (`w[i * cols + j]`) —
/// the allocation-free form the verify hot path feeds from a reused
/// scratch buffer instead of a fresh vector-of-vectors per candidate
/// pair. The solver's potentials and per-row arrays live in grow-only
/// thread_local scratch, so steady-state calls allocate nothing.
/// Identical results to the 2-D overload.
double MaxWeightBipartiteMatching(const double* w, size_t rows, size_t cols,
                                  std::vector<int>* assignment = nullptr);

}  // namespace aujoin

#endif  // AUJOIN_CORE_HUNGARIAN_H_
