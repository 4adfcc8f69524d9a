#include "core/hungarian.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace aujoin {

namespace {

// The solver's auxiliary arrays, reused across calls on one thread: the
// verify hot path solves many tiny matrices per candidate pair, and
// fresh potentials / per-row minv and used arrays were an allocation
// per row of every call.
struct HungarianScratch {
  std::vector<double> u, v, minv;
  std::vector<size_t> p, way;
  std::vector<char> used;
};

}  // namespace

// Classic O(n^3) Hungarian algorithm with potentials, written for
// minimisation on a square cost matrix; we feed it costs = -weights on the
// zero-padded square and negate the result. Follows the e-maxx/JV
// formulation with 1-based auxiliary arrays.
double MaxWeightBipartiteMatching(const double* w, size_t rows, size_t cols,
                                  std::vector<int>* assignment) {
  if (assignment != nullptr) assignment->assign(rows, -1);
  if (rows == 0 || cols == 0) return 0.0;

  const size_t n = std::max(rows, cols);
  const double kInf = std::numeric_limits<double>::infinity();

  // cost[i][j] = -w for real cells, 0 for padding.
  auto cost = [&](size_t i, size_t j) -> double {
    if (i < rows && j < cols) return -w[i * cols + j];
    return 0.0;
  };

  thread_local HungarianScratch scratch;
  std::vector<double>& u = scratch.u;
  std::vector<double>& v = scratch.v;
  std::vector<double>& minv = scratch.minv;
  std::vector<size_t>& p = scratch.p;      // p[j] = row matched to column j
  std::vector<size_t>& way = scratch.way;  // alternating-path back-pointers
  std::vector<char>& used = scratch.used;
  u.assign(n + 1, 0.0);
  v.assign(n + 1, 0.0);
  p.assign(n + 1, 0);
  way.assign(n + 1, 0);
  minv.resize(n + 1);
  used.resize(n + 1);

  for (size_t i = 1; i <= n; ++i) {
    p[0] = i;
    size_t j0 = 0;
    std::fill(minv.begin(), minv.end(), kInf);
    std::fill(used.begin(), used.end(), 0);
    do {
      used[j0] = 1;
      size_t i0 = p[j0], j1 = 0;
      double delta = kInf;
      for (size_t j = 1; j <= n; ++j) {
        if (used[j]) continue;
        double cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (size_t j = 0; j <= n; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  double total = 0.0;
  for (size_t j = 1; j <= n; ++j) {
    size_t i = p[j];
    if (i >= 1 && i <= rows && j <= cols && w[(i - 1) * cols + (j - 1)] > 0.0) {
      total += w[(i - 1) * cols + (j - 1)];
      if (assignment != nullptr) {
        (*assignment)[i - 1] = static_cast<int>(j - 1);
      }
    }
  }
  return total;
}

double MaxWeightBipartiteMatching(const std::vector<std::vector<double>>& w,
                                  std::vector<int>* assignment) {
  const size_t rows = w.size();
  const size_t cols = rows == 0 ? 0 : w[0].size();
  if (rows == 0 || cols == 0) {
    if (assignment != nullptr) assignment->assign(rows, -1);
    return 0.0;
  }
  std::vector<double> flat(rows * cols);
  for (size_t i = 0; i < rows; ++i) {
    std::copy(w[i].begin(), w[i].end(), flat.begin() + i * cols);
  }
  return MaxWeightBipartiteMatching(flat.data(), rows, cols, assignment);
}

}  // namespace aujoin
