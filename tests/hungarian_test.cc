#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/hungarian.h"
#include "util/rng.h"

namespace aujoin {
namespace {

TEST(HungarianTest, EmptyMatrix) {
  EXPECT_DOUBLE_EQ(MaxWeightBipartiteMatching({}), 0.0);
}

TEST(HungarianTest, SingleCell) {
  EXPECT_DOUBLE_EQ(MaxWeightBipartiteMatching({{0.7}}), 0.7);
}

TEST(HungarianTest, PicksBestOfTwo) {
  // Diagonal 1+1 beats anti-diagonal 0.9+0.9? No: 1.8 < 2.0, diagonal wins.
  std::vector<std::vector<double>> w{{1.0, 0.9}, {0.9, 1.0}};
  EXPECT_DOUBLE_EQ(MaxWeightBipartiteMatching(w), 2.0);
}

TEST(HungarianTest, AntiDiagonalWhenBetter) {
  std::vector<std::vector<double>> w{{0.1, 1.0}, {1.0, 0.1}};
  EXPECT_DOUBLE_EQ(MaxWeightBipartiteMatching(w), 2.0);
}

TEST(HungarianTest, GreedyIsSuboptimalHere) {
  // Greedy would take 0.9 then be stuck with 0.0; optimal is 0.8 + 0.7.
  std::vector<std::vector<double>> w{{0.9, 0.8}, {0.7, 0.0}};
  EXPECT_NEAR(MaxWeightBipartiteMatching(w), 1.5, 1e-12);
}

TEST(HungarianTest, RectangularWide) {
  std::vector<std::vector<double>> w{{0.2, 0.9, 0.4}};
  EXPECT_DOUBLE_EQ(MaxWeightBipartiteMatching(w), 0.9);
}

TEST(HungarianTest, RectangularTall) {
  std::vector<std::vector<double>> w{{0.2}, {0.9}, {0.4}};
  EXPECT_DOUBLE_EQ(MaxWeightBipartiteMatching(w), 0.9);
}

TEST(HungarianTest, PaperExample3Numerator) {
  // Partition (i) of Example 3: segments {coffee shop, latte, Helsingki}
  // vs {espresso, cafe, Helsinki} with msim matrix rows/cols in that
  // order; the optimum picks 1 + 0.8 + 0.875 = 2.675.
  std::vector<std::vector<double>> w{
      {0.0, 1.0, 0.0}, {0.8, 0.0, 0.0}, {0.0, 0.0, 0.875}};
  EXPECT_NEAR(MaxWeightBipartiteMatching(w), 2.675, 1e-12);
}

TEST(HungarianTest, AssignmentReported) {
  std::vector<int> assignment;
  std::vector<std::vector<double>> w{{0.1, 1.0}, {1.0, 0.1}};
  MaxWeightBipartiteMatching(w, &assignment);
  ASSERT_EQ(assignment.size(), 2u);
  EXPECT_EQ(assignment[0], 1);
  EXPECT_EQ(assignment[1], 0);
}

TEST(HungarianTest, ZeroWeightsLeftUnmatched) {
  std::vector<int> assignment;
  std::vector<std::vector<double>> w{{0.0, 0.0}, {0.0, 0.5}};
  EXPECT_DOUBLE_EQ(MaxWeightBipartiteMatching(w, &assignment), 0.5);
  EXPECT_EQ(assignment[0], -1);
  EXPECT_EQ(assignment[1], 1);
}

// Brute-force reference: all permutations over the smaller side.
double BruteForce(std::vector<std::vector<double>> w) {
  // Transpose so rows <= cols; permuting the columns then covers every
  // injection of rows into columns.
  if (w.size() > w[0].size()) {
    std::vector<std::vector<double>> t(w[0].size(),
                                       std::vector<double>(w.size()));
    for (size_t i = 0; i < w.size(); ++i) {
      for (size_t j = 0; j < w[i].size(); ++j) t[j][i] = w[i][j];
    }
    w = std::move(t);
  }
  size_t rows = w.size(), cols = w[0].size();
  std::vector<int> perm(cols);
  for (size_t j = 0; j < cols; ++j) perm[j] = static_cast<int>(j);
  double best = 0.0;
  do {
    double sum = 0.0;
    for (size_t i = 0; i < rows && i < cols; ++i) {
      sum += w[i][perm[i]];
    }
    best = std::max(best, sum);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

class HungarianRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(HungarianRandomTest, MatchesBruteForce) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    size_t rows = static_cast<size_t>(rng.Uniform(1, 5));
    size_t cols = static_cast<size_t>(rng.Uniform(1, 5));
    std::vector<std::vector<double>> w(rows, std::vector<double>(cols));
    for (auto& row : w) {
      for (auto& cell : row) {
        cell = rng.UniformReal();
      }
    }
    EXPECT_NEAR(MaxWeightBipartiteMatching(w), BruteForce(w), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HungarianRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(HungarianTest, ScratchReuseAcrossShapesMatchesBruteForce) {
  // The solver's arrays are reused across calls on one thread: a large
  // call followed by smaller and rectangular ones (and back) must not
  // see stale potentials, matches or path pointers.
  Rng rng(17);
  auto random_matrix = [&](size_t rows, size_t cols) {
    std::vector<std::vector<double>> w(rows, std::vector<double>(cols));
    for (auto& row : w) {
      for (auto& cell : row) cell = rng.UniformReal();
    }
    return w;
  };
  const std::vector<std::vector<std::vector<double>>> sequence{
      random_matrix(7, 7),
      random_matrix(1, 2),
      random_matrix(6, 8),
      std::vector<std::vector<double>>(5, std::vector<double>(5, 0.0)),
      random_matrix(2, 1),
      random_matrix(8, 5),
      std::vector<std::vector<double>>(3, std::vector<double>(7, 0.0)),
      random_matrix(1, 1),
      random_matrix(7, 6),
  };
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& w : sequence) {
      EXPECT_NEAR(MaxWeightBipartiteMatching(w), BruteForce(w), 1e-9)
          << w.size() << "x" << w[0].size();
      // The flat overload shares the scratch and must agree exactly.
      std::vector<double> flat;
      for (const auto& row : w) flat.insert(flat.end(), row.begin(), row.end());
      EXPECT_EQ(MaxWeightBipartiteMatching(flat.data(), w.size(), w[0].size()),
                MaxWeightBipartiteMatching(w));
    }
  }
}

}  // namespace
}  // namespace aujoin
