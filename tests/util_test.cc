#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/flags.h"
#include "util/hash.h"
#include "util/io.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"

namespace aujoin {
namespace {

TEST(ThreadPoolTest, SubmittedTasksAllRunAndWaitIdleBlocks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { ++counter; });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
  // The pool is reusable after draining.
  pool.Submit([&counter] { ++counter; });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 101);
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, PoolParallelForCoversTheRangeOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](size_t begin, size_t end, int worker) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, pool.num_workers());
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForRunsWhileUnrelatedTasksAreQueued) {
  ThreadPool pool(4);
  std::atomic<int> background{0};
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&background] { ++background; });
  }
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(100, [&](size_t begin, size_t end, int /*worker*/) {
    for (size_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 4950u);
  pool.WaitIdle();
  EXPECT_EQ(background.load(), 20);
}

TEST(ParallelForTest, FreeFunctionMatchesSerialExecution) {
  for (int threads : {1, 2, 4, 0}) {
    std::vector<int> hits(257, 0);
    std::mutex mutex;
    ParallelFor(hits.size(), threads,
                [&](size_t begin, size_t end, int /*worker*/) {
                  std::lock_guard<std::mutex> lock(mutex);
                  for (size_t i = begin; i < end; ++i) ++hits[i];
                });
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

// Runs `parallel_for` over n items whose cost is skewed (the first
// eighth costs ~100x the rest, as a run of long records does in
// verification) and checks the ParallelFor contract: every index in
// exactly one chunk, disjoint chunks, worker indexes in range, and no
// worker index in use on two threads at once.
template <typename ParallelForFn>
void CheckSkewedParallelFor(size_t n, int workers,
                            const ParallelForFn& parallel_for) {
  std::vector<std::atomic<int>> hits(n);
  std::vector<std::atomic<int>> in_use(workers);
  std::atomic<bool> shared_worker{false};
  std::atomic<bool> bad_worker{false};
  std::mutex mutex;
  std::vector<std::pair<size_t, size_t>> chunks;
  parallel_for([&](size_t begin, size_t end, int worker) {
    if (worker < 0 || worker >= workers) {
      bad_worker = true;
      return;
    }
    if (in_use[worker].fetch_add(1) != 0) shared_worker = true;
    for (size_t i = begin; i < end; ++i) {
      volatile uint64_t sink = 0;
      const int spins = i < n / 8 ? 100000 : 1000;
      for (int k = 0; k < spins; ++k) sink = sink + static_cast<uint64_t>(k);
      ++hits[i];
    }
    in_use[worker].fetch_sub(1);
    std::lock_guard<std::mutex> lock(mutex);
    chunks.emplace_back(begin, end);
  });
  EXPECT_FALSE(bad_worker.load());
  EXPECT_FALSE(shared_worker.load());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  std::sort(chunks.begin(), chunks.end());
  size_t next = 0;
  for (const auto& [begin, end] : chunks) {
    EXPECT_EQ(begin, next);  // disjoint and gap-free
    EXPECT_LT(begin, end);
    next = end;
  }
  EXPECT_EQ(next, n);
  // Dynamic scheduling: more chunks than workers.
  EXPECT_GT(chunks.size(), static_cast<size_t>(workers));
}

TEST(ThreadPoolTest, ParallelForUnderSkewedCostKeepsTheContract) {
  ThreadPool pool(4);
  CheckSkewedParallelFor(
      1000, pool.num_workers(),
      [&](const std::function<void(size_t, size_t, int)>& fn) {
        pool.ParallelFor(1000, fn);
      });
}

TEST(ParallelForTest, FreeFunctionUnderSkewedCostKeepsTheContract) {
  CheckSkewedParallelFor(
      777, 4, [&](const std::function<void(size_t, size_t, int)>& fn) {
        ParallelFor(777, 4, fn);
      });
}

TEST(ParallelForTest, ZeroItemsIsANoOp) {
  bool called = false;
  ParallelFor(0, 4, [&](size_t, size_t, int) { called = true; });
  EXPECT_FALSE(called);
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad theta");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad theta");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000000), b.Uniform(0, 1000000));
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ZipfSkewsTowardsZero) {
  Rng rng(5);
  int low = 0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    if (rng.Zipf(100, 1.0) < 10) ++low;
  }
  // A zipf-ish draw should hit the first decile far more than uniformly.
  EXPECT_GT(low, trials / 8);
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(OnlineMeanVarianceTest, MatchesClosedForm) {
  OnlineMeanVariance mv;
  std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double x : xs) mv.Add(x);
  EXPECT_EQ(mv.count(), xs.size());
  EXPECT_NEAR(mv.mean(), 5.0, 1e-12);
  // Unbiased sample variance of this classic data set is 32/7.
  EXPECT_NEAR(mv.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(mv.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(OnlineMeanVarianceTest, SingleObservationHasZeroVariance) {
  OnlineMeanVariance mv;
  mv.Add(3.5);
  EXPECT_DOUBLE_EQ(mv.mean(), 3.5);
  EXPECT_DOUBLE_EQ(mv.variance(), 0.0);
}

TEST(PercentileTest, Endpoints) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
}

TEST(PercentileTest, Interpolates) {
  std::vector<double> v{0, 10};
  EXPECT_NEAR(Percentile(v, 25), 2.5, 1e-12);
}

TEST(PercentileTest, EmptyInput) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(StudentTQuantileTest, MatchesPaperSetting) {
  // Fig. 8 caption: 70% two-sided confidence => t* = 1.036 (large df).
  EXPECT_NEAR(StudentTQuantile(0.70, 200), 1.039, 0.01);
}

TEST(StudentTQuantileTest, WiderForSmallDf) {
  double small_df = StudentTQuantile(0.95, 3);
  double large_df = StudentTQuantile(0.95, 1000);
  EXPECT_GT(small_df, large_df);
  EXPECT_NEAR(large_df, 1.96, 0.02);
  EXPECT_NEAR(small_df, 3.18, 0.12);
}

TEST(HashTest, SpanHashDiffersByContent) {
  uint32_t a[] = {1, 2, 3};
  uint32_t b[] = {1, 2, 4};
  EXPECT_NE(HashTokenSpan(a, 3), HashTokenSpan(b, 3));
  EXPECT_EQ(HashTokenSpan(a, 3), HashTokenSpan(a, 3));
}

TEST(FlagsTest, ParsesKeyValueAndBools) {
  const char* argv[] = {"prog", "--theta=0.85", "--tau=3", "--verbose",
                        "positional"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.GetDouble("theta", 0.5), 0.85);
  EXPECT_EQ(flags.GetInt("tau", 1), 3);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.GetBool("absent", false));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(FlagsTest, ParsesLists) {
  const char* argv[] = {"prog", "--theta=0.7,0.8,0.9", "--taus=1,2,4"};
  Flags flags(3, const_cast<char**>(argv));
  auto thetas = flags.GetDoubleList("theta", {});
  ASSERT_EQ(thetas.size(), 3u);
  EXPECT_DOUBLE_EQ(thetas[1], 0.8);
  auto taus = flags.GetIntList("taus", {});
  ASSERT_EQ(taus.size(), 3u);
  EXPECT_EQ(taus[2], 4);
}

TEST(IoTest, SplitAndJoinRoundTrip) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(JoinStrings(parts, ","), "a,b,,c");
}

TEST(IoTest, WriteThenReadLines) {
  std::string path = ::testing::TempDir() + "/aujoin_io_test.txt";
  std::vector<std::string> lines{"coffee shop latte", "espresso cafe"};
  ASSERT_TRUE(WriteLines(path, lines).ok());
  auto read = ReadLines(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, lines);
}

TEST(IoTest, ReadMissingFileFails) {
  auto read = ReadLines("/nonexistent/dir/file.txt");
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace aujoin
