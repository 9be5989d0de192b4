// Unit tests of the benchmark's statistics helpers (perfbench/stats.hpp).
//
//   cmake -S perfbench -B build-perfbench
//   cmake --build build-perfbench --target perfbench_stats_test
//   ctest --test-dir build-perfbench
//
// Reference quartiles are Python's statistics.quantiles(data, n=4).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> iota(int from, int to) {
  std::vector<double> v;
  for (int i = from; i <= to; ++i) v.push_back(i);
  return v;
}

TEST(Median, OddCountIsTheMiddleValue) {
  EXPECT_DOUBLE_EQ(median({7, 1, 3}), 3.0);
}

TEST(Median, EvenCountAveragesTheMiddlePair) {
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Median, SingleSample) { EXPECT_DOUBLE_EQ(median({42}), 42.0); }

TEST(Median, NoSamplesThrows) { EXPECT_THROW(median({}), std::invalid_argument); }

TEST(Quartiles, MatchPythonExclusiveMethod) {
  const Quartiles a = quartiles(iota(1, 10));
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.q2, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  EXPECT_DOUBLE_EQ(a.iqr(), 5.5);

  const Quartiles b = quartiles({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(b.q1, 1.5);
  EXPECT_DOUBLE_EQ(b.q2, 3.0);
  EXPECT_DOUBLE_EQ(b.q3, 4.5);
}

TEST(Quartiles, UnsortedInputIsSortedFirst) {
  const Quartiles q = quartiles({5, 1, 4, 2, 3, 9, 7});
  EXPECT_DOUBLE_EQ(q.q1, 2.0);
  EXPECT_DOUBLE_EQ(q.q2, 4.0);
  EXPECT_DOUBLE_EQ(q.q3, 7.0);
}

TEST(Quartiles, TwoSamplesExtrapolateLikePython) {
  const Quartiles q = quartiles({1, 2});
  EXPECT_DOUBLE_EQ(q.q1, 0.75);
  EXPECT_DOUBLE_EQ(q.q2, 1.5);
  EXPECT_DOUBLE_EQ(q.q3, 2.25);
}

TEST(Quartiles, MedianAgreesWithQ2) {
  const std::vector<double> v = {0.3, 9.1, 2.2, 4.4, 7.5, 1.0};
  EXPECT_DOUBLE_EQ(quartiles(v).q2, median(v));
}

TEST(Tail, LeavesExactlyTenSamplesBeyond) {
  const Tail t = tail(iota(1, 1000));
  EXPECT_DOUBLE_EQ(t.value, 990.0);
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.samples, 1000u);
  EXPECT_EQ(t.beyond, kTailBeyond);
}

TEST(Tail, PercentileRisesWithTheSampleCount) {
  const Tail t = tail(iota(1, 3000));
  EXPECT_DOUBLE_EQ(t.value, 2990.0);
  EXPECT_NEAR(t.percentile, 99.6667, 1e-4);
  EXPECT_LT(tail(iota(1, 200)).percentile, t.percentile);
}

TEST(Tail, TwentyTwoSamplesIsTheFirstRankAboveTheMedian) {
  const Tail t = tail(iota(1, 22));
  EXPECT_DOUBLE_EQ(t.value, 12.0);
  EXPECT_NEAR(t.percentile, 100.0 * 12.0 / 22.0, 1e-12);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_GT(t.value, median(iota(1, 22)));
}

TEST(Tail, TwentyOneOrFewerSamplesReportTheMaximum) {
  const Tail t = tail({3, 9, 1});
  EXPECT_DOUBLE_EQ(t.value, 9.0);
  EXPECT_DOUBLE_EQ(t.percentile, 100.0);
  EXPECT_EQ(t.beyond, 0u);
  EXPECT_DOUBLE_EQ(tail(iota(1, 11)).value, 11.0);
  EXPECT_DOUBLE_EQ(tail(iota(1, 21)).value, 21.0);
  EXPECT_EQ(tail(iota(1, 21)).samples, 21u);
}

TEST(Tail, OrderOfSamplesDoesNotMatter) {
  std::vector<double> v = iota(1, 50);
  std::vector<double> shuffled(v.rbegin(), v.rend());
  EXPECT_DOUBLE_EQ(tail(v).value, tail(shuffled).value);
  EXPECT_DOUBLE_EQ(tail(v).value, 40.0);
}

TEST(Tail, NoSamplesThrows) { EXPECT_THROW(tail({}), std::invalid_argument); }

}  // namespace
}  // namespace perfbench
