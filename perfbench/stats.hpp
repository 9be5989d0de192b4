// Exact order statistics over the benchmark's own per-op samples.
//
// Every percentile the benchmark prints comes from here, computed from the
// raw samples it timed itself -- never from a server's bucketed histogram,
// whose log2 bucket floors would turn a 20 ms median into 16.384 ms.
//
//   median(v)          middle value (mean of the two middle values when even)
//   quartiles(v)       Q1/Q2/Q3 by the "exclusive" rule of Python's
//                      statistics.quantiles(v, n=4), so the IQR printed here
//                      matches what an external script computes from runs
//   tail(v)            the highest percentile with at least ten samples
//                      ranked beyond it: with N sorted samples, the value
//                      at rank N-10 (1-based) is percentile 100 (N-10) / N.
//                      Below 22 samples that rank does not clear the median
//                      (or does not exist), so tail() reports the maximum,
//                      as percentile 100 with nothing beyond it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Samples that must rank beyond the reported tail percentile.
inline constexpr std::size_t kTailBeyond = 10;

inline std::vector<double> sorted_copy(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

inline double median(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  const std::vector<double> v = sorted_copy(samples);
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
  [[nodiscard]] double iqr() const { return q3 - q1; }
};

/// Python's statistics.quantiles(samples, n=4) (method="exclusive"); needs
/// at least two samples, like Python. A single sample yields q1 = q2 = q3.
inline Quartiles quartiles(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("quartiles of no samples");
  const std::vector<double> v = sorted_copy(samples);
  const long ld = static_cast<long>(v.size());
  if (ld == 1) return {v[0], v[0], v[0]};
  const long m = ld + 1;
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

struct Tail {
  double percentile = 100.0;  ///< which percentile `value` is
  double value = 0.0;
  std::size_t samples = 0;    ///< N
  std::size_t beyond = 0;     ///< samples ranked above the tail value
};

inline Tail tail(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("tail of no samples");
  const std::vector<double> v = sorted_copy(samples);
  const std::size_t n = v.size();
  Tail t;
  t.samples = n;
  if (n <= 2 * kTailBeyond + 1) {
    t.value = v.back();
    return t;
  }
  const std::size_t rank = n - kTailBeyond;  // 1-based
  t.value = v[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  t.beyond = kTailBeyond;
  return t;
}

}  // namespace perfbench
